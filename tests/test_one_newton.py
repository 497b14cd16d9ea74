"""``mpcore.newton`` is the package's one Newton loop.

The scan parses every module of ``src/pwextremal`` and finds each read of
``_NEWTON_STEPS``, the step bound of every root search, and each function
named ``newton_root``, the scalar loop that ``newton`` replaced.  A read
of the bound may stand only inside ``mpcore.newton``: a function that
reads it elsewhere runs a loop of its own with its own stop rule.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwextremal"

BOUND = "_NEWTON_STEPS"


def _strays(module, tree):
    """Places in `tree` that read the bound outside mpcore.newton or
    define newton_root, as module.py:line."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "newton_root":
                out.append("%s.py:%d" % (module, node.lineno))
            function = node.name if function is None else function
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        loads = isinstance(getattr(node, "ctx", None), ast.Load)
        if name == BOUND and loads and (module, function) != ("mpcore", "newton"):
            out.append("%s.py:%d" % (module, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


def test_only_newton_reads_the_step_bound():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        stray += _strays(path.stem, ast.parse(path.read_text(), filename=str(path)))
    assert stray == []


def test_the_scan_flags_a_planted_loop():
    tree = ast.parse(
        "_NEWTON_STEPS = 100\n"
        "def newton(step, x, held, tol):\n"
        "    for _ in range(_NEWTON_STEPS):\n"
        "        pass\n"
        "def _side_root(N, bracket, start):\n"
        "    for _ in range(mpcore._NEWTON_STEPS):\n"
        "        pass\n"
        "def newton_root(f, seed, lo, hi, tol):\n"
        "    pass\n"
    )
    assert _strays("mpcore", tree) == ["mpcore.py:6", "mpcore.py:8"]
    assert _strays("spectral", tree) == ["spectral.py:3", "spectral.py:6", "spectral.py:8"]
