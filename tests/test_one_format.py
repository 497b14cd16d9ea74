"""``mpcore``'s series operations share one number format.

Every operation that sums products (the Cauchy product, the reciprocal,
cosine and sine, and the power diagonal) converts its inputs to integers
at one binary exponent with ``_fixed_factor`` and forms each coefficient
from exact integer dot products.  The scan parses ``mpcore`` and checks
each function named ``series_*``, other than the evaluations and the
derivative, which sum no products: it must reach ``_fixed_factor``,
directly or through the module's functions it calls, and it may not test
a value for equality with 0, the per-term zero test of an mpf loop.
"""

import ast
from pathlib import Path

MPCORE = Path(__file__).resolve().parent.parent / "src" / "pwextremal" / "mpcore.py"

KERNEL = "_fixed_factor"

# the series functions that sum no products
EXEMPT = {"series_eval", "series_eval_orbit", "series_derivative"}


def _zero(node) -> bool:
    """Whether node is the literal 0 (or 0.0)."""
    value = getattr(node, "value", None)
    return isinstance(node, ast.Constant) and value == 0 and not isinstance(value, bool)


def _strays(tree):
    """name:line of each series operation in `tree` that does not reach
    the kernel, or that compares a value with 0 by == or !=."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    calls = {
        name: {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
        for name, node in functions.items()
    }

    def reaches(name):
        seen, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current == KERNEL:
                return True
            if current not in seen and current in calls:
                seen.add(current)
                todo.extend(calls[current])
        return False

    out = []
    for name, node in functions.items():
        if not name.startswith("series_") or name in EXEMPT:
            continue
        if not reaches(name):
            out.append("%s:%d" % (name, node.lineno))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops
            ):
                if any(_zero(operand) for operand in [sub.left] + sub.comparators):
                    out.append("%s:%d" % (name, sub.lineno))
    return out


def test_every_series_operation_is_on_the_integer_kernel():
    tree = ast.parse(MPCORE.read_text(), filename=str(MPCORE))
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"series_multiply", "series_reciprocal", "series_cos_sin",
            "series_power_diagonal"} <= names
    assert _strays(tree) == []


def test_the_scan_flags_a_planted_loop():
    tree = ast.parse(
        "def _fixed_factor(f, n, wp):\n"
        "    return [], 0\n"
        "def _fixed_product(F, G, n):\n"
        "    return _fixed_factor(F, n, 0)\n"
        "def series_multiply(f, g, T):\n"
        "    return _fixed_product(f, g, T)\n"
        "def series_reciprocal(f, T):\n"
        "    out = []\n"
        "    for n in range(1, T):\n"
        "        if f[n] != 0:\n"
        "            out.append(f[n])\n"
        "    return out\n"
        "def series_cos_sin(f, T):\n"
        "    if f[0] == 0:\n"
        "        return _fixed_factor(f, T, 0)\n"
        "def series_eval(f, z):\n"
        "    return f[0] == 0\n"
        "def series_power_diagonal(f, g, shift, count, T):\n"
        "    drop = len(f)\n"
        "    if drop > 0:\n"
        "        return series_multiply(f, g, T)\n"
    )
    assert _strays(tree) == [
        "series_reciprocal:7",
        "series_reciprocal:10",
        "series_cos_sin:14",
    ]
