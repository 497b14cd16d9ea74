"""Only ``cli`` turns numbers into payload text.

The scan parses every module of ``src/pwextremal`` but ``cli`` and finds
each call of the two number formatters, ``mp.nstr`` and
``decimal_truncated``.  Outside ``cli`` a call may stand only inside a
``raise`` statement, where it writes an error message, in
``spectral._where``, which writes the solver state into those messages,
or in ``mpcore.decimal_truncated``, the formatter itself.  Any other call
would make a second module that knows how a payload prints its numbers.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwextremal"

FORMATTERS = {"nstr", "decimal_truncated"}

# (module, function) whose body may format numbers for a message
MESSAGE_WRITERS = {("spectral", "_where"), ("mpcore", "decimal_truncated")}


def _formatter_calls(tree):
    """(call, chain of enclosing nodes) for every formatter call."""
    out = []

    def visit(node, chain):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FORMATTERS:
                out.append((node, chain))
        for child in ast.iter_child_nodes(node):
            visit(child, chain + [node])

    visit(tree, [])
    return out


def _allowed(module, chain):
    for node in chain:
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.FunctionDef) and (module, node.name) in MESSAGE_WRITERS:
            return True
    return False


def test_only_cli_formats_numbers():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for call, chain in _formatter_calls(tree):
            if not _allowed(path.stem, chain):
                stray.append("%s.py:%d" % (path.stem, call.lineno))
    assert stray == []


def test_the_scan_sees_a_formatter_outside_a_message():
    tree = ast.parse(
        "def to_json_dict(self):\n"
        "    return {'x': mp.nstr(self.x, 8)}\n"
        "def check():\n"
        "    raise SolverError('off by %s' % mp.nstr(d, 5))\n"
    )
    calls = _formatter_calls(tree)
    assert [_allowed("lseries", chain) for _call, chain in calls] == [False, True]
