"""Every working precision is digits plus a named guard.

The scan parses every module of ``src/pwextremal`` and flags two things:
an int literal that is a direct operand of ``+`` or ``-`` with a digits
name (``digits``, ``digits_certified``, ``dps``, ``wd``, ``need_dps``,
``resolved``, ``d``, bare or as an attribute), and an ``mp.workdps`` or
``mp.workprec`` called with a literal.  Such a literal is a guard with no
name: nothing says what loss it covers, and two sites that must agree
keep it equal by hand.  The named guards sit beside the stage they serve,
the shared ones in ``mpcore`` (see its module docstring).  There is no
exemption list.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwextremal"

DIGITS_NAMES = {"digits", "digits_certified", "dps", "wd", "need_dps", "resolved", "d"}

PRECISION_BLOCKS = {"workdps", "workprec"}


def _is_digits(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in DIGITS_NAMES
    return isinstance(node, ast.Attribute) and node.attr in DIGITS_NAMES


def _is_int(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _unnamed_guards(tree) -> list:
    """Line numbers of digits +- literal and of literal precision blocks."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            pair = (node.left, node.right)
            if any(_is_digits(a) and _is_int(b) for a, b in (pair, pair[::-1])):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PRECISION_BLOCKS
            and node.args
            and _is_int(node.args[0])
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_every_guard_is_named():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += ["%s.py:%d" % (path.stem, line) for line in _unnamed_guards(tree)]
    assert stray == []


def test_the_scan_sees_an_unnamed_guard():
    tree = ast.parse(
        "with mp.workdps(digits + 7):\n"
        "    tol = mpf(10) ** (-(consts.dps - 6))\n"
        "with mp.workprec(64):\n"
        "    x = 1\n"
        "with mp.workdps(digits + _GUARD):\n"
        "    head = 2 * digits + 40\n"
    )
    assert _unnamed_guards(tree) == [1, 2, 3]
