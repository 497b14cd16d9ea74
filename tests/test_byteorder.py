"""Every ``int.from_bytes`` and ``int.to_bytes`` call in the package names
its byte order.

The package supports Python 3.10, where the byte order has no default:
a call without it raises TypeError there, so it would pass on 3.11 and
fail on 3.10.  The scan parses every module of ``src/pwextremal`` and
flags a call that passes neither the byte order positionally nor the
``byteorder`` keyword, and a ``map`` of either method given too few
iterables to reach it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwextremal"


# the iterables map needs to reach the byte order: from_bytes(bytes,
# byteorder) and to_bytes(int, length, byteorder)
_MAPPED_ORDER_AT = {"from_bytes": 2, "to_bytes": 3}


def _unordered(tree):
    """Lines of `tree` that call from_bytes or to_bytes without a byte
    order, directly or through map."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute) and func.attr in _MAPPED_ORDER_AT:
            if len(args) < 2 and not any(k.arg == "byteorder" for k in node.keywords):
                out.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "map" and args:
            mapped = args[0]
            if isinstance(mapped, ast.Attribute) and mapped.attr in _MAPPED_ORDER_AT:
                if len(args) - 1 < _MAPPED_ORDER_AT[mapped.attr]:
                    out.append(node.lineno)
    return sorted(out)


def test_every_byte_conversion_names_its_order():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    strays = {
        path.name: _unordered(ast.parse(path.read_text(), filename=str(path)))
        for path in modules
    }
    assert {name: lines for name, lines in strays.items() if lines} == {}


def test_the_scan_flags_a_planted_call():
    tree = ast.parse(
        "a = int.from_bytes(raw, 'big')\n"
        "b = int.from_bytes(raw)\n"
        "c = n.to_bytes(4, byteorder='little')\n"
        "d = n.to_bytes(4)\n"
        "e = list(map(int.from_bytes, slots))\n"
        "f = list(map(int.from_bytes, slots, repeat('big')))\n"
        "g = b''.join(map(int.to_bytes, slots, repeat(4)))\n"
        "h = b''.join(map(int.to_bytes, slots, repeat(4), repeat('big')))\n"
    )
    assert _unordered(tree) == [2, 4, 5, 7]
