"""``lseries._hurwitz_table`` is the one maker of the L-series' Hurwitz
tables.

The scan parses ``src/pwextremal/lseries.py`` and finds each call of
``hurwitz_zetas``.  A call may stand only inside ``_hurwitz_table``, which
keeps one table per lattice point on the zero model: a call elsewhere
makes a table of its own, once per call, which is what the kept tables
replaced.
"""

import ast
from pathlib import Path

LSERIES = Path(__file__).resolve().parent.parent / "src" / "pwextremal" / "lseries.py"

MAKER = "_hurwitz_table"


def _strays(tree):
    """Lines of `tree` that call hurwitz_zetas outside the table maker."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if function is None else function
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "hurwitz_zetas" and function != MAKER:
                out.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


def test_only_the_table_maker_calls_hurwitz_zetas():
    tree = ast.parse(LSERIES.read_text(), filename=str(LSERIES))
    assert _strays(tree) == []


def test_the_scan_flags_a_planted_call():
    tree = ast.parse(
        "def _hurwitz_table(zeros, q, w, n):\n"
        "    return hurwitz_zetas(q, w, n)\n"
        "def _lattice_sums(zeros, kind, w, n):\n"
        "    return mpcore.hurwitz_zetas(q, w, n)\n"
        "table = hurwitz_zetas(q, 2, 40)\n"
    )
    assert _strays(tree) == [4, 5]
