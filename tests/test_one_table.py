"""``lseries`` takes each lattice sum from one place.

The scan parses ``src/pwextremal/lseries.py`` and finds each call of
``hurwitz_zetas``, ``zeta`` and ``digamma``.  A ``hurwitz_zetas`` call may
stand only inside ``_hurwitz_table``, which keeps one table per lattice
point on the zero model: a call elsewhere makes a table of its own, once
per call, which is what the kept tables replaced.  An mpmath ``zeta`` or
``digamma`` call may stand only inside ``_lattice_sum_below_two``, the
few orders below the tables' first exponent 2: a call elsewhere is a
second route to a lattice sum the tables serve.
"""

import ast
from pathlib import Path

LSERIES = Path(__file__).resolve().parent.parent / "src" / "pwextremal" / "lseries.py"

# the one function each call may stand in
MAKERS = {
    "hurwitz_zetas": "_hurwitz_table",
    "zeta": "_lattice_sum_below_two",
    "digamma": "_lattice_sum_below_two",
}


def _strays(tree):
    """(line, name) of each call in `tree` of a MAKERS name outside its
    function."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if function is None else function
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in MAKERS and function != MAKERS[name]:
                out.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return out


def _lseries_strays():
    return _strays(ast.parse(LSERIES.read_text(), filename=str(LSERIES)))


def test_only_the_table_maker_calls_hurwitz_zetas():
    assert [s for s in _lseries_strays() if s[1] == "hurwitz_zetas"] == []


def test_only_the_low_order_helper_calls_zeta_and_digamma():
    assert [s for s in _lseries_strays() if s[1] != "hurwitz_zetas"] == []


def test_the_scan_flags_a_planted_call():
    tree = ast.parse(
        "def _hurwitz_table(zeros, q, w, n):\n"
        "    return hurwitz_zetas(q, w, n)\n"
        "def _lattice_sums(zeros, kind, w, n):\n"
        "    return mpcore.hurwitz_zetas(q, w, n)\n"
        "table = hurwitz_zetas(q, 2, 40)\n"
        "def _lattice_sum_below_two(kind, w):\n"
        "    return mp.zeta(w, q) + mp.digamma(q)\n"
        "def l_series(consts, kind, s):\n"
        "    return mp.zeta(s, q) - mp.digamma(q / 2)\n"
        "def _hurwitz_table(zeros, q, w, n):\n"
        "    return mp.zeta(w, q)\n"
    )
    assert _strays(tree) == [
        (4, "hurwitz_zetas"), (5, "hurwitz_zetas"), (9, "zeta"), (9, "digamma"), (11, "zeta")
    ]
