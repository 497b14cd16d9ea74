"""Only ``cli`` turns numbers into payload text, and it computes none of
the numbers its verify rows print.

The first scan parses every module of ``src/pwextremal`` but ``cli`` and
finds each call of the two number formatters, ``mp.nstr`` and
``decimal_truncated``.  Outside ``cli`` a call may stand only inside a
``raise`` statement, where it writes an error message, in
``spectral._where``, which writes the solver state into those messages,
or in ``mpcore.decimal_truncated``, the formatter itself.  Any other call
would make a second module that knows how a payload prints its numbers.

The converse scan parses ``cli`` and finds, in each of its functions,
every ``mp.workdps`` or ``mp.workprec`` block, every use of a ``dps`` or
``prec`` field (an assignment to ``mp.dps``, a read of a model's
``dps``), every read of a zero model's crossover ``n0``, of the shared
precision rules ``ESTIMATE_DPS`` and ``TARGET_MARGIN`` and of a
``*_GUARD`` of another module (an attribute, or a name ``cli`` does not
assign itself).  A handler or suite that sets or reads a precision, or
borrows a guard or a model's layout, computes numbers that belong in the
module owning the stage, where the precision policy names its guards.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwextremal"

FORMATTERS = {"nstr", "decimal_truncated"}

PRECISION_BLOCKS = {"workdps", "workprec"}

# fields of mp or of a model that only the module owning them reads
MODEL_FIELDS = {"dps", "prec", "n0"}

PRECISION_RULES = {"ESTIMATE_DPS", "TARGET_MARGIN"}

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


def _cli_numerics(tree):
    """(function, line) for every precision a top-level function of cli
    sets or reads, every model field of MODEL_FIELDS it reads, and every
    shared precision rule or *_GUARD of another module it reads."""
    own = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    stray = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                name, field = node.attr, node.attr in MODEL_FIELDS | PRECISION_BLOCKS
            elif isinstance(node, ast.Name) and node.id not in own:
                name, field = node.id, False
            else:
                continue
            if field or name in PRECISION_RULES or name.endswith("_GUARD"):
                stray.append((fn.name, node.lineno))
    return sorted(stray)


def test_cli_functions_compute_no_numbers():
    path = PACKAGE / "cli.py"
    assert _cli_numerics(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_scan_sees_a_function_that_sets_a_precision_or_borrows_a_guard():
    tree = ast.parse(
        "from .lseries import CHECK_GUARD\n"
        "_OWN_GUARD = 5\n"
        "def _suite_a(consts, args):\n"
        "    with mp.workdps(args.digits + extremal.REFLECTION_GUARD):\n"
        "        x = 1\n"
        "    mp.prec = 80\n"
        "    return [_entry('a', {}, x, _bound(args, _OWN_GUARD))]\n"
        "def _suite_b(consts, args):\n"
        "    with mp.workprec(mp.prec + CHECK_GUARD):\n"
        "        return []\n"
        "def _cmd_zeros(args):\n"
        "    model = extremal.build_zero_model(solve_constants(args.digits))\n"
        "    with mp.workdps(model.dps):\n"
        "        return [decimal_truncated(t, args.digits) for t in model.refined[: model.n0]]\n"
        "def _series_export(consts, args):\n"
        "    lowest = -(args.digits + mpcore.TARGET_MARGIN)\n"
        "    def rows():\n"
        "        with mp.workdps(ESTIMATE_DPS):\n"
        "            yield lowest\n"
        "    return rows()\n"
        "def _bound(args, drop):\n"
        "    return mpf(10) ** (-max(2, args.digits - drop - _OWN_GUARD))\n"
    )
    assert _cli_numerics(tree) == [
        ("_cmd_zeros", 13), ("_cmd_zeros", 13), ("_cmd_zeros", 14),
        ("_series_export", 16), ("_series_export", 18), ("_series_export", 18),
        ("_suite_a", 4), ("_suite_a", 4), ("_suite_a", 6),
        ("_suite_b", 9), ("_suite_b", 9), ("_suite_b", 9),
    ]
