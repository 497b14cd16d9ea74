"""No package code that only tests reach.

The scan parses every module of ``src/pwextremal`` and follows names from
``cli.main``, the entry point of ``pwx``, from the statements a module
runs on import, and from the paper identities on PENDING, which wait to
be wired into ``verify``.  A definition is a top-level function, class or
method, or a module-level assignment.  It is reached when a reached
definition mentions its name, as a bare name or as an attribute; a
reached class also reaches its dunder methods, which Python calls without
naming them, and the names in its class body.  Every function, class and
method left unreached must be on ORACLES, the reference implementations
that tests compare the package against.

The limit: matching is by name across all modules, so definitions that
share a name are reached together, and an attribute of any object counts
as a use.  The scan can therefore miss dead code, but it never flags code
that a command reaches.  A call made only through a computed string
(``getattr(obj, name)``) would escape it; the package makes none.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pwextremal"

ROOTS = {("cli", "main")}

# paper identities kept for verify: wiring them adds checks to the
# `verify --suite all` payload
PENDING = {
    ("extremal", "constant_from_zeros_alternating"),
    ("lseries", "l_plus_even_from_phi"),
}

# reference implementations that tests compare the package against
ORACLES = {
    ("mpcore", "legendre_pair"),
    ("mpcore", "legendre_eval"),
    ("spectral", "legendre_condition"),
}


def _names(nodes):
    """Every bare name and attribute name used under the given nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """(module, qualified name) -> (kind, names it uses, dunder methods).

    The statements a module runs on import, other than definitions,
    assignments and imports, are kept under the name "<import>".
    """
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        on_import = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[module, stmt.name] = ("function", _names([stmt]), ())
            elif isinstance(stmt, ast.ClassDef):
                methods = [
                    s
                    for s in stmt.body
                    if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                rest = [s for s in stmt.body if s not in methods]
                own = _names(rest + stmt.decorator_list + stmt.bases + stmt.keywords)
                dunders = []
                for m in methods:
                    key = (module, "%s.%s" % (stmt.name, m.name))
                    defs[key] = ("method", _names([m]), ())
                    if m.name.startswith("__") and m.name.endswith("__"):
                        dunders.append(key)
                defs[module, stmt.name] = ("class", own, tuple(dunders))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            defs[module, sub.id] = ("assignment", _names([stmt.value]), ())
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                on_import.append(stmt)
        defs[module, "<import>"] = ("import", _names(on_import), ())
    return defs


def _reached(defs, roots):
    by_name = defaultdict(set)
    for key in defs:
        by_name[key[1].rsplit(".", 1)[-1]].add(key)
    reached = set()
    frontier = list(roots) + [key for key in defs if key[1] == "<import>"]
    while frontier:
        key = frontier.pop()
        if key in reached:
            continue
        reached.add(key)
        _kind, used, dunders = defs[key]
        frontier.extend(dunders)
        for name in used:
            frontier.extend(by_name.get(name, ()))
    return reached


def test_every_definition_is_reached_or_an_oracle():
    defs = _definitions()
    reached = _reached(defs, ROOTS | PENDING)
    dead = sorted(
        "%s.%s" % key
        for key, (kind, _used, _d) in defs.items()
        if kind in ("function", "class", "method")
        and key not in reached
        and key not in ORACLES
    )
    assert dead == [], "reached by no command: " + ", ".join(dead)


def test_named_lists_are_current():
    # a listed name must exist and must still need its place on the list
    defs = _definitions()
    from_main = _reached(defs, ROOTS)
    from_all = _reached(defs, ROOTS | PENDING)
    for key in PENDING | ORACLES:
        assert key in defs, "%s.%s is not defined" % key
    for key in PENDING:
        assert key not in from_main, "%s.%s is wired; drop it from PENDING" % key
    for key in ORACLES:
        assert key not in from_all, "%s.%s is reached; drop it from ORACLES" % key
