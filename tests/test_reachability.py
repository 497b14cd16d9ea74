"""No package code that only tests reach.

The scan parses every module of ``src/pwextremal`` and follows names from
``cli.main``, the entry point of ``pwx``, from the statements a module
runs on import, and from the paper identities on PENDING, which wait to
be wired into ``verify``.  A definition is a top-level function, class or
method, or a module-level assignment.  It is reached when a reached
definition mentions its name, as a bare name or as an attribute; a
reached class also reaches its dunder methods, which Python calls without
naming them, and the names in its class body.  Every function, class and
method must be reached; the reference implementations that tests compare
the package against live in ``tests/oracles.py``.

The same scan keeps options out that no command sets, and defaults that
only tests use: every defaulted parameter of a function or method reached
from ``cli.main`` must be passed, by keyword or by position, by some call
in the package, or be on UNSET_DEFAULTS with the reason it stays; and it
must be left out by some call in the package, else its default serves
tests alone.  Callees are matched by name here too, so a call to any
function of that name counts.  A call of a class is a call of its
``__init__``.

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

# (module, function, parameter) -> why its default stays unset
UNSET_DEFAULTS = {
    ("cli", "main", "argv"): "the pwx script calls main() with no argument, "
    "which reads sys.argv; tests pass their own",
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
    """(module, qualified name) -> (kind, names it uses, dunder methods,
    the FunctionDef of a function or method, else None).

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
                defs[module, stmt.name] = ("function", _names([stmt]), (), stmt)
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
                    defs[key] = ("method", _names([m]), (), m)
                    if m.name.startswith("__") and m.name.endswith("__"):
                        dunders.append(key)
                defs[module, stmt.name] = ("class", own, tuple(dunders), None)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            defs[module, sub.id] = (
                                "assignment", _names([stmt.value]), (), None
                            )
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                on_import.append(stmt)
        defs[module, "<import>"] = ("import", _names(on_import), (), None)
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
        _kind, used, dunders, _fn = defs[key]
        frontier.extend(dunders)
        for name in used:
            frontier.extend(by_name.get(name, ()))
    return reached


def _defaulted(fn):
    """(position among the explicit arguments or None, name) of each
    parameter of fn that has a default; self and cls are not counted."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return out


def _calls():
    """Callee name -> (positional count, keyword names) of every call in the
    package.  The package unpacks no *args or **kwargs into a call, so
    these counts are what each call passes."""
    out = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            out[name].append((len(node.args), {k.arg for k in node.keywords}))
    return out


def _default_uses():
    """(module, function, parameter) -> whether each package call passes
    it, for each defaulted parameter of a function or method reached from
    cli.main; the calls of Cls.__init__ are the calls of Cls."""
    defs = _definitions()
    reached = _reached(defs, ROOTS)
    calls = _calls()
    uses = {}
    for key, (_kind, _used, _d, fn) in defs.items():
        if fn is None or key not in reached:
            continue
        name = key[1].rsplit(".", 1)[-1]
        if name == "__init__":
            name = key[1].split(".")[0]
        for position, param in _defaulted(fn):
            uses[key[0], key[1], param] = [
                param in keywords or (position is not None and count > position)
                for count, keywords in calls.get(name, ())
            ]
    return uses


def _unset_defaults():
    """Defaulted parameters reached from cli.main that no package call
    passes."""
    return {key for key, passed in _default_uses().items() if not any(passed)}


def test_every_definition_is_reached():
    defs = _definitions()
    reached = _reached(defs, ROOTS | PENDING)
    dead = sorted(
        "%s.%s" % key
        for key, (kind, _used, _d, _fn) in defs.items()
        if kind in ("function", "class", "method") and key not in reached
    )
    assert dead == [], "reached by no command: " + ", ".join(dead)


def test_named_lists_are_current():
    # a listed name must exist and must still need its place on the list
    defs = _definitions()
    from_main = _reached(defs, ROOTS)
    for key in PENDING:
        assert key in defs, "%s.%s is not defined" % key
        assert key not in from_main, "%s.%s is wired; drop it from PENDING" % key
    unset = _unset_defaults()
    for key in UNSET_DEFAULTS:
        assert key in unset, "%s.%s(%s) is set or gone; drop it from the list" % key


def test_every_reached_default_is_set_by_a_call():
    # a default that no call overrides is a configuration no command runs
    unset = sorted(
        "%s.%s(%s)" % key for key in _unset_defaults() if key not in UNSET_DEFAULTS
    )
    assert unset == [], "set by no call in the package: " + ", ".join(unset)


def test_every_reached_default_is_used_by_a_call():
    # a default that every call overrides serves tests alone
    always = sorted(
        "%s.%s(%s)" % key
        for key, passed in _default_uses().items()
        if passed and all(passed)
    )
    assert always == [], "passed by every call in the package: " + ", ".join(always)
