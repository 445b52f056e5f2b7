"""The package surface: every def, class and module-level constant in
src/ubenford is used, every defaulted parameter is set by some call, every
line of its source fits 79 columns, and no code keeps state by hand.

A definition counts as used when its name is read somewhere in the
package outside its own body (a constant's own assignment), or when
ubenford.__all__ exports it. A helper that only tests call, or a
constant that only tests read, fails this check; move its assertion to
the code it stood in for and delete it. Likewise a parameter with a
default that no call in the package passes has one value in use: make
it a constant. A value worth keeping is a functools.cache on the pure
function that computes it, keyed by that function's inputs, so no
module-level container, global or nonlocal statement, or attribute set
outside __init__ holds the state instead.
"""

import ast
from pathlib import Path

import ubenford

SRC = Path(ubenford.__file__).parent

# names called from outside the package: argparse's usage-error hook,
# overridden by cli._Parser, and kernels.dec_digits, which
# perfbench/tracer.py binds by name
ALLOWED = {"error", "dec_digits"}

# defaulted parameters no call in the package passes, and why each stays
PARAMETERS_ALLOWED = {
    "main.argv": "the console script's entry point, called with none",
    "eval_transform.policy": "every certifying entry point takes the one "
                             "policy object",
    "mod1_law.zs": "the points at which the law is asked, through which "
                   "pdelta_curve's deltas are to be routed",
    "ParetoI.x0": "set through build_distribution's family(*args)",
}


def _scan():
    """(definitions, references) over every module of the package.

    A definition is (module, name, first line, last line): each def and
    class, and each name a module-level assignment binds. A reference is
    (module, name, line) for every Name read and attribute access.
    """
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defs += [(path.name, name.id, node.lineno, node.end_lineno)
                         for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((path.name, node.name, node.lineno,
                             node.end_lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                refs.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.attr, node.lineno))
    return defs, refs


def _dead(defs, refs):
    """Definitions no live code reads, found to a fixed point.

    A read inside a dead definition does not keep another one alive, so
    a helper that only dead code calls is dead too.
    """
    exported = set(ubenford.__all__)
    candidates = [d for d in defs if not (d[1].startswith("__")
                                          or d[1] in exported
                                          or d[1] in ALLOWED)]
    dead = []
    while True:
        live = [(module, name, line) for module, name, line in refs
                if not any(module == d[0] and d[2] <= line <= d[3]
                           for d in dead)]
        found = [(module, name, first, last)
                 for module, name, first, last in candidates
                 if (module, name, first, last) not in dead
                 and not any(r_name == name
                             and not (r_module == module
                                      and first <= line <= last)
                             for r_module, r_name, line in live)]
        if not found:
            return dead
        dead += found


def test_every_definition_is_used_or_exported():
    dead = _dead(*_scan())
    assert [f"{module}:{first} {name}" for module, name, first, _ in dead] \
        == []


def test_allow_list_names_real_definitions():
    defs, _ = _scan()
    assert ALLOWED <= {name for _, name, _, _ in defs}


def test_source_lines_fit_79_columns():
    long = [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 79]
    assert long == []


def _calls():
    """name -> [(positional count, keywords, starred)] for every call in
    the package, by the name called (a class's name for its __init__)."""
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def _defaulted():
    """(name called, index, parameter) for every parameter with a default
    of a def in the package, called by the def's name or, for __init__,
    its class's; index counts the positional parameters a call fills,
    after a method's self, and is None for a keyword-only one. Where
    several defs share the name called, a call by that name cannot be
    told apart, and index is None for each of their parameters: only a
    keyword, *args or **kwargs passes them."""
    found, names = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {id(f): c for c in ast.walk(tree)
                  if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(node))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            args = node.args
            positional = args.posonlyargs + args.args
            if owner is not None and not static:
                positional = positional[1:]
            called = owner.name if owner is not None \
                and node.name == "__init__" else node.name
            names.append(called)
            first = len(positional) - len(args.defaults)
            found += [(called, i, a.arg)
                      for i, a in enumerate(positional) if i >= first]
            found += [(called, None, a.arg)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
    return [(called, None if names.count(called) > 1 else index, name)
            for called, index, name in found]


def _unpassed():
    """'name.parameter' for each defaulted parameter no call passes."""
    calls = _calls()
    return [f"{called}.{name}" for called, index, name in _defaulted()
            if not any(starred or name in keywords
                       or (index is not None and index < positional)
                       for positional, keywords, starred
                       in calls.get(called, []))]


def test_every_defaulted_parameter_is_passed():
    assert [q for q in _unpassed() if q not in PARAMETERS_ALLOWED] == []


def test_parameter_allow_list_names_unpassed_parameters():
    assert set(PARAMETERS_ALLOWED) <= set(_unpassed())


# sites that keep state by hand, and why each stays
STATE_ALLOWED = {
    "distributions.SeededSampler.uniforms": "its stream counter lets "
                                            "draws continue",
}


def _functions(node, prefix):
    """(site, def) for every def under node, the site its qualified name
    after the module's (kernels._bucketed.get)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            site = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield site, child
            yield from _functions(child, site)
        else:
            yield from _functions(child, prefix)


def _own_nodes(function):
    """The nodes of a def's body, less those of the defs inside it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _empty_container(value):
    """Whether an expression is an empty {}, [], set(), dict() or list()."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
        and value.func.id in ("dict", "list", "set") \
        and not (value.args or value.keywords)


def _state_sites():
    """Every site that keeps state by hand: a module-level name bound to
    an empty {}, [], set(), dict() or list(); a def with a global or
    nonlocal statement; a def other than __init__ and __post_init__ that
    sets an attribute of self."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and node.value is not None \
                    and _empty_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                sites |= {f"{path.stem}.{name.id}" for target in targets
                          for name in ast.walk(target)
                          if isinstance(name, ast.Name)}
        for site, function in _functions(tree, path.stem):
            for node in _own_nodes(function):
                if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                        function.name not in ("__init__", "__post_init__")
                        and isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    sites.add(site)
    return sites


def test_no_state_kept_by_hand():
    assert sorted(_state_sites() - set(STATE_ALLOWED)) == []


def test_state_allow_list_names_real_sites():
    assert set(STATE_ALLOWED) <= _state_sites()
