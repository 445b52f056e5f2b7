"""The package surface: every def, class and module-level constant in
src/ubenford is used, and every line of its source fits 79 columns.

A definition counts as used when its name is read somewhere in the
package outside its own body (a constant's own assignment), or when
ubenford.__all__ exports it. A helper that only tests call, or a
constant that only tests read, fails this check; move its assertion to
the code it stood in for and delete it.
"""

import ast
from pathlib import Path

import ubenford

SRC = Path(ubenford.__file__).parent

# names called from outside the package: argparse's usage-error hook,
# overridden by cli._Parser, and kernels.dec_digits, which
# perfbench/tracer.py binds by name
ALLOWED = {"error", "dec_digits"}


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
