"""The package defines no module-level function or class that nothing reaches.

Reachability starts from every definition in ``cli.py`` (the subcommands and
the acceptance battery) and follows, by name, every identifier used in a
reached definition's source: bodies, defaults, decorators and annotations.
Matching by bare name over-approximates the call graph, so this can miss
dead code but never flags code that is reached.  ``ALLOWED`` lists what
only ``perfbench/`` reads.
"""

import ast
import pathlib

import eichler

SRC = pathlib.Path(eichler.__file__).parent

ALLOWED = {"L_eta"}


def _used_names(node: ast.AST) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _bound_names(stmt: ast.stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _module_graph():
    # name -> identifiers its definitions use, over every module; the names
    # defined in cli.py; the module-level functions and classes by module
    uses, roots, defs = {}, set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            for name in _bound_names(stmt):
                uses.setdefault(name, set()).update(_used_names(stmt))
                if path.name == "cli.py":
                    roots.add(name)
                elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    defs.setdefault(path.stem, []).append(name)
    return uses, roots, defs


def _reached(uses: dict, roots: set) -> set:
    seen = set(roots)
    todo = list(roots)
    while todo:
        for name in uses.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_every_definition_is_reached_from_the_cli():
    uses, roots, defs = _module_graph()
    reached = _reached(uses, roots | ALLOWED)
    unreached = [f"{mod}.{name}" for mod, names in sorted(defs.items())
                 for name in names if name not in reached]
    assert not unreached, f"reached by nothing in cli.py: {unreached}"

