"""Line-trace the reference CLI invocations and list the statements that never run.

Usage (from the repository root, about 6 s):

    PYTHONPATH=src python tools/reach.py

Each invocation in INVOCATIONS runs in-process through ``eichler.cli.main``
(its output discarded) under ``sys.settrace``, which records the lines executed in frames of
``src/eichler``.  The script then walks the AST of every module there and
prints, per function (methods and nested functions included), the statements
inside function bodies that no invocation executed.  ``raise`` statements
and docstrings are left out of the listing; the summary counts them too.
"""

import ast
import contextlib
import io
import os
import pathlib
import shlex
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eichler"

# the reference invocations: every subcommand, its non-default flag values
# and both battery modes
INVOCATIONS = [
    "period --r 2.5 --check-relations",
    "period --r 12",
    "period --r 2.5,0.5 --points 3",
    "l-value --r 12 --s 6",
    "l-value --r 12 --s 8 --format csv",
    "l-value --r 2.5,0.5 --s -6.2",
    "l-value --r 12 --s -2",
    "lerch --s 2.5 --a 0.3 --z 1.7",
    "lerch --s 2.5 --a 0.3,0.2 --z 1.7",
    "lerch --s=-1.5,0.5 --a 0 --z 0.6",
    "lerch --s 0.2 --a 0.7 --z 4,1",
    "lerch --s 2.5 --a 0.7 --z 1.7,0.5",
    "average --lam 1.5 --sign plus --r 0.7",
    "average --lam 1.0 --sign minus --r -1.0 --points 3",
    "average --lam 1.0 --sign plus --r 0.5",
    "average --format csv",
    "cocycle-check --r 1.3,0.4",
    "cocycle-check --r 2.5 --points 2",
    "harmonic-check --r 0.6,0.2",
    "kernel-expand --r 0.5,0.1 --terms 40",
    "cauchy --r 0.7",
    "quantum --r 3 --a 1/2 --delta T",
    "quantum",
    "goldfeld",
    "goldfeld --fixture tests/data/curve37a_an.csv",
    "verify-all --quick",
    "verify-all --full",
]


def trace_invocations() -> dict:
    """Import eichler and run every invocation; return {filename: executed lines}."""
    hits = defaultdict(set)
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)  # the goldfeld fixture path is relative
    sys.settrace(global_)
    try:
        from eichler import cli  # module-level calls count too
    finally:
        sys.settrace(None)
    for line in INVOCATIONS:
        sys.settrace(global_)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(shlex.split(line))
        finally:
            sys.settrace(None)
    return hits


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
        and isinstance(stmt.value.value, str)


def _statements(body):
    # (statement, first line, last line) for every statement of a function
    # body, nested blocks included, nested functions and classes excluded;
    # a compound statement is represented by its header lines
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        blocks = [getattr(stmt, f) for f in ("body", "orelse", "finalbody") if hasattr(stmt, f)]
        blocks += [h.body for h in getattr(stmt, "handlers", ())]
        if not isinstance(stmt, ast.Try):
            if blocks and blocks[0]:
                last = blocks[0][0].lineno - 1
                # a one-line compound statement: the header shares its body's line
                last = max(stmt.lineno, last)
            else:
                last = stmt.end_lineno
            yield stmt, stmt.lineno, last
        for block in blocks:
            yield from _statements(block)


def _functions(tree: ast.Module):
    # (qualified name, function node) for every function, nested ones too
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                yield name, child
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def unexecuted(hits: dict) -> list:
    """[(module, function, line, kind)] for every statement that never ran."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        lines = hits.get(str(path), set())
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in _functions(tree):
            for stmt, first, last in _statements(fn.body):
                if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                    continue  # no bytecode, so never traced
                if any(n in lines for n in range(first, last + 1)):
                    continue
                kind = "raise" if isinstance(stmt, ast.Raise) else \
                    "docstring" if stmt is fn.body[0] and _is_docstring(stmt) else "code"
                out.append((path.stem, name, first, kind))
    return out


def main() -> int:
    missed = unexecuted(trace_invocations())
    code = [m for m in missed if m[3] == "code"]
    by_function = defaultdict(list)
    for mod, name, line, _ in code:
        by_function[f"{mod}.{name}"].append(line)
    for fn, lines in by_function.items():
        print(f"{fn}: {', '.join(map(str, lines))}")
    per_module = defaultdict(int)
    for mod, _, _, _ in code:
        per_module[mod] += 1
    print(f"\n{len(missed)} statements never ran; {len(code)} of them are not raise "
          "statements or docstrings")
    print(", ".join(f"{mod} {n}" for mod, n in sorted(per_module.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
