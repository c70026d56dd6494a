"""Source checks that keep invariants enforceable under `python -O`."""

import ast
from pathlib import Path

import nscurves

SRC = Path(nscurves.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; invariants raise
    # InternalInvariantError instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """Nodes of a function's body, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def test_no_local_is_stored_and_never_read():
    # a single-name assignment whose value the function never reads is dead
    # code, and may do work for nothing; tuple targets and `_` are exempt,
    # and a read in a nested function counts
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            own = list(_own_nodes(fn))
            read.update(name for n in own
                        if isinstance(n, (ast.Global, ast.Nonlocal))
                        for name in n.names)
            for n in own:
                if isinstance(n, ast.Assign):
                    targets = n.targets
                elif isinstance(n, ast.AnnAssign) and n.value is not None:
                    targets = [n.target]
                else:
                    continue
                found.extend(
                    "%s:%d %s in %s" % (path.name, t.lineno, t.id, fn.name)
                    for t in targets if isinstance(t, ast.Name)
                    and t.id != "_" and t.id not in read)
    assert found == []
