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
