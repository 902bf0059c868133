"""Invariants in the package must not depend on the interpreter's -O flag:
an ``assert`` statement or a ``__debug__`` branch vanishes under it."""

import ast
from pathlib import Path

import hybridmfi

PACKAGE = Path(hybridmfi.__file__).resolve().parent


def test_package_has_no_assert_or_debug_branch():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "__debug__"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "checks that -O removes: " + ", ".join(found)
