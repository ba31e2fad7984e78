"""Checks on the program's source text."""

import ast
import pathlib

import acpair

SOURCE = pathlib.Path(acpair.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so none may guard a claim.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in acpair: {found}"
    assert len(list(SOURCE.glob("*.py"))) >= 8
