import ast
from pathlib import Path

import sturmian

SOURCES = sorted(Path(sturmian.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must hold under `python -O`, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
