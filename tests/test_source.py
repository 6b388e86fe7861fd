import ast
from pathlib import Path

import cqrank


def test_package_has_no_assert_statements():
    """``python -O`` strips ``assert``, so no check in the package may rely on one."""
    modules = sorted(Path(cqrank.__file__).resolve().parent.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(modules) > 5 and found == []
