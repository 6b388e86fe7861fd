import ast
import sys
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


def test_package_imports_only_the_stdlib():
    """``pyproject.toml`` declares no dependencies, so an import of anything
    else would pass where it happens to be installed and fail on a clean one."""
    modules = sorted(Path(cqrank.__file__).resolve().parent.rglob("*.py"))
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside cqrank
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"cqrank"}]
    assert len(modules) > 5 and found == []
