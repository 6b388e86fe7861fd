import ast
import sys
from pathlib import Path

import pytest

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


def test_only_the_pause_helper_switches_the_collector():
    """The collector's switch is process-wide, so only ``model._no_gc``,
    which puts it back as it found it, may turn it off or on."""
    modules = sorted(Path(cqrank.__file__).resolve().parent.rglob("*.py"))
    inside, outside = 0, []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("model.py", "_no_gc")
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("disable", "enable")
                    and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                if id(node) in helper:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "gc"
                  or isinstance(node, ast.Import) and any(a.name == "gc" and a.asname for a in node.names)):
                outside.append(f"{path.name}:{node.lineno} import")  # would hide a call from this check
    assert inside == 2 and outside == []


def test_package_never_raises_the_recursion_limit():
    """Wide queries are served by loops, not by deeper recursion: no module may
    call ``sys.setrecursionlimit`` or import it under another name."""
    modules = sorted(Path(cqrank.__file__).resolve().parent.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "setrecursionlimit"
        or isinstance(node, ast.Name) and node.id == "setrecursionlimit"
        or isinstance(node, ast.ImportFrom) and any(a.name == "setrecursionlimit" for a in node.names)
    ]
    assert len(modules) > 5 and found == []


def test_every_public_name_resolves():
    missing = [name for name in cqrank.__all__ if not hasattr(cqrank, name)]
    assert len(cqrank.__all__) > 30 and missing == []


def test_package_parses_as_python_3_10():
    """``pyproject.toml`` claims Python 3.10, so no module may use later syntax."""
    modules = sorted(Path(cqrank.__file__).resolve().parent.rglob("*.py"))
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11 syntax
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))
    assert len(modules) > 5
