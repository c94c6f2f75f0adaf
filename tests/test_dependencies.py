"""The runtime dependencies declared in pyproject.toml are exactly the
third-party packages the library imports."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_packages(source_root: Path) -> set[str]:
    """Top-level names of every absolute import under source_root."""
    names = set()
    for path in source_root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def declared_packages() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = requirement
        for stop in "<>=!~[; ":
            name = name.split(stop)[0]
        names.add(name.strip().lower().replace("-", "_"))
    return names


def test_declared_dependencies_match_imports():
    third_party = {name for name in imported_packages(ROOT / "src" / "zkpoi")
                   if name not in sys.stdlib_module_names and name != "zkpoi"}
    assert third_party == declared_packages() == {"cryptography"}


# Module-level imports kept on purpose although the module never uses them,
# as "module path: name". Empty: the library re-exports nothing.
INTENDED_REEXPORTS: frozenset[str] = frozenset()


def unused_imports(path: Path) -> set[str]:
    """Names bound by a module-level import of `path` that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_unused_module_level_imports():
    source_root = ROOT / "src"
    unused = {f"{path.relative_to(source_root).as_posix()}: {name}"
              for path in (source_root / "zkpoi").rglob("*.py")
              for name in unused_imports(path)}
    assert unused == INTENDED_REEXPORTS


def test_unused_import_scan_sees_a_dead_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport json as _json\n"
                      "from dataclasses import dataclass, field\n\n"
                      "@dataclass\nclass A:\n    x: int = os.sep\n")
    assert unused_imports(module) == {"_json", "field"}
