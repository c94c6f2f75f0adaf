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
