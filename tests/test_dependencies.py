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


def dead_private_names(source_root: Path) -> set[str]:
    """Private functions, methods and classes defined under `source_root`
    whose name no module there reads, as a plain name or an attribute."""
    defined, read = set(), set()
    for path in source_root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return defined - read


def test_no_dead_private_names():
    assert dead_private_names(ROOT / "src" / "zkpoi") == set()


def test_dead_private_name_scan_sees_a_dead_name(tmp_path):
    (tmp_path / "a.py").write_text("def _used():\n    pass\n\n"
                                   "def _dead():\n    pass\n\n"
                                   "class Store:\n    def _orphan(self):\n        pass\n\n"
                                   "    def _signed(self):\n        pass\n\n"
                                   "class _Hidden:\n    def __init__(self):\n"
                                   "        self._orphan = None\n")
    (tmp_path / "b.py").write_text("from a import _used\n\n"
                                   "def check(store):\n    _used()\n    return store._signed()\n")
    assert dead_private_names(tmp_path) == {"_dead", "_orphan", "_Hidden"}


# Public names that only tests call, kept because each checks a claim of the
# paper, as "module.qualified name": reason.
PAPER_CLAIM_CHECKS: dict[str, str] = {
    "accumulator.accumulator_verify":
        "the public witness check: anyone holding a root can check membership",
    "shardgame.is_nash_profile": "the unique-Nash claim of the sharding game",
    "shardgame.decentralization_check": "the decentralization claim of the sharding game",
    "circulation.fee_balance": "the fee balance of the circulation model",
    "network.integrate_ratio_ode": "the network-effect ratio dynamics",
    "network.sample_static_joins": "acceptance bar 10 recovers the elasticities through it",
    "network.estimate_elasticities": "acceptance bar 10 recovers the elasticities through it",
}


def public_names_only_tests_reach(library_root: Path, reader_roots: list[Path]) -> set[str]:
    """Public functions, classes and methods defined under `library_root`
    whose name no module under `reader_roots` reads as a plain name or an
    attribute, as "module.qualified name". A name inside a string is no read."""
    defined: dict[str, str] = {}

    def collect(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[f"{prefix}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    collect(node.body, f"{prefix}.{node.name}")

    for path in library_root.rglob("*.py"):
        collect(ast.parse(path.read_text(), filename=str(path)).body, path.stem)
    read = set()
    for root in reader_roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return {label for label, name in defined.items() if name not in read}


def test_no_public_name_only_tests_reach():
    readers = [ROOT / "src", ROOT / "bench", ROOT / "demos"]
    assert public_names_only_tests_reach(ROOT / "src" / "zkpoi", readers) == set(
        PAPER_CLAIM_CHECKS)


def test_public_name_scan_sees_a_dead_name(tmp_path):
    library = tmp_path / "lib"
    library.mkdir()
    (library / "a.py").write_text("def used():\n    pass\n\n"
                                  "def dead():\n    pass\n\n"
                                  "def quoted():\n    pass\n\n"
                                  "class Store:\n    def get(self):\n        pass\n\n"
                                  "    def orphan(self):\n        pass\n\n"
                                  "    def _private(self):\n        pass\n")
    (tmp_path / "app.py").write_text("from a import Store, dead, used\n\n"
                                     "def run():\n    used()\n"
                                     "    Store().get()\n"
                                     "    raise TypeError('quoted expects a Store')\n")
    assert public_names_only_tests_reach(library, [tmp_path]) == {
        "a.dead", "a.quoted", "a.Store.orphan"}
