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
# paper, as "module.qualified name": reason. Checks that are no part of the
# protocol live in tests/claims.py instead.
PAPER_CLAIM_CHECKS: dict[str, str] = {
    "accumulator.accumulator_verify":
        "the public witness check: anyone holding a root can check membership",
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


# Parameters with a default that no call in src/, bench/ or demos/ sets, kept
# on purpose, as "module.qualified name(parameter)": reason.
OPTIONS_ONLY_TESTS_SET: dict[str, str] = {
    "identity.HolderFields(optional_data)":
        "the ICAO 9303 DG1 optional-data element, which the composite check digit covers",
}


def _decorator_names(node: ast.FunctionDef | ast.ClassDef) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def _field_parameter(value: ast.expr | None) -> tuple[bool, bool]:
    """(is an __init__ parameter, has a default) for a dataclass field's value."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field"):
        return True, value is not None
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    return (not (isinstance(init, ast.Constant) and init.value is False),
            bool({"default", "default_factory"} & set(keywords)))


def options_only_tests_set(library_root: Path, reader_roots: list[Path]) -> set[str]:
    """Parameters with a default of the functions, methods and constructors
    defined under `library_root`, dataclass fields included, that no call
    under `reader_roots` sets, as "module.qualified name(parameter)".

    A call is matched by the callee's name, as the public-name scan matches
    reads. It sets a parameter by keyword, by position, or through `*` or
    `**`; an attribute store of a field's name also sets the field."""
    # label -> (callee names, position after self/cls or None, name, is a field)
    options: dict[str, tuple[set[str], int | None, str, bool]] = {}

    def function(node: ast.FunctionDef, prefix: str, owner: ast.ClassDef | None) -> None:
        positional = [a.arg for a in node.args.posonlyargs + node.args.args]
        if owner is not None and "staticmethod" not in _decorator_names(node):
            positional = positional[1:]
        label = prefix if node.name == "__init__" else f"{prefix}.{node.name}"
        callees = {node.name} | ({owner.name} if node.name == "__init__" else set())
        for index in range(len(positional) - len(node.args.defaults), len(positional)):
            options[f"{label}({positional[index]})"] = (
                callees, index, positional[index], False)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                options[f"{label}({arg.arg})"] = (callees, None, arg.arg, False)
        collect(node.body, label, None)

    def dataclass_fields(node: ast.ClassDef, prefix: str) -> None:
        index = 0
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            in_init, has_default = _field_parameter(stmt.value)
            if in_init and has_default:
                options[f"{prefix}({stmt.target.id})"] = ({node.name}, index, stmt.target.id, True)
            index += in_init

    def collect(body: list[ast.stmt], prefix: str, owner: ast.ClassDef | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(node, prefix, owner)
            elif isinstance(node, ast.ClassDef):
                label = f"{prefix}.{node.name}"
                has_init = any(isinstance(n, ast.FunctionDef) and n.name == "__init__"
                               for n in node.body)
                if "dataclass" in _decorator_names(node) and not has_init:
                    dataclass_fields(node, label)
                collect(node.body, label, node)

    for path in library_root.rglob("*.py"):
        collect(ast.parse(path.read_text(), filename=str(path)).body, path.stem, None)

    # callee name -> per call: (positional count, first starred position, keywords)
    calls: dict[str, list[tuple[int, int | None, set[str | None]]]] = {}
    stored = set()
    for root in reader_roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
                    calls.setdefault(name, []).append(
                        (len(node.args), starred[0] if starred else None,
                         {k.arg for k in node.keywords}))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)

    def is_set(callees: set[str], index: int | None, name: str, field: bool) -> bool:
        if field and name in stored:
            return True
        for count, star, keywords in (c for callee in callees for c in calls.get(callee, ())):
            if name in keywords or None in keywords:
                return True
            if index is not None and (index < count or (star is not None and index >= star)):
                return True
        return False

    return {label for label, option in options.items() if not is_set(*option)}


def test_no_option_only_tests_set():
    readers = [ROOT / "src", ROOT / "bench", ROOT / "demos"]
    assert options_only_tests_set(ROOT / "src" / "zkpoi", readers) == set(
        OPTIONS_ONLY_TESTS_SET)


def test_option_scan_sees_a_dead_option(tmp_path):
    library, app, tests = (tmp_path / name for name in ("lib", "app", "tests"))
    for folder in (library, app, tests):
        folder.mkdir()
    (library / "a.py").write_text("from dataclasses import dataclass\n\n"
                                  "def run(x, dead=0):\n    pass\n\n"
                                  "def spread(x, keyed=0):\n    pass\n\n"
                                  "class Store:\n    def get(self, key, placed=None):\n"
                                  "        pass\n\n"
                                  "@dataclass\nclass Config:\n    name: str\n"
                                  "    stored: int = 0\n")
    (app / "app.py").write_text("from a import Config, Store, run, spread\n\n"
                                "def main(options):\n    run(1)\n    spread(1, **options)\n"
                                "    Store().get('k', 0)\n"
                                "    config = Config('x')\n    config.stored = 3\n")
    (tests / "test_a.py").write_text("from a import run\n\n"
                                     "def test_run():\n    run(1, dead=2)\n")
    assert options_only_tests_set(library, [app]) == {"a.run(dead)"}


ENVIRONMENT_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})


def environment_reads(library_root: Path) -> set[str]:
    """Every read of the process environment under `library_root`, as
    "path:line": an `os.environ` or `os.getenv` attribute (under any module
    alias), or one of those names imported from `os`."""
    reads = set()
    for path in library_root.rglob("*.py"):
        label = path.relative_to(library_root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
                reads.add(f"{label}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and ENVIRONMENT_NAMES & {alias.name for alias in node.names}):
                reads.add(f"{label}:{node.lineno}")
    return reads


def test_no_environment_read():
    assert environment_reads(ROOT / "src" / "zkpoi") == set()


def test_environment_scan_sees_a_read(tmp_path):
    (tmp_path / "a.py").write_text("import os\nimport os as system\n\n"
                                   "def seed():\n    return os.environ.get('SEED')\n\n"
                                   "def home():\n    return system.getenv('HOME')\n\n"
                                   "def name(path):\n    return os.path.basename(path)\n")
    (tmp_path / "b.py").write_text("from os import environ, sep\n\n"
                                   "def lookup(key):\n    return key + sep\n")
    assert environment_reads(tmp_path) == {"a.py:5", "a.py:8", "b.py:1"}


def library_imports(path: Path) -> set[str]:
    """Every import of `zkpoi` or one of its modules in the file at `path`,
    as "line: module"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
        else:
            continue
        found.update(f"{node.lineno}: {module}" for module in modules
                     if module.split(".")[0] == "zkpoi")
    return found


def test_oracles_import_nothing_from_the_library():
    assert library_imports(ROOT / "tests" / "oracles.py") == set()


def test_oracle_import_scan_sees_an_import(tmp_path):
    module = tmp_path / "oracles.py"
    module.write_text("import math\nimport zkpoi\nimport zkpoi_extra\n"
                      "from zkpoi.econ import network\n\n"
                      "def reference():\n    import zkpoi.shardgame as game\n"
                      "    return game\n")
    assert library_imports(module) == {"2: zkpoi", "4: zkpoi.econ", "7: zkpoi.shardgame"}
