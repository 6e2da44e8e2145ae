"""Every module of the package uses what it imports and the private
helpers it defines, every class it defines is named somewhere, and every
public name is used outside its definition, so a deletion leaves nothing
unreferenced behind; no module reads another module's private names, and
the package imports only the standard library, numpy and itself."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import mvmlc

MODULES = sorted(p for p in Path(mvmlc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _names(node) -> set[str]:
    """Every name and attribute name under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_and_private_helpers_are_referenced(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    helpers = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    assert [name for name in imported if name not in used] == [], "unused imports"
    assert [name for name in helpers if name not in used] == [], "unreferenced private helpers"


def test_every_class_is_named_elsewhere():
    # A class no code of the package names (in an annotation, a call or an
    # isinstance) is a leftover of a deleted design.
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in Path(mvmlc.__file__).parent.glob("*.py")]
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    defined = [node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    assert [name for name in defined if name not in named] == [], "classes nothing names"


def test_every_public_name_is_named_elsewhere():
    # A public function, class or constant that no other statement of the
    # package, its tests or its benchmark names is dead code; the re-export
    # in __init__.py does not count as a use.
    root = Path(__file__).parents[1]
    files = [*MODULES, *sorted((root / "tests").glob("*.py")), *sorted((root / "bench").glob("*.py"))]
    statements = [(path, i, stmt) for path in files
                  for i, stmt in enumerate(ast.parse(path.read_text(), filename=str(path)).body)]
    uses = [(path, i, _names(stmt)) for path, i, stmt in statements]
    unreferenced = []
    for path, i, stmt in statements:
        if path not in MODULES:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        unreferenced += [f"{path.stem}.{name}" for name in defined if not name.startswith("_")
                         and not any(name in names for p, j, names in uses if (p, j) != (path, i))]
    assert unreferenced == [], "public names nothing else names"


def test_finds_every_module():
    assert {p.stem for p in MODULES} >= {"cli", "data", "losses", "metrics", "model",
                                         "numerics", "train"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_reads_another_modules_private_name(path):
    # A helper another module needs is part of its interface: it is public.
    module = importlib.import_module(f"mvmlc.{path.stem}")
    modules = {name for name, value in vars(module).items() if isinstance(value, types.ModuleType)}
    reads = [f"{node.value.id}.{node.attr}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules
             and node.attr.startswith("_") and not node.attr.startswith("__")]
    assert reads == [], "private names read from other modules"


@pytest.mark.parametrize("path", sorted(Path(mvmlc.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_imports_only_the_standard_library_numpy_and_itself(path):
    # numpy is the one dependency pyproject.toml declares; any other
    # installed package (a faster JSON library, scipy) is not one.
    allowed = set(sys.stdlib_module_names) | {"numpy", "mvmlc"}
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert [name for name in imported if name.split(".")[0] not in allowed] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_vjp_sets_its_own_overflow_policy(path):
    # A training step runs forward and backward under one policy, overflow
    # ignored, and its loss and gradient checks name the culprit; a VJP that
    # raised on its own would skip them.
    tree = ast.parse(path.read_text(), filename=str(path))
    vjps = [node for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
            for node in ast.walk(outer) if isinstance(node, ast.FunctionDef)
            and node is not outer and node.name == "vjp"]
    policies = [f"{path.stem}:{node.lineno}" for vjp in vjps for node in ast.walk(vjp)
                if isinstance(node, ast.Call) and _names(node.func) & {"errstate", "refuse_overflow"}]
    assert policies == [], "VJPs that enter np.errstate or refuse_overflow"
