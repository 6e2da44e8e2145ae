"""Every module of the package uses what it imports and the private
helpers it defines, and every class it defines is named somewhere, so a
deletion leaves nothing unreferenced behind."""

import ast
from pathlib import Path

import pytest

import mvmlc

MODULES = sorted(p for p in Path(mvmlc.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


def test_finds_every_module():
    assert {p.stem for p in MODULES} >= {"cli", "data", "losses", "metrics", "model",
                                         "numerics", "train"}
