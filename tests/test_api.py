"""The public surface: every exported name resolves, and the demos use only real names."""

import ast
import importlib
import pathlib

import pytest

import localglmnet as lg

MODULES = ["data", "families", "interpret", "linalg", "model", "svg", "train"]
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("module", [None, *MODULES])
def test_all_names_resolve(module):
    mod = lg if module is None else importlib.import_module(f"localglmnet.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names undefined {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_attributes_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lg"}
    assert used, f"{demo.name} uses no lg.<name>"
    assert not sorted(name for name in used if not hasattr(lg, name))


def test_demos_found():
    assert len(DEMOS) >= 4
