"""The public surface: every exported name resolves, and the demos and the
README's python examples use only real names."""

import ast
import importlib
import pathlib
import re

import pytest

import localglmnet as lg

ROOT = pathlib.Path(__file__).parent.parent
MODULES = ["data", "families", "interpret", "linalg", "model", "svg", "train"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def lg_attributes(source):
    """Every ``lg.<name>`` in python source, found through ``ast``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lg"}


@pytest.mark.parametrize("module", [None, *MODULES])
def test_all_names_resolve(module):
    mod = lg if module is None else importlib.import_module(f"localglmnet.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names undefined {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_attributes_exist(demo):
    used = lg_attributes(demo.read_text(encoding="utf-8"))
    assert used, f"{demo.name} uses no lg.<name>"
    assert not sorted(name for name in used if not hasattr(lg, name))


def test_readme_attributes_exist():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python example"
    used = set().union(*(lg_attributes(block) for block in blocks))
    assert used, "README's python examples use no lg.<name>"
    assert not sorted(name for name in used if not hasattr(lg, name))


def test_demos_found():
    assert len(DEMOS) >= 4
