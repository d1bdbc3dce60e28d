"""The public surface: every exported name resolves, the demos and the
README's python examples use only real names, every shipped or documented
config file loads, and every documented command line parses."""

import ast
import importlib
import pathlib
import re
import shlex

import pytest

import localglmnet as lg
from localglmnet.cli import build_parser

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


CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.cfg"))

# The config files the benchmark writes (perfbench/workloads.py), copied as
# text: a removed key would make every benchmark run exit 2.
BENCHMARK_CONFIGS = [
    (lg.TrainConfig, "learning_rate = 0.002\nbatch_size = 500\n"
                     "max_epochs = 60\nval_fraction = 0.2\nseed = 8\nshuffle = true\n"),
    (lg.ModelSpec, "hidden_dims = 15,10\nfamily = poisson\nlink = log\n"),
]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_demo_config_loads(path):
    cls = lg.TrainConfig if path.name.startswith("train") else lg.ModelSpec
    fixed = {"q": 8} if cls is lg.ModelSpec else {}
    assert isinstance(lg.read_config(path, cls, **fixed), cls)


@pytest.mark.parametrize("cls, text", BENCHMARK_CONFIGS, ids=["train", "model"])
def test_benchmark_config_loads(tmp_path, cls, text):
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    fixed = {"q": 4} if cls is lg.ModelSpec else {}
    assert isinstance(lg.read_config(path, cls, **fixed), cls)


def command_lines(text):
    """Arguments of every ``localglmnet ...`` line, continuation lines joined."""
    return [shlex.split(line)[1:] for line in text.replace("\\\n", " ").splitlines()
            if line.startswith("localglmnet ")]


@pytest.mark.parametrize("doc", ["README.md", "demos/05_cli_pipeline.sh"])
def test_documented_command_lines_parse(doc):
    commands = command_lines((ROOT / doc).read_text(encoding="utf-8"))
    assert commands, f"{doc} shows no localglmnet command"
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc}: the parser rejects {shlex.join(argv)}")
