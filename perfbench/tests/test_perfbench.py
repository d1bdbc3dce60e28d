"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest perfbench/tests
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONFIGS = os.path.join(run.ROOT, "demos", "configs")


class Small:
    """Checks only the generic output rules; the reference losses need full-size data."""

    def check(self, name, out_dir, inputs):
        return workloads.check_files(name, out_dir), None


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("work"))
    runner = run.Runner(work)
    data = os.path.join(work, "data")
    runner.setup_command("synth", ["synth", "--n-learn", "2000", "--n-test", "1000",
                                   "--seed", "3"], data)
    train_cfg = os.path.join(work, "train.cfg")
    workloads.write_train_config(train_cfg, 200, 3)
    schema = os.path.join(CONFIGS, "synthetic_schema.txt")
    model_dir = os.path.join(work, "model")
    runner.setup_command("fit", ["fit", "--learn", os.path.join(data, "learn.csv"),
                                 "--test", os.path.join(data, "test.csv"), "--schema", schema,
                                 "--spec", os.path.join(CONFIGS, "model.cfg"),
                                 "--train-config", train_cfg, "--seed", "3"], model_dir)
    commands = [
        ("fit", ["fit", "--learn", os.path.join(data, "learn.csv"),
                 "--test", os.path.join(data, "test.csv"), "--schema", schema,
                 "--spec", os.path.join(CONFIGS, "model.cfg"), "--train-config", train_cfg,
                 "--seed", "3", "--synthetic-truth"]),
        ("interactions", ["interactions", "--model", os.path.join(model_dir, "model.json"),
                          "--data", os.path.join(data, "learn.csv"), "--schema", schema]),
    ]
    reference = {}
    passes = [run.run_pass(runner, Small(), commands, {}, reference, work, traced)
              for traced in (False, True, True)]
    return runner, passes


def test_traced_outputs_equal_untraced_and_nothing_fails(small):
    runner, _ = small
    assert runner.failures == {}
    assert runner.attempted == 8


def test_work_counts_repeat_exactly(small):
    _, (untraced, first, second) = small
    a = run.layer_metrics(first, untraced)
    b = run.layer_metrics(second, untraced)
    exact = [name for name, (_, is_exact) in run.PER_LAYER.items() if is_exact]
    assert {n: a[n] for n in exact} == {n: b[n] for n in exact}
    # 1600 training rows in batches of 200 for 3 epochs.
    assert a["model.loss_and_param_grads.calls"] == 24
    assert a["model.loss_and_param_grads.rows"] == 4800
    assert a["train.nadam_step.calls"] == 24
    assert a["train.eval_rows_per_grad_row"] == 1.25
    assert a["model.batch_input_jacobian.rows"] == 8 * 2000
    assert a["interpret.smooth_curve.calls"] == 8 * 8
    assert a["interpret.jacobian_evals_per_focal"] == 1.0
    assert a["families.fit_glm.iters"] >= 1


def test_every_alias_of_a_wrapped_function_is_rebound():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import localglmnet, localglmnet.cli as cli, localglmnet.train as train\n"
        "import localglmnet.model as model, tracing\n"
        "originals = (train.fit, model.forward, model.loss_and_param_grads)\n"
        "tracing.install(tracing.Tracer())\n"
        "assert cli.fit is train.fit is localglmnet.fit is not originals[0]\n"
        "assert train.forward is model.forward is localglmnet.forward is not originals[1]\n"
        "assert train.loss_and_param_grads is model.loss_and_param_grads is not originals[2]\n"
        "assert cli.main.__wrapped__ is not None\n"
    )
    subprocess.run([sys.executable, "-c", code, os.path.join(run.ROOT, "src"), run.HERE],
                   check=True)


def test_summarize_self_and_inclusive_times():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["model.forward", 1.0, 3.0, 0, {"rows": 5}],
        ["model.loss_and_param_grads", 4.0, 9.0, 0, {"rows": 7}],
        ["model.forward", 5.0, 6.0, 2, {"rows": 7}],
    ]
    s = tracing.summarize(spans)
    assert s["cli.main"]["self_s"] == 10.0 - 2.0 - 5.0
    assert s["model.forward"]["s"] == 3.0 and s["model.forward"]["calls"] == 2
    assert s["model.forward"]["counts"]["rows"] == 12
    assert s["model.loss_and_param_grads"]["self_s"] == 4.0
    assert sum(v["self_s"] for v in s.values()) == 10.0
    outside = tracing.under(spans, "model.forward", "cli.main",
                            exclude="model.loss_and_param_grads")
    assert [sp[4]["rows"] for sp in outside] == [5]


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "interpret",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
