import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from localglmnet import interpret
from localglmnet.cli import _report_dataset, main
from localglmnet.data import load_csv, parse_schema, standardize
from localglmnet.model import ModelSpec, init_params, save_model

SCHEMA = "".join(f"x{j}: continuous\n" for j in range(1, 9)) + "y: response\n"
MODEL_SPEC = "hidden_dims = 8,6\nfamily = gaussian\nlink = identity\n"
TRAIN_CFG = ("learning_rate = 0.002\nbatch_size = 200\nmax_epochs = 12\n"
             "val_fraction = 0.2\nseed = 3\nshuffle = true\n")


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "schema.txt").write_text(SCHEMA)
    (tmp_path / "model.cfg").write_text(MODEL_SPEC)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def fit_small(workdir, out="fit", n=1200, extra=()):
    synth_dir = workdir / "synth"
    assert run("synth", "--n-learn", n, "--n-test", n, "--seed", 5,
               "--out-dir", synth_dir) == 0
    out_dir = workdir / out
    code = run("fit", "--learn", synth_dir / "learn.csv", "--test", synth_dir / "test.csv",
               "--schema", workdir / "schema.txt", "--spec", workdir / "model.cfg",
               "--train-config", workdir / "train.cfg", "--out-dir", out_dir,
               "--seed", 7, "--synthetic-truth", *extra)
    assert code == 0
    return synth_dir, out_dir


class TestSynth:
    def test_smoke_small(self, workdir):
        out = workdir / "s"
        assert run("synth", "--n-learn", 10, "--n-test", 10, "--seed", 1,
                   "--out-dir", out) == 0
        header = (out / "learn.csv").read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,x6,x7,x8,y"
        assert len((out / "test.csv").read_text().splitlines()) == 11
        assert "seed = 1" in (out / "manifest.txt").read_text()

    def test_rerun_identical_bytes(self, workdir):
        a, b = workdir / "a", workdir / "b"
        for out in (a, b):
            assert run("synth", "--n-learn", 50, "--n-test", 20, "--seed", 9,
                       "--out-dir", out) == 0
        assert (a / "learn.csv").read_bytes() == (b / "learn.csv").read_bytes()
        assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()


class TestFit:
    def test_loss_table_and_artifacts(self, workdir):
        _, out_dir = fit_small(workdir)
        lines = (out_dir / "losses.csv").read_text().strip().splitlines()
        assert lines[0] == "model,in_sample,out_of_sample"
        models = [ln.split(",")[0] for ln in lines[1:]]
        assert models == ["true", "null", "glm", "localglmnet"]
        values = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[1:]}
        assert values["localglmnet"] < values["null"]
        assert values["glm"] < values["null"]
        assert (out_dir / "model.json").exists()
        assert (out_dir / "history.csv").exists()

    def test_missing_test_in_sample_only(self, workdir, capsys):
        synth_dir = workdir / "synth"
        assert run("synth", "--n-learn", 400, "--n-test", 10, "--seed", 5,
                   "--out-dir", synth_dir) == 0
        out_dir = workdir / "fit2"
        assert run("fit", "--learn", synth_dir / "learn.csv",
                   "--schema", workdir / "schema.txt", "--spec", workdir / "model.cfg",
                   "--train-config", workdir / "train.cfg", "--out-dir", out_dir,
                   "--seed", 7) == 0
        assert "in-sample only" in capsys.readouterr().err
        header = (out_dir / "losses.csv").read_text().splitlines()[0]
        assert header == "model,in_sample"

    def test_poisson_pathway(self, workdir, tmp_path):
        rng = np.random.default_rng(4)
        n = 600
        x = rng.standard_normal(n)
        v = rng.uniform(0.5, 1.0, n)
        y = rng.poisson(v * np.exp(0.2 + 0.4 * x))
        csv = tmp_path / "counts.csv"
        csv.write_text("x1,y,v\n" + "".join(
            f"{float(a)!r},{int(b)},{float(c)!r}\n" for a, b, c in zip(x, y, v)))
        (tmp_path / "pschema.txt").write_text("x1: continuous\ny: response\nv: exposure\n")
        (tmp_path / "pmodel.cfg").write_text("hidden_dims = 4\nfamily = poisson\nlink = log\n")
        out_dir = tmp_path / "pfit"
        assert run("fit", "--learn", csv, "--schema", tmp_path / "pschema.txt",
                   "--spec", tmp_path / "pmodel.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", out_dir, "--seed", 2) == 0
        lines = (out_dir / "losses.csv").read_text().strip().splitlines()
        values = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[1:]}
        assert values["glm"] <= values["null"]

    def write_counts(self, tmp_path, name="counts.csv", negative_row=None, link_line=""):
        rng = np.random.default_rng(4)
        n = 300
        x = rng.standard_normal(n)
        v = rng.uniform(0.5, 1.0, n)
        y = rng.poisson(v * np.exp(0.2 + 0.4 * x)).astype(float)
        if negative_row is not None:
            y[negative_row - 1] = -2.0
        csv = tmp_path / name
        csv.write_text("x1,y,v\n" + "".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}\n" for a, b, c in zip(x, y, v)))
        (tmp_path / "pschema.txt").write_text("x1: continuous\ny: response\nv: exposure\n")
        (tmp_path / "pmodel.cfg").write_text(f"hidden_dims = 4\nfamily = poisson\n{link_line}")
        return csv

    def fit_counts(self, workdir, tmp_path, learn, test=None):
        return run("fit", "--learn", learn, *(("--test", test) if test else ()),
                   "--schema", tmp_path / "pschema.txt", "--spec", tmp_path / "pmodel.cfg",
                   "--train-config", workdir / "train.cfg", "--out-dir", tmp_path / "pfit",
                   "--seed", 2)

    def test_poisson_link_defaults_to_log(self, workdir, tmp_path):
        csv = self.write_counts(tmp_path)
        assert self.fit_counts(workdir, tmp_path, csv) == 0
        doc = json.loads((tmp_path / "pfit" / "model.json").read_text())
        assert doc["spec"]["link"] == "log"

    def test_non_canonical_link_is_config_error(self, workdir, tmp_path, capsys):
        csv = self.write_counts(tmp_path, link_line="link = identity\n")
        assert self.fit_counts(workdir, tmp_path, csv) == 2
        err = capsys.readouterr().err
        assert "pmodel.cfg" in err and "'poisson'" in err and "'identity'" in err

    @pytest.mark.parametrize("where", ["learn", "test"])
    def test_negative_poisson_response_is_data_error(self, workdir, tmp_path, capsys, where):
        good = self.write_counts(tmp_path)
        bad = self.write_counts(tmp_path, name="bad.csv", negative_row=5)
        learn, test = (bad, good) if where == "learn" else (good, bad)
        assert self.fit_counts(workdir, tmp_path, learn, test) == 3
        err = capsys.readouterr().err
        assert "bad.csv: row 5, column 'y'" in err
        assert not (tmp_path / "pfit" / "losses.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "drop-refit"])
    def test_all_zero_poisson_learn_responses_are_data_error(self, workdir, tmp_path, capsys,
                                                             command):
        # The null frequency would be 0, whose log gives no GLM or network intercept.
        (tmp_path / "pmodel.cfg").write_text("hidden_dims = 4\nfamily = poisson\n")
        rows = np.random.default_rng(4).uniform(0.5, 1.0, (300, 3)).tolist()
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("x1,x2,y,v\n" + "".join(f"{a!r},{b!r},0.0,{c!r}\n" for a, b, c in rows))
        (tmp_path / "pschema.txt").write_text(
            "x1: continuous\nx2: continuous\ny: response\nv: exposure\n")
        drop = ("--drop", "x2") if command == "drop-refit" else ()
        assert run(command, "--learn", zeros, "--schema", tmp_path / "pschema.txt",
                   "--spec", tmp_path / "pmodel.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", tmp_path / "pfit", "--seed", 2, *drop) == 3
        assert capsys.readouterr().err == (
            f"data error: {zeros}: column 'y': every Poisson response is 0, so the null "
            "and GLM means would be 0\n")
        assert not (tmp_path / "pfit" / "losses.csv").exists()

    def test_determinism_full_pipeline(self, workdir):
        _, out1 = fit_small(workdir, out="d1")
        _, out2 = fit_small(workdir, out="d2")
        assert (out1 / "losses.csv").read_bytes() == (out2 / "losses.csv").read_bytes()
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_add_control_without_seed_uses_config_seed(self, workdir):
        synth_dir = workdir / "synth"
        assert run("synth", "--n-learn", 300, "--n-test", 300, "--seed", 5,
                   "--out-dir", synth_dir) == 0
        common = ("fit", "--learn", synth_dir / "learn.csv", "--schema", workdir / "schema.txt",
                  "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                  "--add-control", "normal")
        assert run(*common, "--out-dir", workdir / "noseed") == 0
        assert run(*common, "--out-dir", workdir / "seed3", "--seed", 3) == 0  # train.cfg seed
        for name in ("losses.csv", "history.csv", "model.json"):
            assert (workdir / "noseed" / name).read_bytes() == \
                (workdir / "seed3" / name).read_bytes()


class TestReport:
    def test_outputs_with_csv_siblings(self, workdir):
        synth_dir, fit_dir = fit_small(workdir)
        rep_dir = workdir / "rep"
        assert run("report", "--model", fit_dir / "model.json",
                   "--data", synth_dir / "test.csv", "--schema", workdir / "schema.txt",
                   "--control", "x7", "--sample", 300, "--seed", 11,
                   "--out-dir", rep_dir) == 0
        files = os.listdir(rep_dir)
        svgs = [f for f in files if f.endswith(".svg")]
        assert svgs, "report produced no figures"
        for f in svgs:
            if f != "importance.svg":
                assert f.replace(".svg", ".csv") in files
        assert "selection.csv" in files and "importance.csv" in files
        sel = (rep_dir / "selection.csv").read_text().strip().splitlines()
        assert len(sel) == 9  # header + 8 features
        att = (rep_dir / "attention_x1.csv").read_text().strip().splitlines()
        assert len(att) == 301

    def test_sample_clamped_with_warning(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        rep_dir = workdir / "rep2"
        assert run("report", "--model", fit_dir / "model.json",
                   "--data", synth_dir / "test.csv", "--schema", workdir / "schema.txt",
                   "--control", "x7", "--sample", 5000, "--seed", 11,
                   "--out-dir", rep_dir) == 0
        assert "clamped" in capsys.readouterr().err

    def test_zero_sample_is_config_error(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        out = workdir / "rep0"
        assert run("report", "--model", fit_dir / "model.json",
                   "--data", synth_dir / "test.csv", "--schema", workdir / "schema.txt",
                   "--control", "x7", "--sample", 0, "--out-dir", out) == 2
        assert "--sample must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_control_is_config_error(self, workdir):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        assert run("report", "--model", fit_dir / "model.json",
                   "--data", synth_dir / "test.csv", "--schema", workdir / "schema.txt",
                   "--sample", 50, "--out-dir", workdir / "rep3") == 2

    def test_onehot_boxplot_rows(self, workdir, tmp_path):
        rng = np.random.default_rng(8)
        n = 400
        brand = rng.choice(["A", "B", "C"], n)
        x = rng.standard_normal(n)
        y = x + (brand == "B") + 0.1 * rng.standard_normal(n)
        csv = tmp_path / "cat.csv"
        csv.write_text("x1,brand,y\n" + "".join(
            f"{float(a)!r},{b},{float(c)!r}\n" for a, b, c in zip(x, brand, y)))
        schema = tmp_path / "cschema.txt"
        schema.write_text("x1: continuous\nbrand: categorical(A, B, C)\ny: response\n")
        fit_dir = tmp_path / "cfit"
        assert run("fit", "--learn", csv, "--schema", schema,
                   "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", fit_dir, "--seed", 3, "--add-control", "normal") == 0
        rep_dir = tmp_path / "crep"
        assert run("report", "--model", fit_dir / "model.json", "--data", csv,
                   "--schema", schema, "--sample", 100, "--seed", 4,
                   "--out-dir", rep_dir) == 0
        box = (rep_dir / "onehot_brand.csv").read_text().strip().splitlines()
        assert len(box) == 4  # header + one row per level
        assert box[0].startswith("level,")
        assert (rep_dir / "onehot_brand.svg").exists()


    def test_level_names_of_a_column_named_with_an_equals_sign(self, workdir, tmp_path):
        # The one-hot columns are named "a=b=L", ...; the level is what follows
        # the column's own name, not what follows the first "=".
        rng = np.random.default_rng(9)
        x, cat = rng.standard_normal(300), rng.choice(["L", "M", "N"], 300)
        csv = tmp_path / "eq.csv"
        csv.write_text("x1,a=b,y\n" + "".join(f"{float(a)!r},{c},{float(a)!r}\n"
                                               for a, c in zip(x, cat)))
        schema = tmp_path / "eq.txt"
        schema.write_text("x1: continuous\na=b: categorical(L, M, N)\ny: response\n")
        assert run("fit", "--learn", csv, "--schema", schema,
                   "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", tmp_path / "fit", "--add-control", "normal") == 0
        assert run("report", "--model", tmp_path / "fit" / "model.json", "--data", csv,
                   "--schema", schema, "--sample", 50, "--out-dir", tmp_path / "rep") == 0
        rows = (tmp_path / "rep" / "onehot_a=b.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["L", "M", "N"]

    def test_missing_training_column_names_the_data_file(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        schema = workdir / "no_x3.txt"
        schema.write_text(SCHEMA.replace("x3: continuous\n", ""))
        data = synth_dir / "test.csv"
        assert run("report", "--model", fit_dir / "model.json", "--data", data,
                   "--schema", schema, "--control", "x7", "--out-dir", workdir / "rep") == 2
        names = [f"x{j}" for j in range(1, 9)]
        assert capsys.readouterr().err == (
            f"configuration error: --data {data}: data columns "
            f"{[x for x in names if x != 'x3']} do not match the model's training columns "
            f"{names}\n")

    @pytest.mark.parametrize("key", ["feature_names", "groups", "standardize",
                                     "standardize.names", "standardize.means",
                                     "standardize.sds"])
    def test_incomplete_preprocessing_block_names_file_and_key(self, workdir, capsys, key):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        doc = json.loads((fit_dir / "model.json").read_text())
        block = doc["preprocess"]
        for part in key.split(".")[:-1]:
            block = block[part]
        del block[key.split(".")[-1]]
        model = workdir / "incomplete.json"
        model.write_text(json.dumps(doc))
        data = ["--data", synth_dir / "test.csv", "--schema", workdir / "schema.txt"]
        assert run("report", "--model", model, *data, "--control", "x7",
                   "--out-dir", workdir / "rep") == 2
        assert run("interactions", "--model", model, *data, "--out-dir", workdir / "int") == 2
        want = f"configuration error: {model}: preprocessing block lacks {key!r}\n"
        assert capsys.readouterr().err == want * 2


class TestInteractions:
    def test_profiles_written(self, workdir):
        synth_dir, fit_dir = fit_small(workdir, n=600)
        out = workdir / "inter"
        assert run("interactions", "--model", fit_dir / "model.json",
                   "--data", synth_dir / "learn.csv", "--schema", workdir / "schema.txt",
                   "--focal", "x1,x4", "--out-dir", out, "--seed", 3) == 0
        assert sorted(os.listdir(out)) == ["interaction_x1.csv", "interaction_x1.svg",
                                           "interaction_x4.csv", "interaction_x4.svg"]
        lines = (out / "interaction_x4.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "x4"
        assert len(lines) == 201

    def test_all_focal_features_share_one_jacobian(self, workdir, monkeypatch):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        calls = []
        jacobian = interpret.batch_input_jacobian

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return jacobian(*args, **kwargs)

        monkeypatch.setattr(interpret, "batch_input_jacobian", counted)
        out = workdir / "inter_all"
        assert run("interactions", "--model", fit_dir / "model.json",
                   "--data", synth_dir / "learn.csv", "--schema", workdir / "schema.txt",
                   "--out-dir", out) == 0
        assert calls == [300]
        assert len(os.listdir(out)) == 2 * 8

    def test_sample_above_n_clamped_with_warning(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        common = ("interactions", "--model", fit_dir / "model.json", "--data",
                  synth_dir / "learn.csv", "--schema", workdir / "schema.txt", "--focal", "x1,x4")
        assert run(*common, "--sample", 0, "--out-dir", workdir / "all") == 0
        assert "warning" not in capsys.readouterr().err
        assert run(*common, "--sample", 5000, "--out-dir", workdir / "big") == 0
        assert "warning: sample 5000 exceeds n=300; clamped" in capsys.readouterr().err
        assert sorted(os.listdir(workdir / "big")) == sorted(os.listdir(workdir / "all"))
        for name in os.listdir(workdir / "all"):
            assert (workdir / "big" / name).read_bytes() == (workdir / "all" / name).read_bytes()

    def test_negative_sample_is_config_error(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        out = workdir / "inter_neg"
        assert run("interactions", "--model", fit_dir / "model.json",
                   "--data", synth_dir / "learn.csv", "--schema", workdir / "schema.txt",
                   "--sample", -3, "--out-dir", out) == 2
        assert "--sample must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()


class TestTooSmallOrConstantData:
    """Data too small or constant for report and interactions is a data error
    naming the file; a --sample too small for the smoother is a config error."""

    def write_rows(self, workdir, name, lines):
        path = workdir / name
        path.write_text("\n".join(lines) + "\n")
        return path

    def interactions(self, fit_dir, data, workdir, *extra):
        return run("interactions", "--model", fit_dir / "model.json", "--data", data,
                   "--schema", workdir / "schema.txt", "--out-dir", workdir / "inter", *extra)

    def test_constant_column_names_file_and_column(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        lines = (synth_dir / "learn.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[2] = "0.5"
        bad = self.write_rows(workdir, "flat_x3.csv", [lines[0]] + [",".join(r) for r in rows])
        assert self.interactions(fit_dir, bad, workdir) == 3
        assert capsys.readouterr().err == (f"data error: {bad}: column 'x3' is constant; "
                                           "cannot fit a curve\n")

    @pytest.mark.parametrize("sample", [0, 3])
    def test_too_few_rows_for_interactions_names_file(self, workdir, capsys, sample):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        lines = (synth_dir / "learn.csv").read_text().splitlines()
        bad = self.write_rows(workdir, "five.csv", lines[:6])
        assert self.interactions(fit_dir, bad, workdir, "--sample", sample) == 3
        assert capsys.readouterr().err == (f"data error: {bad}: need at least 10 "
                                           "observations, got 5\n")

    def test_sample_leaving_too_few_rows_is_config_error(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        assert self.interactions(fit_dir, synth_dir / "learn.csv", workdir,
                                 "--sample", 5) == 2
        assert capsys.readouterr().err == ("configuration error: --sample 5 leaves 5 rows; "
                                           "interaction curves need at least 10\n")

    def test_unknown_focal_stays_config_error(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        assert self.interactions(fit_dir, synth_dir / "learn.csv", workdir,
                                 "--focal", "x1,x9") == 2
        assert capsys.readouterr().err == ("configuration error: unknown focal "
                                           "feature 'x9'\n")

    def test_one_row_report_names_file(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        lines = (synth_dir / "test.csv").read_text().splitlines()
        bad = self.write_rows(workdir, "one.csv", lines[:2])
        assert run("report", "--model", fit_dir / "model.json", "--data", bad,
                   "--schema", workdir / "schema.txt", "--control", "x7",
                   "--out-dir", workdir / "rep") == 3
        assert capsys.readouterr().err == (f"data error: {bad}: need at least 2 instances, "
                                           "got 1\n")


class TestLazyScipyImports:
    """No command imports scipy; the tests keep it only as an oracle."""

    SCRIPT = ("import sys\n"
              "from localglmnet.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")

    def scipy_modules(self, *argv):
        src = os.path.dirname(os.path.dirname(interpret.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", self.SCRIPT, *map(str, argv)],
                             env=env, capture_output=True, text=True, check=True).stdout
        code, *modules = out.split()
        assert code == "0"
        return modules

    def test_synth_loads_no_scipy(self, workdir):
        assert self.scipy_modules("synth", "--n-learn", 20, "--n-test", 20,
                                  "--out-dir", workdir / "s") == []

    def test_fit_loads_no_scipy(self, workdir):
        synth_dir = workdir / "synth"
        assert run("synth", "--n-learn", 300, "--n-test", 300, "--seed", 5,
                   "--out-dir", synth_dir) == 0
        assert self.scipy_modules("fit", "--learn", synth_dir / "learn.csv",
                                  "--test", synth_dir / "test.csv",
                                  "--schema", workdir / "schema.txt",
                                  "--spec", workdir / "model.cfg",
                                  "--train-config", workdir / "train.cfg",
                                  "--out-dir", workdir / "fit") == []

    def test_report_loads_no_scipy(self, workdir):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        assert self.scipy_modules("report", "--model", fit_dir / "model.json",
                                  "--data", synth_dir / "test.csv",
                                  "--schema", workdir / "schema.txt", "--control", "x7",
                                  "--sample", 50, "--out-dir", workdir / "rep") == []

    def test_interactions_loads_no_scipy(self, workdir):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        assert self.scipy_modules("interactions", "--model", fit_dir / "model.json",
                                  "--data", synth_dir / "learn.csv",
                                  "--schema", workdir / "schema.txt", "--focal", "x1,x4",
                                  "--out-dir", workdir / "int") == []


class TestCategoricalLevels:
    """report and interactions encode categories with the training levels."""

    def fit_brands(self, workdir, tmp_path):
        rng = np.random.default_rng(8)
        n = 400
        brand = rng.choice(["A", "B", "C"], n)
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        y = x1 + (brand == "B") + 0.1 * rng.standard_normal(n)
        rows = [(f"{float(a)!r},{float(b)!r},{c},{float(d)!r}\n", c)
                for a, b, c, d in zip(x1, x2, brand, y)]
        schema = tmp_path / "cschema.txt"
        schema.write_text("x1: continuous\nx2: continuous\nbrand: categorical\ny: response\n")
        learn = self.write(tmp_path, "learn", rows)
        assert run("fit", "--learn", learn, "--schema", schema,
                   "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", tmp_path / "fit", "--seed", 3) == 0
        return schema, rows, list(dict.fromkeys(brand))

    @staticmethod
    def write(tmp_path, name, rows):
        path = tmp_path / f"{name}.csv"
        path.write_text("x1,x2,brand,y\n" + "".join(line for line, _ in rows))
        return path

    def attentions(self, tmp_path, schema, name, rows):
        out = tmp_path / f"rep_{name}"
        assert run("report", "--model", tmp_path / "fit" / "model.json",
                   "--data", self.write(tmp_path, name, rows), "--schema", schema,
                   "--control", "x2", "--sample", len(rows), "--out-dir", out) == 0
        lines = (out / "attention_x1.csv").read_text().splitlines()[1:]
        return dict((x, float(a)) for x, a in (line.split(",") for line in lines))

    @pytest.mark.parametrize("variant", ["reordered", "missing_level"])
    def test_same_attentions_as_training_order(self, workdir, tmp_path, variant):
        schema, rows, levels = self.fit_brands(workdir, tmp_path)
        if variant == "reordered":
            other = sorted(rows, key=lambda r: levels[::-1].index(r[1]))
        else:
            other = [r for r in rows if r[1] != levels[1]]
        base = self.attentions(tmp_path, schema, "train_order", rows)
        got = self.attentions(tmp_path, schema, variant, other)
        assert len(got) == len(other)
        assert_allclose([got[x] for x in got], [base[x] for x in got], rtol=1e-12, atol=0.0)
        assert run("interactions", "--model", tmp_path / "fit" / "model.json",
                   "--data", tmp_path / f"{variant}.csv", "--schema", schema,
                   "--focal", "x1", "--out-dir", tmp_path / f"inter_{variant}") == 0

    @pytest.mark.parametrize("variant", ["reordered", "missing_level"])
    def test_fit_test_file_takes_the_learning_levels(self, workdir, tmp_path, variant):
        # The --test file's levels first appear in another order, or one is
        # absent: its losses must equal those of a schema pinned to the
        # learning file's level order.
        schema, rows, levels = self.fit_brands(workdir, tmp_path)
        if variant == "reordered":
            other = sorted(rows, key=lambda r: levels[::-1].index(r[1]))
        else:
            other = [r for r in rows if r[1] != levels[0]]
        test = self.write(tmp_path, variant, other)
        pinned = tmp_path / "pinned.txt"
        pinned.write_text(schema.read_text().replace(
            "brand: categorical", f"brand: categorical({','.join(levels)})"))
        for name, sch in (("unpinned", schema), ("pinned", pinned)):
            assert run("fit", "--learn", tmp_path / "learn.csv", "--test", test,
                       "--schema", sch, "--spec", workdir / "model.cfg",
                       "--train-config", workdir / "train.cfg",
                       "--out-dir", tmp_path / name, "--seed", 3) == 0
        losses = (tmp_path / "unpinned" / "losses.csv").read_bytes()
        assert losses == (tmp_path / "pinned" / "losses.csv").read_bytes()
        assert len(losses.splitlines()[-1].split(b",")) == 3  # an out-of-sample column

    def test_unseen_level_is_data_error(self, workdir, tmp_path, capsys):
        schema, rows, _ = self.fit_brands(workdir, tmp_path)
        line = rows[4][0].replace(f",{rows[4][1]},", ",D,")
        bad = self.write(tmp_path, "unseen", rows[:4] + [(line, "D")] + rows[5:])
        assert run("report", "--model", tmp_path / "fit" / "model.json", "--data", bad,
                   "--schema", schema, "--control", "x2", "--out-dir", tmp_path / "rep") == 3
        assert "row 5, column 'brand': unknown categorical level 'D'" in capsys.readouterr().err

    def test_absent_level_left_out_of_boxplot(self, workdir, tmp_path):
        schema, rows, _ = self.fit_brands(workdir, tmp_path)
        self.attentions(tmp_path, schema, "all_levels", rows)
        self.attentions(tmp_path, schema, "without_b", [r for r in rows if r[1] != "B"])
        full = (tmp_path / "rep_all_levels" / "onehot_brand.csv").read_bytes().splitlines()
        part = (tmp_path / "rep_without_b" / "onehot_brand.csv").read_bytes().splitlines()
        assert part == [line for line in full if not line.startswith(b"B,")]
        assert len(part) == 3
        svg = (tmp_path / "rep_without_b" / "onehot_brand.svg").read_text()
        assert ">A</text>" in svg and ">C</text>" in svg and ">B</text>" not in svg


class TestReportEncodingProperty:
    """A report CSV is encoded against the training levels, whatever levels it
    uses and in whatever order they first appear."""

    SCHEMA = "x1: continuous\nbrand: categorical\ny: response\n"

    @staticmethod
    def write_csv(path, brands):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x1,brand,y\n" + "".join(f"{i}.5,{b},{i % 3}.0\n"
                                              for i, b in enumerate(brands)))

    def preprocess(self, directory, levels):
        """The preprocessing block fit writes for a learning set with ``levels``."""
        learn = os.path.join(directory, "learn.csv")
        self.write_csv(learn, levels + levels[::-1])
        ds, std = standardize(load_csv(learn, parse_schema(self.SCHEMA)))
        return {"standardize": std.to_dict(), "feature_names": ds.feature_names,
                "feature_kinds": ds.feature_kinds, "groups": ds.groups, "control": "none"}

    level_sets = st.lists(st.text(alphabet="abAB01=_-.", min_size=1, max_size=3),
                          min_size=2, max_size=6, unique=True)

    @settings(max_examples=30, deadline=None)
    @given(level_sets, st.data())
    def test_rows_take_the_column_of_their_own_level(self, levels, data):
        used = data.draw(st.lists(st.sampled_from(levels), min_size=1, max_size=20))
        with tempfile.TemporaryDirectory() as directory:
            pre = self.preprocess(directory, levels)
            args = argparse.Namespace(data=os.path.join(directory, "report.csv"),
                                      schema=os.path.join(directory, "schema.txt"), seed=1)
            with open(args.schema, "w", encoding="utf-8") as fh:
                fh.write(self.SCHEMA)
            self.write_csv(args.data, used)
            ds = _report_dataset(args, pre)
        assert ds.feature_names == ["x1"] + [f"brand={lv}" for lv in levels]
        assert np.array_equal(ds.X[:, pre["groups"]["brand"]],
                              np.eye(len(levels))[[levels.index(b) for b in used]])

    @settings(max_examples=30, deadline=None)
    @given(level_sets, st.data())
    def test_unseen_level_exits_3_naming_file_and_column(self, levels, data):
        used = data.draw(st.lists(st.sampled_from(levels), min_size=1, max_size=20))
        new = data.draw(st.text(alphabet="abAB01=_-.", min_size=1, max_size=3)
                        .filter(lambda lv: lv not in levels))
        row = data.draw(st.integers(min_value=0, max_value=len(used)))
        used.insert(row, new)
        with tempfile.TemporaryDirectory() as directory:
            pre = self.preprocess(directory, levels)
            spec = ModelSpec(q=len(pre["feature_names"]))
            model = os.path.join(directory, "model.json")
            save_model(model, spec, init_params(spec, np.random.default_rng(0)), pre)
            schema, bad = (os.path.join(directory, name) for name in ("schema.txt", "bad.csv"))
            with open(schema, "w", encoding="utf-8") as fh:
                fh.write(self.SCHEMA)
            self.write_csv(bad, used)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["report", "--model", model, "--data", bad, "--schema", schema,
                             "--control", "x1", "--out-dir", os.path.join(directory, "rep")])
        assert code == 3
        assert err.getvalue() == (f"data error: {bad}: row {row + 1}, column 'brand': "
                                  f"unknown categorical level {new!r}\n")


class TestDropRefit:
    def test_refit_without_columns(self, workdir):
        synth_dir, _ = fit_small(workdir, n=800)
        out = workdir / "reduced"
        assert run("drop-refit", "--learn", synth_dir / "learn.csv",
                   "--test", synth_dir / "test.csv", "--schema", workdir / "schema.txt",
                   "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", out, "--seed", 7, "--drop", "x7,x8") == 0
        lines = (out / "losses.csv").read_text().strip().splitlines()
        assert lines[0] == "model,in_sample,out_of_sample"
        # Reduced design: the model file reflects 6 features.
        from localglmnet import load_model

        spec, _, _ = load_model(out / "model.json")
        assert spec.q == 6


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0

    def test_config_error(self, workdir):
        assert run("fit", "--learn", "nope.csv", "--schema", workdir / "schema.txt",
                   "--spec", workdir / "model.cfg",
                   "--train-config", workdir / "missing.cfg",
                   "--out-dir", workdir / "x") in (2, 3)

    @pytest.mark.parametrize("name, line, key", [
        ("model.cfg", "hidden_dims = 20,x", "hidden_dims"),
        ("model.cfg", "hidden_dims = 20,0", "hidden_dims"),
        ("model.cfg", "activations = tanh,relu,linear", "activations"),
        ("model.cfg", "activations = tanh,tanh,linear", "activations"),
        ("model.cfg", "family = gamma", "family"),
        ("model.cfg", "hidden_dim = 20", "hidden_dim"),
        ("train.cfg", "batch_size = x", "batch_size"),
        ("train.cfg", "learning_rate = -1", "learning_rate"),
        ("train.cfg", "shuffle = maybe", "shuffle"),
        ("train.cfg", "learning_rat = 0.002", "learning_rat"),
        ("train.cfg", "beta1 = 0.9", "beta1"),
    ])
    def test_config_file_error_names_file_and_key(self, workdir, capsys, name, line, key):
        assert run("synth", "--n-learn", 100, "--n-test", 10, "--out-dir", workdir / "s") == 0
        path = workdir / name
        kept = [k for k in path.read_text().splitlines() if k.split("=")[0].strip() != key]
        path.write_text("\n".join(kept + [line]) + "\n")
        assert run("fit", "--learn", workdir / "s" / "learn.csv", "--schema",
                   workdir / "schema.txt", "--spec", workdir / "model.cfg",
                   "--train-config", workdir / "train.cfg", "--out-dir", workdir / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ") and key in err

    def test_duplicate_config_key_names_file_line_and_key(self, workdir, capsys):
        assert run("synth", "--n-learn", 100, "--n-test", 10, "--out-dir", workdir / "s") == 0
        path = workdir / "train.cfg"
        lines = path.read_text().splitlines() + ["learning_rate = 5"]
        path.write_text("\n".join(lines) + "\n")
        assert run("fit", "--learn", workdir / "s" / "learn.csv", "--schema",
                   workdir / "schema.txt", "--spec", workdir / "model.cfg",
                   "--train-config", path, "--out-dir", workdir / "x") == 2
        assert capsys.readouterr().err == (f"configuration error: {path}:{len(lines)}: "
                                           "key 'learning_rate' given twice\n")

    def test_bad_cell_in_test_file_names_that_file(self, workdir, capsys):
        synth_dir = workdir / "s"
        assert run("synth", "--n-learn", 100, "--n-test", 10, "--out-dir", synth_dir) == 0
        lines = (synth_dir / "test.csv").read_text().splitlines()
        lines[3] = "oops" + lines[3][lines[3].index(","):]
        bad = workdir / "bad_test.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run("fit", "--learn", synth_dir / "learn.csv", "--test", bad,
                   "--schema", workdir / "schema.txt", "--spec", workdir / "model.cfg",
                   "--train-config", workdir / "train.cfg", "--out-dir", workdir / "x") == 3
        assert capsys.readouterr().err == (f"data error: {bad}: row 3, column 'x1': "
                                           "cannot parse 'oops' as a number\n")

    def test_data_error_missing_file(self, workdir):
        code = run("fit", "--learn", workdir / "does-not-exist.csv",
                   "--schema", workdir / "schema.txt", "--spec", workdir / "model.cfg",
                   "--train-config", workdir / "train.cfg", "--out-dir", workdir / "x")
        assert code == 3

    def test_data_error_bad_cell(self, workdir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\noops,1.0\n")
        (tmp_path / "s.txt").write_text("x1: continuous\ny: response\n")
        code = run("fit", "--learn", bad, "--schema", tmp_path / "s.txt",
                   "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", tmp_path / "x")
        assert code == 3

    def test_non_finite_cell_is_data_error(self, workdir, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [[repr(float(x)) for x in r] for r in rng.standard_normal((200, 9))]
        rows[4][0] = "nan"
        bad = tmp_path / "nan.csv"
        bad.write_text(",".join([f"x{j}" for j in range(1, 9)] + ["y"]) + "\n"
                       + "".join(",".join(r) + "\n" for r in rows))
        code = run("fit", "--learn", bad, "--schema", workdir / "schema.txt",
                   "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", tmp_path / "x")
        assert code == 3
        assert "row 5, column 'x1': 'nan' is not a finite number" in capsys.readouterr().err

    def test_non_utf8_file_is_data_error_naming_the_row(self, workdir, tmp_path, capsys):
        rows = [",".join(repr(float(x)) for x in r)
                for r in np.random.default_rng(1).standard_normal((10001, 9))]
        header = ",".join([f"x{j}" for j in range(1, 9)] + ["y"])
        body = [line.encode() + b"\n" for line in [header] + rows]
        body[5001] = b"\xff" + body[5001]  # data row 5001
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"".join(body))
        code = run("fit", "--learn", bad, "--schema", workdir / "schema.txt",
                   "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", tmp_path / "x")
        assert code == 3
        assert capsys.readouterr().err == (f"data error: {bad}: row 5001: "
                                           "byte 0xff is not valid UTF-8\n")

    def test_malformed_model_is_config_error(self, workdir, capsys):
        synth_dir, fit_dir = fit_small(workdir, n=300)
        doc = json.loads((fit_dir / "model.json").read_text())
        bad_shape = json.loads(json.dumps(doc))
        bad_shape["params"]["biases"][0] = doc["params"]["beta0"]  # would broadcast
        bad_tags = json.loads(json.dumps(doc))
        bad_tags["spec"]["activations"] = ["tanh", "tanh", "tanh"]
        del doc["params"]["biases"]
        for name, bad in (("missing.json", doc), ("shape.json", bad_shape),
                          ("tags.json", bad_tags)):
            (workdir / name).write_text(json.dumps(bad))
            assert run("report", "--model", workdir / name, "--data", synth_dir / "test.csv",
                       "--schema", workdir / "schema.txt", "--control", "x7",
                       "--out-dir", workdir / "rep") == 2
        err = capsys.readouterr().err
        assert "missing.json: missing key 'biases'" in err
        assert "shape.json: parameter shapes" in err
        assert "tags.json: activations ['tanh', 'tanh', 'tanh'] differ" in err

    def test_numeric_error_collinear_glm(self, workdir, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        csv = tmp_path / "col.csv"
        csv.write_text("x1,x2,y\n" + "".join(
            f"{float(a)!r},{float(2 * a)!r},{float(a)!r}\n" for a in x))
        (tmp_path / "s.txt").write_text("x1: continuous\nx2: continuous\ny: response\n")
        code = run("fit", "--learn", csv, "--schema", tmp_path / "s.txt",
                   "--spec", workdir / "model.cfg", "--train-config", workdir / "train.cfg",
                   "--out-dir", tmp_path / "x")
        assert code == 4
