"""Golden outputs: the sha256 of every file and stream of a small CLI pipeline.

The pipeline is the determinism test's 2000-row ``synth`` with a 10-epoch
``fit`` and a ``report``, then ``interactions`` on that model, a 2000-row
Poisson ``fit`` with exposures, and a ``fit --add-control normal`` on a small
CSV with a categorical column, whose GLM baseline drops a reference level. Every command runs as its own process, and
its stdout and stderr count as outputs too. The test re-runs the pipeline
and names every output whose digest differs from ``golden/SHA256SUMS``:
text exactly, numbers bit for bit.

A change that moves these bytes on purpose regenerates the set with::

    PYTHONPATH=src python tests/test_golden.py

which rewrites ``golden/SHA256SUMS`` and ``golden/machine.json``. The
machine facts say where the digests were made. The bytes are exact on the
same numpy SIMD dispatch targets, OpenBLAS core and BLAS thread setting:
numpy's exp, log and tanh loops and OpenBLAS's kernels round differently
from one instruction set to another, and OpenBLAS splits a product's sums
by thread. A failing run names each recorded fact that differs on the
machine it runs on; when none does, the code moved the bytes.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

INPUTS = {
    "schema.txt": "".join(f"x{j}: continuous\n" for j in range(1, 9)) + "y: response\n",
    "model.cfg": "hidden_dims = 20,15,10\nfamily = gaussian\nlink = identity\n",
    "train.cfg": ("learning_rate = 0.002\nbatch_size = 500\nmax_epochs = 10\n"
                  "val_fraction = 0.2\nseed = 7\n"),
    "poisson_schema.txt": ("x1: continuous\nx2: continuous\nx3: continuous\n"
                           "expo: exposure\ny: response\n"),
    "poisson_model.cfg": "hidden_dims = 10,5\nfamily = poisson\n",
    "poisson_train.cfg": "batch_size = 250\nmax_epochs = 10\nseed = 3\n",
    "categorical_schema.txt": ("x1: continuous\nbrand: categorical\nx2: continuous\n"
                               "y: response\n"),
    "categorical_model.cfg": "hidden_dims = 8,4\n",
    "categorical_train.cfg": "batch_size = 100\nmax_epochs = 5\nseed = 13\n",
}

COMMANDS = [
    ("synth", ["synth", "--n-learn", "2000", "--n-test", "1000", "--seed", "5",
               "--out-dir", "synth"]),
    ("fit", ["fit", "--learn", "synth/learn.csv", "--test", "synth/test.csv",
             "--schema", "schema.txt", "--spec", "model.cfg", "--train-config", "train.cfg",
             "--seed", "7", "--synthetic-truth", "--out-dir", "fit"]),
    ("report", ["report", "--model", "fit/model.json", "--data", "synth/test.csv",
                "--schema", "schema.txt", "--control", "x7", "--sample", "500",
                "--seed", "11", "--out-dir", "report"]),
    ("interactions", ["interactions", "--model", "fit/model.json", "--data", "synth/test.csv",
                      "--schema", "schema.txt", "--out-dir", "interactions"]),
    ("poisson", ["fit", "--learn", "poisson.csv", "--schema", "poisson_schema.txt",
                 "--spec", "poisson_model.cfg", "--train-config", "poisson_train.cfg",
                 "--out-dir", "poisson"]),
    ("categorical", ["fit", "--learn", "categorical_learn.csv",
                     "--test", "categorical_test.csv", "--schema", "categorical_schema.txt",
                     "--spec", "categorical_model.cfg", "--train-config", "categorical_train.cfg",
                     "--add-control", "normal", "--out-dir", "categorical"]),
]


def write_poisson_csv(path, n=2000):
    """Claim counts with exposures in [0.2, 1) from a fixed log-linear surface."""
    rng = np.random.default_rng(2021)
    X = rng.standard_normal((n, 3))
    expo = rng.uniform(0.2, 1.0, n)
    y = rng.poisson(expo * np.exp(-1.0 + 0.4 * X[:, 0] - 0.2 * X[:, 1] ** 2))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x1,x2,x3,expo,y\n")
        fh.writelines(f"{a!r},{b!r},{c!r},{e!r},{int(k)}\n"
                      for (a, b, c), e, k in zip(X.tolist(), expo.tolist(), y))


def write_categorical_csv(path, n, seed):
    """Two continuous columns around a three-level brand with its own mean shift."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    brand = rng.choice(["A", "B", "C"], n)
    shift = np.select([brand == "B", brand == "C"], [0.5, -0.3], 0.0)
    y = 1.0 + 0.6 * X[:, 0] - 0.3 * X[:, 1] ** 2 + shift + 0.2 * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x1,brand,x2,y\n")
        fh.writelines(f"{a!r},{b},{c!r},{t!r}\n"
                      for (a, c), b, t in zip(X.tolist(), brand, y.tolist()))


def run_pipeline(workdir):
    """Run every command in ``workdir``; return {output name: sha256 hex digest}."""
    workdir = Path(workdir)
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    write_poisson_csv(workdir / "poisson.csv")
    write_categorical_csv(workdir / "categorical_learn.csv", 600, 31)
    write_categorical_csv(workdir / "categorical_test.csv", 300, 32)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    digests = {}
    for label, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "localglmnet.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, timeout=600)
        if proc.returncode != 0:
            raise AssertionError(f"{label} exited {proc.returncode}: "
                                 f"{proc.stderr.decode(errors='replace')}")
        digests[f"{label}.stdout"] = hashlib.sha256(proc.stdout).hexdigest()
        digests[f"{label}.stderr"] = hashlib.sha256(proc.stderr).hexdigest()
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            digests[path.relative_to(workdir).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _openblas(symbol, restype):
    """A function of the OpenBLAS library bundled with numpy, or None when
    no bundled library exports ``symbol``."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            return fn
    return None


def machine_facts():
    """The platform facts that can move a last bit without a code change."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    corename = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "numpy_simd_dispatch": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
        "openblas_core": corename().decode() if corename else "unknown",
        "openblas_threads": threads() if threads else "unknown",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def differing_facts(stored, here):
    """One line per recorded machine fact whose value differs here."""
    return [f"  {key}: recorded {stored[key]!r}, here {here.get(key, 'not recorded')!r}"
            for key in stored if stored[key] != here.get(key)]


def differing_facts_message():
    """Failure text naming each fact of ``machine.json`` that differs on this
    machine, or saying that none does."""
    stored = json.loads((GOLDEN / "machine.json").read_text(encoding="utf-8"))
    facts = differing_facts(stored, machine_facts()) or [
        "  none: every recorded machine fact matches, so the code moved the bytes"]
    return "machine facts that differ from the recording machine:\n" + "\n".join(facts)


def read_golden():
    digests = {}
    for line in (GOLDEN / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def test_outputs_match_golden(tmp_path):
    want, got = read_golden(), run_pipeline(tmp_path)

    def status(name):
        return "missing" if name not in got else "new" if name not in want else "differs"

    moved = [f"{name} ({status(name)})"
             for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]
    if moved:
        raise AssertionError(f"{len(moved)} of {len(want)} golden outputs moved: "
                             f"{', '.join(moved)}\n" + differing_facts_message())


def test_machine_record_names_what_the_bytes_depend_on():
    stored = json.loads((GOLDEN / "machine.json").read_text(encoding="utf-8"))
    for key in ("numpy_simd_dispatch", "openblas_core", "openblas_threads",
                "OPENBLAS_NUM_THREADS"):
        assert key in stored and key in machine_facts()


def test_differing_facts_name_each_moved_fact():
    stored = {"numpy": "2.4.6", "openblas_core": "SkylakeX", "numpy_simd_dispatch": ["X86_V3"]}
    here = {"numpy": "2.4.6", "openblas_core": "Haswell", "numpy_simd_dispatch": ["X86_V3"]}
    assert differing_facts(stored, here) == [
        "  openblas_core: recorded 'SkylakeX', here 'Haswell'"]
    assert differing_facts(stored, dict(stored)) == []


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        digests = run_pipeline(workdir)
    (GOLDEN / "SHA256SUMS").write_text(
        "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items())),
        encoding="utf-8")
    (GOLDEN / "machine.json").write_text(json.dumps(machine_facts(), indent=1) + "\n",
                                         encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN / 'SHA256SUMS'}")


if __name__ == "__main__":
    regenerate()
