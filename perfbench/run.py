"""Benchmark of the localglmnet command line: end-to-end times and a traced per-layer run.

    python3 perfbench/run.py --workload {fit-gaussian,fit-poisson,interpret} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
A closed loop with one client: one command at a time, each in a fresh
``python3 -m localglmnet.cli`` process, with OpenBLAS at its default thread
count. Inputs are made from the seed in set-up (repeated ``SETUP_REPEATS``
times; ``setup_s`` is the median) and only read afterwards. Every timed
command writes into a fresh output directory. Outputs are flushed to disk
after the command and deleted with the work directory when the run ends,
so neither lands inside a timed region: on ext4 mounted with ``discard``,
overwriting or deleting written files costs tens of milliseconds, which
measures the disk rather than the program.

``--trace 0`` repeats passes over the workload's commands for ``--seconds``
(at least ``MIN_PASSES``) and reports the end-to-end metrics. ``--trace 1``
alternates untraced passes with traced ones, in which each command runs
through ``traced_cli.py`` with a span around every public function of the
package, and reports the per-layer metrics.

Every command's outputs are checked (exit code, file set, finite numbers,
loss ladder, reference test loss and verdicts, byte-identical repeats, and
traced equal to untraced); ``failed`` counts the commands that failed. The
last line of standard output is the result as one JSON object. Machine
facts and the per-command times go to the lines above it and to
``.perfbench/results/``.
"""

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 150
MIN_TRACE_COVERAGE = 0.9

# name -> (unit, exact). Exact metrics are work counts that must repeat
# exactly from pass to pass; the others are medians over traced passes.
PER_LAYER = {
    "data.load_csv.s": ("s", False),
    "data.load_csv.rows": ("count", True),
    "data.load_csv.bytes": ("bytes", True),
    "data.write_csv.s": ("s", False),
    "data.write_csv.bytes": ("bytes", True),
    "linalg.sample_mvn.s": ("s", False),
    "data.standardize.s": ("s", False),
    "model.save_model.s": ("s", False),
    "model.load_model.s": ("s", False),
    "families.fit_glm.s": ("s", False),
    "families.fit_glm.iters": ("count", True),
    "families.poisson_deviance.s": ("s", False),
    "families.poisson_deviance.calls": ("count", True),
    "model.loss_and_param_grads.s": ("s", False),
    "model.loss_and_param_grads.calls": ("count", True),
    "model.loss_and_param_grads.rows": ("count", True),
    "model.loss_and_param_grads.gflop_computed": ("GFLOP", True),
    "model.loss_and_param_grads.gflops": ("GFLOP/s", False),
    "train.nadam_step.s": ("s", False),
    "train.nadam_step.calls": ("count", True),
    "train.step_us": ("us", False),
    "model.forward.s": ("s", False),
    "model.forward.rows": ("count", True),
    "train.evaluate_loss.s": ("s", False),
    "train.eval_forward.s": ("s", False),
    "train.eval_forward.rows": ("count", True),
    "train.eval_rows_per_grad_row": ("ratio", True),
    "train.fit.s": ("s", False),
    "train.epoch_ms.p50": ("ms", False),
    "train.epoch_ms.p90": ("ms", False),
    "train.row_epochs_per_s": ("rows/s", False),
    "train.grad_eval_share": ("ratio", False),
    "train.nadam_share": ("ratio", False),
    "model.attention.s": ("s", False),
    "model.attention.rows": ("count", True),
    "model.contributions.s": ("s", False),
    "interpret.selection_report.s": ("s", False),
    "interpret.variable_importance.s": ("s", False),
    "model.batch_input_jacobian.s": ("s", False),
    "model.batch_input_jacobian.calls": ("count", True),
    "model.batch_input_jacobian.rows": ("count", True),
    "interpret.interaction_profiles.s": ("s", False),
    "interpret.smooth_curve.s": ("s", False),
    "interpret.smooth_curve.calls": ("count", True),
    "interpret.jacobian_evals_per_focal": ("ratio", True),
    "svg.s": ("s", False),
    "svg.bytes": ("bytes", True),
    "cli.import_s": ("s", False),
    "cli.self_s": ("s", False),
    "cli.out_bytes": ("bytes", True),
    "cli.out_files": ("count", True),
    "cmd.synth_s": ("s", False),
    "cmd.fit_s": ("s", False),
    "cmd.report_s": ("s", False),
    "cmd.interactions_s": ("s", False),
    "trace.coverage": ("ratio", False),
    "trace_overhead": ("s", False),
}


class Runner:
    """Runs localglmnet commands in fresh processes and keeps the failure record."""

    def __init__(self, work):
        self.src = os.path.join(ROOT, "src")
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.attempted = 0
        self.failures = {}  # operation label -> error messages

    def run(self, args, out_dir, spans_path=None):
        """Run one command; return (exit code, wall seconds, peak RSS in MiB, output tail)."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "localglmnet.cli", *args, "--out-dir", out_dir]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, self.src,
                   "--", *args, "--out-dir", out_dir]
        log = os.path.join(self.work, "command.log")
        self.attempted += 1
        with open(log, "w+", encoding="utf-8") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=fh, env=self.env, cwd=self.work)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fh.seek(0)
            tail = fh.read()[-2000:]
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, tail

    def fail(self, label, errors):
        if errors:
            self.failures.setdefault(label, []).extend(errors)

    def setup_command(self, name, args, out_dir):
        code, _, _, tail = self.run(args, out_dir)
        if code:
            self.fail(f"setup {name}", [f"exit code {code}: {tail}"])

    @property
    def failed(self):
        return min(len(self.failures), self.attempted)


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def do_setup(runner, workload, work, seed, repeats):
    """Set up ``repeats`` times; use the first copy, check the others equal it."""
    times, inputs, first = [], None, None
    for k in range(repeats):
        directory = os.path.join(work, f"setup{k}")
        start = time.perf_counter()
        try:
            made = workload.setup(runner, directory, seed)
        except OSError as exc:
            runner.fail(f"setup {k}", [f"set-up failed: {exc!r}"])
            return None, None, times
        times.append(time.perf_counter() - start)
        hashes = workloads.file_hashes(directory)
        if k == 0:
            inputs, first = made, hashes
        elif hashes != first:
            runner.fail(f"setup {k}", ["set-up outputs differ between repeats"])
    inputs["setup_hashes"] = first
    try:
        errors, loss = workload.check_setup(inputs)
    except (KeyError, ValueError, OSError, csv.Error) as exc:
        errors, loss = [f"unreadable set-up output: {exc!r}"], None
    runner.fail("setup check", errors)
    return inputs, loss, times


def run_pass(runner, workload, commands, inputs, reference, work, traced):
    """One pass over the workload's commands, each into a fresh output directory."""
    records = []
    for name, args in commands:
        label = f"{'traced ' if traced else ''}{name} #{runner.attempted}"
        out_dir = os.path.join(work, f"out{runner.attempted}")
        os.makedirs(out_dir)
        spans_path = os.path.join(work, "spans.jsonl") if traced else None
        code, wall, rss, tail = runner.run(args, out_dir, spans_path)
        rec = {"name": name, "wall_s": wall, "rss_mb": rss, "loss": None}
        errors = [f"exit code {code}: {tail}"] if code else []
        if not errors:
            try:
                errors, rec["loss"] = workload.check(name, out_dir, inputs)
            except (KeyError, ValueError, OSError, csv.Error) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if not errors:
            hashes = workloads.file_hashes(out_dir)
            if reference.setdefault(name, hashes) != hashes:
                errors.append("outputs differ from the first run of the same command"
                              + (" (traced against untraced)" if traced else ""))
            rec["out_files"] = len(hashes)
            rec["out_names"] = sorted(hashes)
            rec["out_bytes"] = sum(os.path.getsize(os.path.join(out_dir, f)) for f in hashes)
        if traced and not code:
            with open(spans_path, encoding="utf-8") as fh:
                rec["trace"] = json.loads(fh.readline())
                rec["trace"]["spans"] = json.loads(fh.readline())
            os.remove(spans_path)
            if not rec["trace"]["module_file"].startswith(runner.src + os.sep):
                errors.append(f"traced the wrong package: {rec['trace']['module_file']}")
        runner.fail(label, errors)
        records.append(rec)
    return records


def layer_metrics(traced, untraced):
    """Per-layer metrics of one traced pass; ``untraced`` is the matching plain pass."""
    spans, import_s, main_s, tracer_s = [], 0.0, 0.0, 0.0
    out_bytes = out_files = jac_rows = jac_denominator = 0
    for rec in traced:
        doc = rec.get("trace")
        if doc is None:
            continue
        offset = len(spans)
        spans += [[n, t0, t1, p + offset if p >= 0 else -1, c]
                  for n, t0, t1, p, c in doc["spans"]]
        import_s += doc["import_s"]
        tracer_s += doc["install_s"] + doc["dump_s"]
        main_s += sum(t1 - t0 for _, t0, t1, p, _ in doc["spans"] if p < 0)
        out_bytes += rec.get("out_bytes", 0)
        out_files += rec.get("out_files", 0)
        focal = sum(1 for f in rec.get("out_names", ())
                    if f.startswith("interaction_") and f.endswith(".csv"))
        if focal:
            rows = sum(c["rows"] for n, *_, c in doc["spans"] if n == "data.load_csv")
            jac_rows += sum(c["rows"] for n, *_, c in doc["spans"]
                            if n == "model.batch_input_jacobian")
            jac_denominator += focal * rows
    agg = tracing.summarize(spans)
    eval_forward = tracing.under(spans, "model.forward", "train.fit",
                                 exclude="model.loss_and_param_grads")
    eval_rows = sum(span[4]["rows"] for span in eval_forward)
    eval_s = sum(span[2] - span[1] for span in eval_forward)

    def s(name):
        return agg.get(name, {}).get("s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def count(name, key):
        return agg.get(name, {}).get("counts", {}).get(key, 0)

    epoch_s = count("train.fit", "epoch_s") or []
    grad = "model.loss_and_param_grads"
    fit_s = s("train.fit")
    gflop = count(grad, "flop") / 1e9
    m = {
        "data.load_csv.s": s("data.load_csv"),
        "data.load_csv.rows": count("data.load_csv", "rows"),
        "data.load_csv.bytes": count("data.load_csv", "bytes"),
        "data.write_csv.s": s("data.write_csv"),
        "data.write_csv.bytes": count("data.write_csv", "bytes"),
        "linalg.sample_mvn.s": s("linalg.sample_mvn"),
        "data.standardize.s": s("data.standardize"),
        "model.save_model.s": s("model.save_model"),
        "model.load_model.s": s("model.load_model"),
        "families.fit_glm.s": s("families.fit_glm"),
        "families.fit_glm.iters": count("families.fit_glm", "iters"),
        "families.poisson_deviance.s": s("families.poisson_deviance"),
        "families.poisson_deviance.calls": calls("families.poisson_deviance"),
        f"{grad}.s": s(grad),
        f"{grad}.calls": calls(grad),
        f"{grad}.rows": count(grad, "rows"),
        f"{grad}.gflop_computed": gflop,
        f"{grad}.gflops": gflop / s(grad) if s(grad) else 0.0,
        "train.nadam_step.s": s("train.nadam_step"),
        "train.nadam_step.calls": calls("train.nadam_step"),
        "train.step_us": ((s(grad) + s("train.nadam_step")) / calls(grad) * 1e6
                          if calls(grad) else 0.0),
        "model.forward.s": s("model.forward"),
        "model.forward.rows": count("model.forward", "rows"),
        "train.evaluate_loss.s": s("train.evaluate_loss"),
        "train.eval_forward.s": eval_s,
        "train.eval_forward.rows": eval_rows,
        "train.eval_rows_per_grad_row": (eval_rows / count(grad, "rows")
                                         if count(grad, "rows") else 0.0),
        "train.fit.s": fit_s,
        "train.epoch_ms.p50": statistics.median(epoch_s) * 1e3 if epoch_s else 0.0,
        "train.epoch_ms.p90": (statistics.quantiles(epoch_s, n=10)[-1] * 1e3
                               if len(epoch_s) > 1 else 0.0),
        "train.row_epochs_per_s": count(grad, "rows") / fit_s if fit_s else 0.0,
        "train.grad_eval_share": (s(grad) + eval_s) / fit_s if fit_s else 0.0,
        "train.nadam_share": s("train.nadam_step") / fit_s if fit_s else 0.0,
        "model.attention.s": s("model.attention"),
        "model.attention.rows": count("model.attention", "rows"),
        "model.contributions.s": s("model.contributions"),
        "interpret.selection_report.s": s("interpret.selection_report"),
        "interpret.variable_importance.s": s("interpret.variable_importance"),
        "model.batch_input_jacobian.s": s("model.batch_input_jacobian"),
        "model.batch_input_jacobian.calls": calls("model.batch_input_jacobian"),
        "model.batch_input_jacobian.rows": count("model.batch_input_jacobian", "rows"),
        "interpret.interaction_profiles.s": s("interpret.interaction_profiles"),
        "interpret.smooth_curve.s": s("interpret.smooth_curve"),
        "interpret.smooth_curve.calls": calls("interpret.smooth_curve"),
        "interpret.jacobian_evals_per_focal": (jac_rows / jac_denominator
                                               if jac_denominator else 0.0),
        "svg.s": sum(a["s"] for n, a in agg.items() if n.startswith("svg.")),
        "svg.bytes": sum(a["counts"].get("bytes", 0) for n, a in agg.items()
                         if n.startswith("svg.")),
        "cli.import_s": import_s,
        "cli.self_s": sum(a["self_s"] for n, a in agg.items() if n.startswith("cli.")),
        "cli.out_bytes": out_bytes,
        "cli.out_files": out_files,
        "trace.coverage": ((import_s + main_s)
                           / (sum(r["wall_s"] for r in traced) - tracer_s)),
        "trace_overhead": (sum(r["wall_s"] for r in traced)
                           - sum(r["wall_s"] for r in untraced)),
    }
    for cmd in ("synth", "fit", "report", "interactions"):
        m[f"cmd.{cmd}_s"] = sum(r["wall_s"] for r in untraced if r["name"] == cmd)
    return m


def machine_facts(directory):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    path = os.path.realpath(directory)
    mount = ("", "?", "?")
    with open("/proc/self/mounts", encoding="utf-8") as fh:
        for line in fh:
            _, point, fstype, options = line.split()[:4]
            inside = path == point or path.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(mount[0]):
                mount = (point, fstype, options)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset (OpenBLAS default: one per core)"),
        "out_dir_fs": {"mount": mount[0], "type": mount[1], "options": mount[2]},
    }


def measure(workload, runner, work, seed, seconds, trace):
    """Set up, then run passes for ``seconds``; return (metrics, per-command samples)."""
    repeats = 1 if trace else SETUP_REPEATS
    inputs, setup_loss, setup_times = do_setup(runner, workload, work, seed, repeats)
    if runner.failures:
        return None, {}
    commands = workload.commands(inputs, seed)
    reference, passes, traced_passes = {}, [], []
    start = time.perf_counter()
    while len(passes) < (1 if trace else MIN_PASSES) or time.perf_counter() - start < seconds:
        passes.append(run_pass(runner, workload, commands, inputs, reference, work, False))
        if trace:
            traced_passes.append(run_pass(runner, workload, commands, inputs, reference,
                                          work, True))
        if runner.failures:
            return None, {}
    samples = {}
    for records in passes:
        for rec in records:
            samples.setdefault(f"{rec['name']}_s", []).append(rec["wall_s"])
    if trace:
        per_pass = [layer_metrics(t, u) for t, u in zip(traced_passes, passes)]
        metrics = {}
        for name, (unit, exact) in PER_LAYER.items():
            values = [m[name] for m in per_pass]
            if exact and any(v != values[0] for v in values):
                runner.fail(f"count {name}", [f"work count differs between passes: {values}"])
            metrics[name] = {"value": values[0] if exact else statistics.median(values),
                             "unit": unit}
        for k, m in enumerate(per_pass):
            if m["trace.coverage"] < MIN_TRACE_COVERAGE:
                runner.fail(f"trace coverage {k}", [
                    f"spans account for {m['trace.coverage']:.3f} of the traced wall time"])
        return metrics, samples
    losses = [rec["loss"] for records in passes for rec in records if rec["loss"] is not None]
    test_loss = losses[0] if losses else setup_loss
    walls = [sum(rec["wall_s"] for rec in records) for records in passes]
    samples["setup_s"] = setup_times
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": max(rec["rss_mb"] for records in passes for rec in records),
                        "unit": "MiB"},
        "test_loss": {"value": test_loss, "unit": "deviance"},
    }
    samples["wall_s"] = walls
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/localglmnet/cli.py", "demos/configs/model.cfg",
                           "demos/configs/synthetic_schema.txt", "demos/configs/train_demo.cfg")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a localglmnet checkout, missing {missing}", file=sys.stderr)
        return 2

    state = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(work)
    workload = workloads.WORKLOADS[args.workload](ROOT)
    runner = Runner(work)
    try:
        facts = machine_facts(work)
        metrics, samples = measure(workload, runner, work, args.seed, args.seconds,
                                   bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for label, errors in runner.failures.items():
        print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)
    if metrics is None:
        metrics = {}
        print("no metrics: the run stopped at the first failure", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"failed_ops {runner.failed}/{runner.attempted}")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<16} median {med:.4f} s  quartiles {q1:.4f} {q3:.4f}  n={len(values)}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']!r} {m['unit']}")
    print("machine " + json.dumps(facts, sort_keys=True))
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    with open(os.path.join(state, "results", f"{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": facts, "samples": samples,
                   "failures": runner.failures, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
