"""Command-line front end.

Subcommands cover the full pipeline: ``synth`` writes the synthetic
benchmark datasets, ``fit`` trains the null / GLM / LocalGLMnet ladder
and writes the loss table, ``report`` emits attention, contribution,
selection, importance and per-level boxplot outputs, ``interactions``
writes smoothed sensitivity curves, and ``drop-refit`` re-runs ``fit``
with named features removed.

Every figure is an SVG with a sibling CSV holding the exact plotted
numbers. One ``--seed`` drives all randomness through named substreams,
so re-running a command reproduces its outputs byte for byte. Exit codes:
0 success, 2 configuration error, 3 data/IO error, 4 numeric failure.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as data_mod
from . import svg
from .errors import ConfigError, DataError, NumericError
from .families import fit_glm, fit_null, get_family
from .interpret import MIN_CURVE_ROWS, interaction_profiles, selection_report, variable_importance
from .linalg import rng_stream
from .model import ModelSpec, attention, load_model, save_model
from .train import TrainConfig, evaluate_loss, fit

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_kv(path, pairs):
    _write(path, "".join(f"{k} = {v}\n" for k, v in pairs))


def _glm_columns(dataset):
    """Columns of the GLM baseline: standardized columns plus one-hot groups
    with a dropped reference level (full one-hot is deliberately not full rank)."""
    kept = [j for idx in dataset.groups.values() for j in idx[1:]]
    return sorted(dataset.standardized + kept)


def cmd_synth(args):
    os.makedirs(args.out_dir, exist_ok=True)
    rng = rng_stream(args.seed, "datagen")
    learn, test = data_mod.synth_generate(args.n_learn, args.n_test, rng)
    data_mod.write_csv(learn, os.path.join(args.out_dir, "learn.csv"))
    data_mod.write_csv(test, os.path.join(args.out_dir, "test.csv"))
    pairs = [("seed", args.seed), ("n_learn", args.n_learn), ("n_test", args.n_test)]
    for tag, ds in (("learn", learn), ("test", test)):
        corr = float(np.corrcoef(ds.X[:, 1], ds.X[:, 7])[0, 1])
        pairs.append((f"{tag}_corr_x2_x8", repr(corr)))
        pairs.append((f"{tag}_var_y", repr(float(ds.y.var()))))
        pairs.append((f"{tag}_max_abs_feature_mean", repr(float(np.abs(ds.X.mean(0)).max()))))
    _write_kv(os.path.join(args.out_dir, "manifest.txt"), pairs)
    return 0


def _fit_pipeline(args, schema):
    os.makedirs(args.out_dir, exist_ok=True)
    config = data_mod.read_config(args.train_config, TrainConfig)
    if args.seed is not None:
        config.seed = args.seed
    learn = data_mod.load_csv(args.learn, schema)
    test = None
    if args.test:
        test = data_mod.load_csv(args.test, _pin_levels(schema, learn.feature_names,
                                                        learn.groups))
    control = args.add_control
    if control != "none":
        learn = data_mod.add_control(learn, control, rng_stream(config.seed, "control-learn"))
        if test is not None:
            test = data_mod.add_control(test, control, rng_stream(config.seed, "control-test"))
    spec = data_mod.read_config(args.spec, ModelSpec, q=learn.q)
    family = get_family(spec.family)
    if family.name == "poisson":
        for path, ds in ((args.learn, learn), (args.test, test)):
            if ds is not None and np.any(ds.y < 0.0):
                bad = int(np.argmax(ds.y < 0.0))
                raise DataError(f"{path}: row {bad + 1}, column {schema.response!r}: "
                                f"Poisson response must be >= 0, got {ds.y[bad]!r}")
        if not np.any(learn.y > 0.0):
            raise DataError(f"{args.learn}: column {schema.response!r}: every Poisson response "
                            "is 0, so the null and GLM means would be 0")

    def row(name, loss_of):
        """Loss-table row: in-sample, then out-of-sample when a test set is given."""
        return [name] + [repr(loss_of(ds)) for ds in (learn, test) if ds is not None]

    rows = []
    if args.synthetic_truth:
        if learn.feature_names[:8] != [f"x{j}" for j in range(1, 9)]:
            raise ConfigError("--synthetic-truth needs feature columns x1..x8")
        rows.append(row("true", lambda ds: family.loss(ds.y, data_mod.true_mu(ds.X[:, :8]))))

    # Standardizing rebinds learn and test, so no raw copy is held from here on.
    learn, std_params = data_mod.standardize(learn)
    test = data_mod.apply_standardize(test, std_params) if test is not None else None
    null_value = fit_null(learn.y, learn.v, family)
    rows.append(row("null", lambda ds: family.loss(
        ds.y, ds.v * null_value if family.uses_exposure else np.full(ds.n, null_value))))

    cols = _glm_columns(learn)
    glm = fit_glm(learn.X[:, cols], learn.y, learn.v, family,
                  column_names=[learn.feature_names[j] for j in cols])
    rows.append(row("glm", lambda ds: family.loss(
        ds.y, glm.predict(ds.X[:, _glm_columns(ds)], ds.v))))

    params, history = fit(learn, spec, config)
    rows.append(row("localglmnet", lambda ds: evaluate_loss(params, spec, ds)))

    header = ["model", "in_sample"] + (["out_of_sample"] if test is not None else [])
    if test is None:
        print("warning: no test file given; loss table is in-sample only", file=sys.stderr)
    data_mod.write_rows(os.path.join(args.out_dir, "losses.csv"), header, rows)
    history.write_csv(os.path.join(args.out_dir, "history.csv"))
    preprocess = {
        "standardize": std_params.to_dict(),
        "feature_names": list(learn.feature_names),
        "feature_kinds": list(learn.feature_kinds),
        "groups": {k: list(v) for k, v in learn.groups.items()},
        "control": args.add_control,
    }
    save_model(os.path.join(args.out_dir, "model.json"), spec, params, preprocess)
    return 0


def cmd_fit(args):
    return _fit_pipeline(args, data_mod.load_schema(args.schema))


def cmd_drop_refit(args):
    dropped = [s.strip() for s in args.drop.split(",") if s.strip()]
    if not dropped:
        raise ConfigError("--drop needs at least one column name")
    schema = data_mod.load_schema(args.schema).drop(dropped)
    return _fit_pipeline(args, schema)


def _pin_levels(schema, feature_names, groups):
    """``schema`` with each categorical column it leaves unpinned pinned to the
    levels of an encoded dataset's ``feature_names`` and ``groups``, so another
    CSV gets the same one-hot columns whatever order its levels appear in."""
    levels = data_mod.group_levels(feature_names, groups)
    return data_mod.Schema([replace(c, levels=levels.get(c.name))
                            if c.kind == "categorical" and c.levels is None else c
                            for c in schema.columns])


def _report_dataset(args, preprocess):
    """Load and encode a CSV the way the model's training data was encoded,
    with its categorical levels pinned to the training levels."""
    names = preprocess["feature_names"]
    schema = _pin_levels(data_mod.load_schema(args.schema), names, preprocess["groups"])
    dataset = data_mod.load_csv(args.data, schema)
    control_dist = preprocess.get("control", "none")
    if control_dist != "none":
        dataset = data_mod.add_control(dataset, control_dist,
                                       rng_stream(args.seed, "control-report"))
    if list(dataset.feature_names) != list(names):
        raise ConfigError(f"--data {args.data}: data columns {dataset.feature_names} do not "
                          f"match the model's training columns {names}")
    std = data_mod.StandardizeParams.from_dict(preprocess["standardize"])
    return data_mod.apply_standardize(dataset, std)


def _load_report_inputs(args, min_sample):
    """``(spec, params, dataset)`` of ``report`` and ``interactions``: checks
    ``--sample`` against ``min_sample``, makes ``--out-dir``, loads the model
    and encodes ``--data`` as its training data was encoded."""
    if args.sample < min_sample:
        raise ConfigError(f"--sample must be >= {min_sample}, got {args.sample}")
    os.makedirs(args.out_dir, exist_ok=True)
    spec, params, preprocess = load_model(args.model)
    if preprocess is None:
        raise ConfigError(f"{args.model}: model file carries no preprocessing block")
    for key in ("feature_names", "groups", "standardize", "standardize.names",
                "standardize.means", "standardize.sds"):
        block, _, sub = key.rpartition(".")
        if sub not in (preprocess[block] if block else preprocess):
            raise ConfigError(f"{args.model}: preprocessing block lacks {key!r}")
    return spec, params, _report_dataset(args, preprocess)


def _subsample(args, n):
    """Row selector for ``--sample``: a seeded draw of that many rows, sorted,
    or every row when it is 0 or at least n (a larger value warns)."""
    if args.sample > n:
        print(f"warning: sample {args.sample} exceeds n={n}; clamped", file=sys.stderr)
    if args.sample == 0 or args.sample >= n:
        return slice(None)
    return np.sort(rng_stream(args.seed, "subsample").choice(n, size=args.sample,
                                                             replace=False))


def cmd_report(args):
    spec, params, dataset = _load_report_inputs(args, min_sample=1)
    if dataset.n < 2:
        raise DataError(f"{args.data}: need at least 2 instances, got {dataset.n}")
    beta = attention(params, spec, dataset.X)
    std_cols = dataset.standardized
    std_names = [dataset.feature_names[j] for j in std_cols]

    control = args.control
    if control is None:
        control = next((name for name, kind in zip(dataset.feature_names, dataset.feature_kinds)
                        if kind == "control"), None)
    if control is None:
        raise ConfigError("no control feature: pass --control or fit with --add-control")
    report = selection_report(beta[:, std_cols], std_names, control, args.alpha)
    report.write_csv(os.path.join(args.out_dir, "selection.csv"))

    importance = variable_importance(beta, dataset.feature_names,
                                     standardized=[j in std_cols for j in range(dataset.q)])
    importance.write_csv(os.path.join(args.out_dir, "importance.csv"))
    order = importance.order
    _write(os.path.join(args.out_dir, "importance.svg"),
           svg.bar_svg([importance.features[j] for j in order],
                       [importance.vi[j] for j in order],
                       title="Variable importance", ylabel="mean |attention|"))

    pick = _subsample(args, dataset.n)
    X_pick, beta_pick = dataset.X[pick], beta[pick]
    guide = [(0.0, "#d62728"), (report.lo, "#17becf"), (report.hi, "#17becf")]
    for kind, values, hlines in (("attention", beta_pick, guide),
                                 ("contribution", beta_pick * X_pick, guide[:1])):
        shown = values[:, std_cols]
        ylim = (float(shown.min()) - 0.05, float(shown.max()) + 0.05)
        for j, name in zip(std_cols, std_names):
            x, v = X_pick[:, j], values[:, j]
            stem = os.path.join(args.out_dir, f"{kind}_{name}")
            data_mod.write_columns(stem + ".csv", [name, kind], [x, v])
            _write(stem + ".svg", svg.scatter_svg(x, v, title=f"{kind.capitalize()}: {name}",
                                                  xlabel=name, ylabel=kind,
                                                  hlines=hlines, ylim=ylim))

    for group, levels in data_mod.group_levels(dataset.feature_names, dataset.groups).items():
        rows, boxes = [], []
        for j, level in zip(dataset.groups[group], levels):
            on = beta[dataset.X[:, j] == 1.0, j]
            if not on.size:  # a training level absent from this CSV
                continue
            summary = np.percentile(on, [0, 25, 50, 75, 100])
            rows.append([level] + [repr(float(s)) for s in summary] + [int(on.size)])
            boxes.append((level, summary))
        data_mod.write_rows(os.path.join(args.out_dir, f"onehot_{group}.csv"),
                            ["level", "whisker_lo", "q1", "median", "q3", "whisker_hi", "n"],
                            rows)
        _write(os.path.join(args.out_dir, f"onehot_{group}.svg"),
               svg.box_svg(boxes, title=f"Attention by level: {group}",
                           ylabel="attention"))
    return 0


def cmd_interactions(args):
    spec, params, dataset = _load_report_inputs(args, min_sample=0)
    X = dataset.X[_subsample(args, dataset.n)]
    if len(X) < MIN_CURVE_ROWS:
        if dataset.n < MIN_CURVE_ROWS:
            raise DataError(f"{args.data}: need at least {MIN_CURVE_ROWS} observations, "
                            f"got {dataset.n}")
        raise ConfigError(f"--sample {args.sample} leaves {len(X)} rows; "
                          f"interaction curves need at least {MIN_CURVE_ROWS}")
    names = dataset.feature_names
    focal = [s.strip() for s in args.focal.split(",")] if args.focal else \
        [names[j] for j in dataset.standardized]
    try:
        profiles = interaction_profiles(params, spec, X, focal, feature_names=names)
    except ValueError as exc:
        if not set(focal) <= set(names):  # an unknown --focal name
            raise
        raise DataError(f"{args.data}: {exc}") from None  # a constant focal column
    for name, profile in zip(focal, profiles):
        profile.write_csv(os.path.join(args.out_dir, f"interaction_{name}.csv"))
        curves = [(k, profile.curves[i]) for i, k in enumerate(profile.feature_names)]
        _write(os.path.join(args.out_dir, f"interaction_{name}.svg"),
               svg.line_svg(profile.grid, curves,
                            title=f"Sensitivities of attention {name}",
                            xlabel=name, ylabel=f"d attention_{name} / d x_k"))
    return 0


def _add_common_fit_args(p):
    p.add_argument("--learn", required=True, help="learning-set CSV")
    p.add_argument("--test", help="test-set CSV (omit for in-sample-only table)")
    p.add_argument("--schema", required=True, help="schema file (name: kind per line)")
    p.add_argument("--spec", required=True, help="model spec file (key = value)")
    p.add_argument("--train-config", required=True, help="training config file (key = value)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (overrides the training config seed)")
    p.add_argument("--add-control", choices=["none", "normal", "uniform"], default="none",
                   help="append an i.i.d. random control feature before fitting")
    p.add_argument("--synthetic-truth", action="store_true",
                   help="add the known synthetic regression surface to the loss table")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="localglmnet",
        description="Train and interpret LocalGLMnet regression models on tabular data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark datasets")
    p.add_argument("--n-learn", type=int, default=100000)
    p.add_argument("--n-test", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit null, GLM and LocalGLMnet; write the loss table")
    _add_common_fit_args(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("drop-refit", help="refit with named feature columns removed")
    _add_common_fit_args(p)
    p.add_argument("--drop", required=True, help="comma-separated schema columns to drop")
    p.set_defaults(func=cmd_drop_refit)

    p = sub.add_parser("report", help="attention/contribution/selection/importance reports")
    p.add_argument("--model", required=True, help="model.json from fit")
    p.add_argument("--data", required=True, help="CSV of instances to report on")
    p.add_argument("--schema", required=True)
    p.add_argument("--alpha", type=float, default=0.001, help="significance level")
    p.add_argument("--control", help="feature column used as the selection control")
    p.add_argument("--sample", type=int, default=5000, help="scatter subsample size")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("interactions", help="smoothed input-Jacobian sensitivity curves")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--focal", help="comma-separated focal features (default: all standardized)")
    p.add_argument("--sample", type=int, default=0, help="cap instances (0 = all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_interactions)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
