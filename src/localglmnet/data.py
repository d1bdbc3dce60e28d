"""Dataset schema, CSV ingestion, encoding, and the synthetic generator.

A schema file maps column names to kinds, one per line::

    x1: continuous
    gas: binary
    brand: categorical(B1, B2, B12)
    y: response
    expo: exposure
    note: ignore

Categorical levels may be pinned in the schema (stable column order across
runs); otherwise they are collected in first-appearance order. Categorical
columns are one-hot encoded with no reference level dropped, so every
level owns a contribution slot. Continuous and binary columns are
standardized with learning-set moments; one-hot columns stay 0/1.
"""

import copy
import csv
import dataclasses
import io
import math
import re
import types
import warnings
from dataclasses import dataclass, replace
from typing import get_args, get_origin

import numpy as np

from .errors import ConfigError, DataError
from .linalg import _row_blocks

__all__ = [
    "ColumnSpec",
    "Schema",
    "Dataset",
    "StandardizeParams",
    "parse_schema",
    "load_schema",
    "read_key_values",
    "read_config",
    "load_csv",
    "write_csv",
    "write_rows",
    "write_columns",
    "group_levels",
    "one_hot",
    "standardize",
    "apply_standardize",
    "add_control",
    "true_mu",
    "synth_schema",
    "synth_generate",
]

KINDS = ("continuous", "binary", "categorical", "response", "exposure", "ignore")

# Feature kinds carried per encoded column. "control" marks appended random
# columns; "onehot" columns are indicators and are never standardized.
STANDARDIZED_KINDS = ("continuous", "binary", "control")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    levels: tuple = None


@dataclass
class Schema:
    columns: list

    def __post_init__(self):
        seen = set()
        responses = [c for c in self.columns if c.kind == "response"]
        exposures = [c for c in self.columns if c.kind == "exposure"]
        for c in self.columns:
            if c.kind not in KINDS:
                raise ConfigError(f"column {c.name!r}: unknown kind {c.kind!r}")
            if c.name in seen:
                raise ConfigError(f"duplicate column {c.name!r} in schema")
            seen.add(c.name)
            if c.levels is not None:
                if c.kind != "categorical":
                    raise ConfigError(f"column {c.name!r}: only categorical columns take levels")
                if len(c.levels) == 0 or len(set(c.levels)) != len(c.levels):
                    raise ConfigError(f"column {c.name!r}: levels must be nonempty and unique")
        if len(responses) != 1:
            raise ConfigError(f"schema needs exactly one response column, found {len(responses)}")
        if len(exposures) > 1:
            raise ConfigError("schema allows at most one exposure column")

    @property
    def response(self) -> str:
        return next(c.name for c in self.columns if c.kind == "response")

    @property
    def exposure(self):
        return next((c.name for c in self.columns if c.kind == "exposure"), None)

    @property
    def feature_columns(self) -> list:
        return [c for c in self.columns if c.kind in ("continuous", "binary", "categorical")]

    def drop(self, names) -> "Schema":
        """Copy of the schema with the given feature columns marked ignore."""
        names = set(names)
        known = {c.name for c in self.columns}
        missing = names - known
        if missing:
            raise ConfigError(f"cannot drop unknown columns: {sorted(missing)}")
        cols = [replace(c, kind="ignore", levels=None) if c.name in names else c
                for c in self.columns]
        return Schema(cols)


_SCHEMA_LINE = re.compile(r"^([^:#]+):\s*([a-z]+)(?:\(([^)]*)\))?\s*$")


def parse_schema(text: str) -> Schema:
    columns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SCHEMA_LINE.match(line)
        if not m:
            raise ConfigError(f"schema line {lineno}: cannot parse {raw!r}")
        name, kind, levels = m.group(1).strip(), m.group(2), m.group(3)
        if levels is not None:
            levels = tuple(s.strip() for s in levels.split(","))
        columns.append(ColumnSpec(name=name, kind=kind, levels=levels))
    return Schema(columns)


def load_schema(path) -> Schema:
    with open(path, encoding="utf-8") as fh:
        return parse_schema(fh.read())


def read_key_values(path) -> dict:
    """Parse a plain ``key = value`` config file ('#' starts a comment; one line per key)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in out:
                raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
            out[key] = value
    return out


def _cast(text: str, kind):
    """Read one config value as the field type ``kind``."""
    if get_origin(kind) is tuple:  # tuple[int, ...]: comma-separated items
        return tuple(get_args(kind)[0](s.strip()) for s in text.split(",") if s.strip())
    if get_origin(kind) is types.UnionType:  # int | None
        kind = get_args(kind)[0]
    if kind is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return text.lower() == "true"
    return kind(text)


def read_config(path, cls, **fixed):
    """Build the dataclass ``cls`` from a ``key = value`` file.

    Each key names a field of ``cls`` other than those in ``fixed``, which
    are passed as given; each value is cast to its field's type. Every error
    (unknown key, uncastable value, value the constructor rejects) raises
    ConfigError naming the file and the key.
    """
    kinds = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in fixed}
    kwargs = dict(fixed)
    for key, text in read_key_values(path).items():
        if key not in kinds:
            raise ConfigError(f"{path}: unknown option {key!r}; expected one of "
                              f"{sorted(kinds)}")
        try:
            kwargs[key] = _cast(text, kinds[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: cannot read {text!r}: {exc}") from None
    try:
        return cls(**kwargs)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class StandardizeParams:
    """Per-column moments learned on the learning split (sample sd, n-1)."""

    names: list
    means: np.ndarray
    sds: np.ndarray

    def to_dict(self) -> dict:
        return {"names": list(self.names), "means": self.means.tolist(),
                "sds": self.sds.tolist()}

    @classmethod
    def from_dict(cls, d) -> "StandardizeParams":
        return cls(names=list(d["names"]), means=np.asarray(d["means"], dtype=float),
                   sds=np.asarray(d["sds"], dtype=float))


@dataclass
class Dataset:
    """Encoded design: responses y, exposures v, feature matrix X.

    ``feature_kinds`` tags every encoded column (continuous / binary /
    onehot / control); ``groups`` maps each categorical source column to
    the indices of its indicator columns.
    """

    X: np.ndarray
    y: np.ndarray
    v: np.ndarray
    feature_names: list
    feature_kinds: list
    groups: dict

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def q(self) -> int:
        return self.X.shape[1]

    @property
    def standardized(self) -> list:
        """Indices of the columns whose kind is in STANDARDIZED_KINDS, in order."""
        return [j for j, k in enumerate(self.feature_kinds) if k in STANDARDIZED_KINDS]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(X=self.X[idx], y=self.y[idx], v=self.v[idx],
                       feature_names=list(self.feature_names),
                       feature_kinds=list(self.feature_kinds),
                       groups={k: list(v) for k, v in self.groups.items()})


def one_hot(values, levels=None, column=None):
    """Indicator matrix for a categorical column, one column per level.

    No reference level is dropped: every row has exactly one 1. When
    ``levels`` is given it pins the column order and unseen values raise,
    naming the row and, when given, the ``column``.
    Returns ``(matrix, levels)``.
    """
    values = list(values)
    levels = tuple(dict.fromkeys(values) if levels is None else levels)
    pos = {lv: j for j, lv in enumerate(levels)}
    try:
        codes = [pos[val] for val in values]
    except KeyError:
        i = next(i for i, val in enumerate(values) if val not in pos)
        where = f"row {i + 1}" + ("" if column is None else f", column {column!r}")
        raise DataError(f"{where}: unknown categorical level {values[i]!r}") from None
    return np.eye(len(levels))[codes], levels


def _parse_float(cell, row, col):
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {row}, column {col!r}: cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}, column {col!r}: {cell!r} is not a finite number")
    return value


def _parse_column(cells, col):
    return np.array([_parse_float(cell, i, col) for i, cell in enumerate(cells, start=1)])


def _body_cells(fh, columns):
    """Cells of the ``(name, index)`` columns in every body row of the open CSV ``fh``.

    Rewinds ``fh`` and reads it with the csv module, skipping the header
    record. Missing cells are reported column by column in the order given,
    then an empty body.
    """
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    cells = {name: [] for name, _ in columns}
    for row in reader:
        for name, j in columns:
            cells[name].append(row[j] if j < len(row) else "")
    for name, col in cells.items():
        if "" in col:
            raise DataError(f"row {col.index('') + 1}, column {name!r}: missing value")
    if not cells[columns[0][0]]:
        raise DataError("no data rows")
    return cells


def _read_numeric(lines, usecols):
    """Parse columns ``usecols`` of the CSV body ``lines`` with one np.loadtxt call.

    ``lines`` is streamed to loadtxt, which never sees the body as one
    string. Returns an (n, len(usecols)) array, or None whenever only the
    per-cell reader can give the exact values or name the faulty cell: a
    quote character, no data lines, a cell loadtxt cannot parse (float()
    also takes ``1_000``), a row count that differs from the body's line
    count (loadtxt skips blank lines) or a non-finite value.
    """
    n_lines, quoted = 0, False

    def counted():
        nonlocal n_lines, quoted
        for line in lines:
            if '"' in line:
                quoted = True
                return
            n_lines += 1
            yield line

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(counted(), delimiter=",", comments=None, usecols=usecols,
                               ndmin=2)
    except UnicodeDecodeError:
        raise  # a ValueError, but no per-cell read can mend it
    except (ValueError, UserWarning):
        return None
    if quoted or n_lines == 0 or block.shape[0] != n_lines or not np.all(np.isfinite(block)):
        return None
    return block


def load_csv(path, schema: Schema) -> Dataset:
    """Read a comma-separated file (header mandatory) against a schema.

    Missing and non-finite values are rejected; cells must parse per the
    column kind. Numeric columns are read by one np.loadtxt call streamed
    from the file; the csv module reads categorical columns, and every
    column when that fast read finds anything amiss, so errors name the
    row and the column. Categorical columns are one-hot encoded here, in
    schema-pinned or first-appearance level order. Every error message
    starts with the path; a file that is not UTF-8 is a DataError too.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataError(f"{path}: empty file (header row required)") from None
            try:
                return _encode_csv([h.strip() for h in header], fh, schema)
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: {_undecodable(path)}") from None


def _undecodable(path) -> str:
    """Where the first byte that is not UTF-8 sits in the file at ``path``.

    Only the error path reads the file again, in binary. The text before
    that byte is valid UTF-8; its csv records, counted as the body parse
    counts them, give the row, so a quoted line break moves no row number.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[:exc.start].decode("utf-8")
        # One more cell stands in for the bad byte: it ends the record the
        # byte sits in, or starts the next one when the byte opens a record.
        row = sum(1 for _ in csv.reader(io.StringIO(before + "-", newline=""))) - 1
        where = f"row {row}" if row else "header"
        return f"{where}: byte 0x{raw[exc.start]:02x} is not valid UTF-8"
    return "not valid UTF-8"  # the file changed after the failed read


def _encode_csv(header, fh, schema):
    """The Dataset of the CSV body left in ``fh`` under ``header``; errors do
    not name the file."""
    missing = [c.name for c in schema.columns if c.kind != "ignore" and c.name not in header]
    if missing:
        raise DataError(f"missing required columns: {missing}")
    col_of = {name: j for j, name in enumerate(header)}
    used = [c for c in schema.columns if c.kind != "ignore"]
    numeric = [c.name for c in used if c.kind != "categorical"]
    block = _read_numeric(fh, [col_of[name] for name in numeric])
    text = [(c.name, col_of[c.name]) for c in used if block is None or c.kind == "categorical"]
    raw = _body_cells(fh, text) if text else {}

    def values(name):
        if block is None:
            return _parse_column(raw[name], name)
        return block[:, numeric.index(name)].copy()

    y = values(schema.response)
    n = len(y)
    exposure = schema.exposure
    if exposure is not None:
        v = values(exposure)
        if np.any(v <= 0):
            bad = int(np.argmax(v <= 0)) + 1
            raise DataError(f"row {bad}, column {exposure!r}: exposure must be > 0")
    else:
        v = np.ones(n)

    cols, names, kinds, groups = [], [], [], {}
    for c in schema.feature_columns:
        if c.kind == "categorical":
            mat, levels = one_hot(raw[c.name], c.levels, c.name)
            groups[c.name] = list(range(len(names), len(names) + len(levels)))
            cols += list(mat.T)
            names += [f"{c.name}={lv}" for lv in levels]  # read back by group_levels
            kinds += ["onehot"] * len(levels)
        else:
            cols.append(values(c.name))
            names.append(c.name)
            kinds.append(c.kind)
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    return Dataset(X=X, y=y, v=v, feature_names=names, feature_kinds=kinds, groups=groups)


def group_levels(feature_names, groups) -> dict:
    """The levels of each categorical column in ``groups``, in column order, read
    off the one-hot names ``column=level`` that ``load_csv`` gives its columns."""
    return {name: tuple(feature_names[j][len(name) + 1:] for j in idx)
            for name, idx in groups.items()}


def write_csv(dataset: Dataset, path) -> None:
    """Write the encoded design, y, and v unless every v is 1, by ``write_columns``."""
    header = list(dataset.feature_names) + ["y"]
    columns = [*dataset.X.T, dataset.y]
    if not np.all(dataset.v == 1.0):
        header.append("v")
        columns.append(dataset.v)
    write_columns(path, header, columns)


def write_rows(path, header, rows) -> None:
    """Write a small CSV table: the header row, then ``rows``, LF line ends.

    Every report, loss and history table goes through here, so they share one
    format.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_columns(path, header, columns) -> None:
    """Write a numeric CSV table: ``header`` through the csv module, as
    ``write_rows`` writes it, then one line per row of the equal-length float
    ``columns``, each cell ``repr`` of its value (a bit-exact round trip),
    formatted EVAL_BLOCK_ROWS rows at a time."""
    line = ",".join(["%r"] * len(columns)) + "\n"
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for rows in _row_blocks(len(columns[0])):
            fh.writelines(map(line.__mod__, zip(*(c[rows].tolist() for c in columns))))


def standardize(dataset: Dataset):
    """Center and scale continuous-like columns to unit sample variance.

    One-hot columns are left as 0/1 indicators. Returns the transformed
    dataset and the learned per-column moments. Constant columns raise
    (mark them ignore in the schema instead).
    """
    idx = dataset.standardized
    names = [dataset.feature_names[j] for j in idx]
    means = np.array([dataset.X[:, j].mean() for j in idx])
    sds = np.array([dataset.X[:, j].std(ddof=1) for j in idx])
    for name, sd in zip(names, sds):
        if not sd > 0:
            raise DataError(f"column {name!r} is constant; mark it 'ignore' in the schema")
    params = StandardizeParams(names=names, means=means, sds=sds)
    return apply_standardize(dataset, params), params


def apply_standardize(dataset: Dataset, params: StandardizeParams) -> Dataset:
    """Apply learned moments (use the learning-set params on test data)."""
    out = copy.deepcopy(dataset)
    for name, mean, sd in zip(params.names, params.means, params.sds):
        j = out.feature_names.index(name)
        out.X[:, j] = (out.X[:, j] - mean) / sd
    return out


def add_control(dataset: Dataset, dist: str, rng: np.random.Generator) -> Dataset:
    """Append an i.i.d. random control column, empirically standardized.

    The control is independent of everything else and calibrates the null
    fluctuation of the fitted attentions. ``dist`` is "uniform" or
    "normal", and the column is named "rand_u" or "rand_n" after it.
    """
    if dist == "uniform":
        col = rng.uniform(0.0, 1.0, size=dataset.n)
    elif dist == "normal":
        col = rng.standard_normal(dataset.n)
    else:
        raise ValueError(f"control distribution must be 'uniform' or 'normal', got {dist!r}")
    col = (col - col.mean()) / col.std(ddof=1)
    name = "rand_u" if dist == "uniform" else "rand_n"
    if name in dataset.feature_names:
        raise ValueError(f"feature column {name!r} already exists")
    return Dataset(
        X=np.column_stack([dataset.X, col]),
        y=dataset.y.copy(),
        v=dataset.v.copy(),
        feature_names=list(dataset.feature_names) + [name],
        feature_kinds=list(dataset.feature_kinds) + ["control"],
        groups={k: list(v) for k, v in dataset.groups.items()},
    )


def true_mu(x: np.ndarray) -> np.ndarray:
    """Synthetic-benchmark regression surface on an 8-vector (or (n, 8) rows).

    mu(x) = x1/2 - x2^2/4 + |x3| sin(2 x3) / 2 + x4 x5 / 2 + x5^2 x6 / 8
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x.reshape(1, -1) if single else x
    if X.shape[1] != 8:
        raise ValueError(f"expected 8 features, got {X.shape[1]}")
    mu = (0.5 * X[:, 0]
          - 0.25 * X[:, 1] ** 2
          + 0.5 * np.abs(X[:, 2]) * np.sin(2.0 * X[:, 2])
          + 0.5 * X[:, 3] * X[:, 4]
          + 0.125 * X[:, 4] ** 2 * X[:, 5])
    return float(mu[0]) if single else mu


def synth_schema() -> Schema:
    cols = [ColumnSpec(name=f"x{j}", kind="continuous") for j in range(1, 9)]
    cols.append(ColumnSpec(name="y", kind="response"))
    return Schema(cols)


def synth_generate(n_learn: int, n_test: int, rng: np.random.Generator):
    """Draw independent learning and test sets from the synthetic benchmark.

    Features are centered unit-variance Gaussians, independent except for
    a 0.5 correlation between x2 and x8, drawn by numpy's Cholesky-method
    multivariate normal sampler; responses are unit-variance
    Gaussians around :func:`true_mu`. The two sets are disjoint draws from
    one stream, so they are independent of each other.
    """
    if n_learn < 1 or n_test < 1:
        raise ValueError("need n_learn >= 1 and n_test >= 1")
    sigma = np.eye(8)
    sigma[1, 7] = sigma[7, 1] = 0.5

    def draw(n):
        X = rng.multivariate_normal(np.zeros(8), sigma, size=n, method="cholesky")
        y = true_mu(X) + rng.standard_normal(n)
        return Dataset(X=X, y=y, v=np.ones(n),
                       feature_names=[f"x{j}" for j in range(1, 9)],
                       feature_kinds=["continuous"] * 8, groups={})

    return draw(n_learn), draw(n_test)
