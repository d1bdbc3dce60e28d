"""Variable selection, variable importance, and interaction profiling.

The selection test calibrates the null fluctuation of fitted attentions
from a control feature: the band +/- q(alpha/2) * s_control around zero
should cover all attentions of a feature that contributes nothing. A
feature whose attentions escape the band more often than the significance
level allows is kept. Interactions are read off the input Jacobians
d beta_j / d x_k, smoothed against x_j with a penalized cubic B-spline.
"""

from dataclasses import dataclass

import numpy as np

from .data import write_columns, write_rows
from .linalg import _row_blocks
from .model import ModelSpec, Params, _as_input, batch_input_jacobian

__all__ = [
    "selection_stats",
    "interval",
    "coverage_and_verdict",
    "SelectionRow",
    "SelectionReport",
    "selection_report",
    "ImportanceReport",
    "variable_importance",
    "smooth_curve",
    "InteractionProfile",
    "interaction_profiles",
]

# A feature is droppable when its outside-band fraction stays within this
# multiple of alpha; the raw coverage is always reported alongside.
DROP_MARGIN = 2.0

# Interior knot count, roughness penalty weight and number of grid points
# of every smoothed curve.
N_KNOTS = 20
SMOOTHING = 1.0
GRID_SIZE = 200
DEGREE = 3  # cubic splines
MIN_CURVE_ROWS = 10  # the fewest sample rows a curve is fitted to


def selection_stats(attention_col: np.ndarray):
    """Mean and sample standard deviation (n-1) of one attention column."""
    col = np.asarray(attention_col, dtype=float)
    if col.size < 2:
        raise ValueError(f"need at least 2 instances, got {col.size}")
    return float(col.mean()), float(col.std(ddof=1))


def interval(alpha: float, sd_control: float):
    """Symmetric null band [q(alpha/2) * s, -q(alpha/2) * s] around zero."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"significance level must be in (0, 1/2), got {alpha}")
    if sd_control < 0.0:
        raise ValueError(f"control sd must be >= 0, got {sd_control}")
    from statistics import NormalDist  # imported here so loading `fit` stays light

    lo = NormalDist().inv_cdf(alpha / 2.0) * sd_control
    return lo, -lo


def coverage_and_verdict(attention_col: np.ndarray, band, alpha: float):
    """Fraction of attentions inside the band and the keep/drop verdict.

    Verdict "keep" (reject the no-effect hypothesis) when the outside
    fraction exceeds DROP_MARGIN * alpha, else "droppable".
    """
    lo, hi = band
    if hi < lo:
        raise ValueError(f"invalid interval ({lo}, {hi})")
    col = np.asarray(attention_col, dtype=float)
    inside = (col >= lo) & (col <= hi)
    coverage = float(np.mean(inside))
    outside = float(np.mean(~inside))  # not 1 - coverage: keep the boundary exact
    verdict = "droppable" if outside <= DROP_MARGIN * alpha else "keep"
    return coverage, verdict


@dataclass
class SelectionRow:
    feature: str
    mean: float
    sd: float
    coverage: float
    verdict: str


@dataclass
class SelectionReport:
    rows: list
    control: str
    alpha: float
    lo: float
    hi: float
    control_sd: float

    def verdict_of(self, feature: str) -> str:
        for row in self.rows:
            if row.feature == feature:
                return row.verdict
        raise KeyError(f"no feature {feature!r} in report")

    def write_csv(self, path) -> None:
        write_rows(path, ["feature", "mean", "sd", "coverage", "verdict",
                          "interval_lo", "interval_hi", "control", "alpha"],
                   [[r.feature, repr(r.mean), repr(r.sd), repr(r.coverage), r.verdict,
                     repr(self.lo), repr(self.hi), self.control, repr(self.alpha)]
                    for r in self.rows])


def selection_report(attentions: np.ndarray, feature_names, control: str,
                     alpha: float = 0.001) -> SelectionReport:
    """Per-feature selection statistics against a named control column."""
    attentions = np.asarray(attentions, dtype=float)
    names = list(feature_names)
    if control not in names:
        raise ValueError(f"control feature {control!r} not among {names}")
    _, sd_control = selection_stats(attentions[:, names.index(control)])
    lo, hi = interval(alpha, sd_control)
    rows = []
    for j, name in enumerate(names):
        mean, sd = selection_stats(attentions[:, j])
        coverage, verdict = coverage_and_verdict(attentions[:, j], (lo, hi), alpha)
        rows.append(SelectionRow(feature=name, mean=mean, sd=sd,
                                 coverage=coverage, verdict=verdict))
    return SelectionReport(rows=rows, control=control, alpha=alpha, lo=lo, hi=hi,
                           control_sd=sd_control)


@dataclass
class ImportanceReport:
    features: list
    vi: np.ndarray
    order: list  # feature indices sorted by decreasing importance
    flagged: list  # features on a 0/1 (non-standardized) scale

    def write_csv(self, path) -> None:
        write_rows(path, ["feature", "importance", "standardized_scale"],
                   [[self.features[j], repr(float(self.vi[j])),
                     int(self.features[j] not in self.flagged)] for j in self.order])


def variable_importance(attentions: np.ndarray, feature_names=None,
                        standardized=None) -> ImportanceReport:
    """Mean absolute attention per feature, sorted by decreasing value.

    Importances compare across features only when those features live on
    one scale; columns marked non-standardized (e.g. one-hot indicators)
    are included but flagged.
    """
    attentions = np.asarray(attentions, dtype=float)
    q = attentions.shape[1]
    names = list(feature_names) if feature_names is not None else [f"x{j + 1}" for j in range(q)]
    vi = np.mean(np.abs(attentions), axis=0)
    order = list(np.argsort(-vi, kind="stable"))
    flagged = []
    if standardized is not None:
        flagged = [names[j] for j in range(q) if not standardized[j]]
    return ImportanceReport(features=names, vi=vi, order=order, flagged=flagged)


def _greville(knots: np.ndarray, degree: int) -> np.ndarray:
    return np.array([knots[j + 1: j + degree + 1].mean()
                     for j in range(len(knots) - degree - 1)])


def _place_knots(x: np.ndarray, name: str = "x") -> np.ndarray:
    """Knot vector of the smoother on the sample x: N_KNOTS interior knots at
    empirical quantiles, and min x and max x each repeated DEGREE + 1 times.
    ``name`` stands for x in the error message of a non-finite or constant sample."""
    if x.size < MIN_CURVE_ROWS:
        raise ValueError(f"need at least {MIN_CURVE_ROWS} observations, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has a non-finite value; cannot fit a curve")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise ValueError(f"{name} is constant; cannot fit a curve")
    qs = np.linspace(0.0, 1.0, N_KNOTS + 2)[1:-1]
    interior = np.unique(np.quantile(x, qs))
    interior = interior[(interior > lo) & (interior < hi)]
    return np.r_[[lo] * (DEGREE + 1), interior, [hi] * (DEGREE + 1)]


def _design(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Dense (n, n_basis) cubic B-spline basis at x, by de Boor's recursion
    (de Boor 1972) over all rows at once, in the operation order of FITPACK's
    ``fpbspl`` (Dierckx), whose bytes the tests check. The interior knots are
    unique, so ``xb > xa`` in every division."""
    n_basis = knots.size - DEGREE - 1
    ell = np.clip(np.searchsorted(knots, x, side="right") - 1, DEGREE, n_basis - 1)
    # The recursion reads the knots at offsets 1 - DEGREE .. DEGREE from ell;
    # gather each once.
    at = {d: knots[ell + d] for d in range(1 - DEGREE, DEGREE + 1)}
    h = np.zeros((x.size, DEGREE + 1))
    h[:, 0] = 1.0
    for j in range(1, DEGREE + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            xa, xb = at[m - j], at[m]
            w = hh[:, m - 1] / (xb - xa)
            h[:, m - 1] += w * (xb - x)
            h[:, m] = w * (x - xa)
    B = np.zeros((x.size, n_basis))
    # + 0.0 turns the -0.0 of an x = -0.0 on a knot at 0 into 0.0, as a
    # sparse basis added into a dense zero matrix does.
    np.put_along_axis(B, ell[:, None] + np.arange(-DEGREE, 1), h + 0.0, axis=1)
    return B


def _add_block(normal: list, knots: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Add one block's ``B^T B`` and ``B^T y`` to the normal equations ``normal``,
    the list ``[B^T B, B^T y]`` summed over the blocks so far; callers start it
    at ``[0.0, 0.0]``, so the first block is added like every other."""
    B = _design(x, knots)
    normal[0] += B.T @ B
    normal[1] += B.T @ y


def _solve(knots: np.ndarray, normal) -> tuple:
    """``(grid, values)`` of the penalized fit with the summed normal equations."""
    g = _greville(knots, DEGREE)
    dg = np.diff(g)
    # The P-spline difference penalty (Eilers & Marx 1996) on divided
    # differences: each first difference is scaled by the mean spacing over
    # its own, so D is the plain second difference at uniform spacing.
    D = np.diff(np.diff(np.eye(g.size), axis=0) * (dg.mean() / dg)[:, None], axis=0)
    lhs = normal[0] + SMOOTHING * (D.T @ D)
    rhs = normal[1]
    try:
        coef = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    grid = np.linspace(knots[0], knots[-1], GRID_SIZE)
    values = _design(grid, knots) @ coef
    return grid, values


def smooth_curve(x: np.ndarray, y: np.ndarray):
    """Penalized cubic B-spline regression of y on x, evaluated on a grid.

    N_KNOTS interior knots sit at empirical quantiles of x. The roughness
    penalty is on divided second differences of the coefficients over the
    Greville sites (scaled to match plain second differences at uniform
    spacing), so constants and straight lines are reproduced exactly for
    any knot layout. ``y`` is a vector or an (n, m) matrix of m responses, which
    share one design and one solve. Returns ``(grid, values)`` over
    [min x, max x], with values shaped (GRID_SIZE,) or (GRID_SIZE, m).
    The fit is the one-block case of the blocked fit in interaction_profiles.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[0] != x.size:
        raise ValueError("x must be a vector and y a vector or matrix with one row per x")
    if not np.isfinite(y).all():
        raise ValueError("y has a non-finite value; cannot fit a curve")
    knots = _place_knots(x)
    normal = [0.0, 0.0]
    _add_block(normal, knots, x, y)
    return _solve(knots, normal)


@dataclass
class InteractionProfile:
    """Smoothed sensitivities of one attention component.

    ``curves[k]`` is the smoothed d beta_focal / d x_k regressed on the
    focal feature's values, evaluated on ``grid``.
    """

    focal: str
    feature_names: list
    grid: np.ndarray
    curves: np.ndarray  # (q, len(grid))

    def write_csv(self, path) -> None:
        write_columns(path, [self.focal] + [f"d_{self.focal}_d_{k}" for k in self.feature_names],
                      [self.grid, *self.curves])


def interaction_profiles(params: Params, spec: ModelSpec, X: np.ndarray, focal,
                         feature_names=None) -> list:
    """Input-Jacobian sensitivities of the focal attentions, each smoothed
    against its own feature.

    ``focal`` is a sequence of feature names; one InteractionProfile is
    returned per name, in the order given. The Jacobian is evaluated once per
    row, EVAL_BLOCK_ROWS rows at a time, and each block is added to the
    smoother of every focal feature, whose knots come from its whole column.
    A flat curve for k == focal means the focal term is linear; a nonzero
    curve for k != focal reveals an interaction between the two features.
    """
    if isinstance(focal, str):
        raise TypeError(f"focal must be a sequence of feature names, not the str {focal!r}")
    X = _as_input(spec, X)
    names = list(feature_names) if feature_names is not None else \
        [f"x{j + 1}" for j in range(spec.q)]
    for name in focal:
        if name not in names:
            raise ValueError(f"unknown focal feature {name!r}")
    cols = [names.index(name) for name in focal]
    knots = [_place_knots(X[:, j], f"column {name!r}") for name, j in zip(focal, cols)]
    normal = [[0.0, 0.0] for _ in cols]
    for rows in _row_blocks(X.shape[0]):
        jac = batch_input_jacobian(params, spec, X[rows])  # (b, q, q)
        for f, j in enumerate(cols):
            _add_block(normal[f], knots[f], X[rows, j], jac[:, j, :])
    profiles = []
    for name, k, eq in zip(focal, knots, normal):
        grid, values = _solve(k, eq)
        profiles.append(InteractionProfile(focal=name, feature_names=names,
                                           grid=grid, curves=values.T))
    return profiles
