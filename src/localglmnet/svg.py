"""Minimal deterministic SVG charts: scatter, line, bar, and box plots.

Every chart the command line emits has a sibling CSV holding the exact
plotted numbers; these renderers exist only so results are viewable
without extra dependencies. Coordinates are formatted with fixed
precision, so identical inputs produce identical files.
"""

import math

import numpy as np

__all__ = ["scatter_svg", "line_svg", "bar_svg", "box_svg"]

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _nice_ticks(lo: float, hi: float, n: int = 5):
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        if t + step == t:  # a span of a few ulps: the step no longer moves t
            break
        t += step
    return ticks


class _Axes:
    """Maps data coordinates onto the fixed plot box and draws the frame."""

    def __init__(self, xlo, xhi, ylo, yhi):
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            pad = abs(ylo) * 0.1 + 1.0
            ylo, yhi = ylo - pad, ylo + pad
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi

    def px(self, x):
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.xlo) / (self.xhi - self.xlo) * w

    def py(self, y):
        h = HEIGHT - MARGIN_T - MARGIN_B
        return MARGIN_T + (self.yhi - y) / (self.yhi - self.ylo) * h

    def frame(self, title, xlabel, ylabel):
        parts = [
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="white" stroke="#333"/>'
        ]
        for t in _nice_ticks(self.xlo, self.xhi):
            if self.xlo <= t <= self.xhi:
                x = self.px(t)
                parts.append(f'<line x1="{_fmt(x)}" y1="{HEIGHT - MARGIN_B}" '
                             f'x2="{_fmt(x)}" y2="{HEIGHT - MARGIN_B + 4}" stroke="#333"/>')
                parts.append(f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 18}" '
                             f'text-anchor="middle" font-size="11">{t:g}</text>')
        for t in _nice_ticks(self.ylo, self.yhi):
            if self.ylo <= t <= self.yhi:
                y = self.py(t)
                parts.append(f'<line x1="{MARGIN_L - 4}" y1="{_fmt(y)}" '
                             f'x2="{MARGIN_L}" y2="{_fmt(y)}" stroke="#333"/>')
                parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" '
                             f'text-anchor="end" font-size="11">{t:g}</text>')
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle" '
                     f'font-size="12">{xlabel}</text>')
        parts.append(f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
                     f'font-size="12" transform="rotate(-90 16 {HEIGHT / 2:.0f})">{ylabel}</text>')
        return parts


def _document(body) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n')
    return head + "\n".join(body) + "\n</svg>\n"


def _span(values, pad_frac=0.05):
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    pad = (hi - lo) * pad_frac or max(abs(lo), 1.0) * pad_frac
    return lo - pad, hi + pad


def scatter_svg(x, y, title="", xlabel="", ylabel="", hlines=(), ylim=None) -> str:
    """Scatter plot with optional horizontal guide lines (value, color) pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xlo, xhi = _span(x)
    if ylim is not None:
        ylo, yhi = ylim
    else:
        ylo, yhi = _span(np.r_[y, [h for h, _ in hlines]] if hlines else y)
    ax = _Axes(xlo, xhi, ylo, yhi)
    body = ax.frame(title, xlabel, ylabel)
    for value, color in hlines:
        if ax.ylo <= value <= ax.yhi:
            yy = ax.py(value)
            body.append(f'<line x1="{MARGIN_L}" y1="{_fmt(yy)}" x2="{WIDTH - MARGIN_R}" '
                        f'y2="{_fmt(yy)}" stroke="{color}" stroke-width="1.5"/>')
    keep = (ax.ylo <= y) & (y <= ax.yhi)  # False on NaN
    dots = "".join(map('<circle cx="%.2f" cy="%.2f" r="1.5"/>'.__mod__,
                       zip(ax.px(x[keep]).tolist(), ax.py(y[keep]).tolist())))
    body.append('<g fill="#1f77b4" fill-opacity="0.45">' + dots + "</g>")
    return _document(body)


def line_svg(grid, curves, title="", xlabel="", ylabel="") -> str:
    """Overlaid line plot over a dashed zero line; ``curves`` is a list of
    (label, values) pairs."""
    grid = np.asarray(grid, dtype=float)
    allvals = np.concatenate([np.asarray(v, dtype=float) for _, v in curves])
    xlo, xhi = float(grid.min()), float(grid.max())
    ylo, yhi = _span(np.r_[allvals, 0.0])
    ax = _Axes(xlo, xhi, ylo, yhi)
    body = ax.frame(title, xlabel, ylabel)
    yy = ax.py(0.0)
    body.append(f'<line x1="{MARGIN_L}" y1="{_fmt(yy)}" x2="{WIDTH - MARGIN_R}" '
                f'y2="{_fmt(yy)}" stroke="#aaa" stroke-dasharray="4 3"/>')
    for i, (label, values) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(map("%.2f,%.2f".__mod__,
                           zip(ax.px(grid).tolist(),
                               ax.py(np.asarray(values, dtype=float)).tolist())))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.8"/>')
        ly = MARGIN_T + 16 + 14 * i
        body.append(f'<line x1="{WIDTH - MARGIN_R - 110}" y1="{ly - 4}" '
                    f'x2="{WIDTH - MARGIN_R - 90}" y2="{ly - 4}" stroke="{color}" '
                    f'stroke-width="2"/>')
        body.append(f'<text x="{WIDTH - MARGIN_R - 84}" y="{ly}" font-size="11">{label}</text>')
    return _document(body)


def bar_svg(labels, values, title="", ylabel="") -> str:
    """Vertical bar chart with one bar per label."""
    values = np.asarray(values, dtype=float)
    ylo = min(0.0, float(values.min()))
    yhi = max(0.0, float(values.max())) * 1.05 or 1.0
    ax = _Axes(0.0, float(len(labels)), ylo, yhi)
    body = ax.frame(title, "", ylabel)
    slot = (WIDTH - MARGIN_L - MARGIN_R) / len(labels)
    for i, (label, value) in enumerate(zip(labels, values)):
        x0 = MARGIN_L + i * slot + 0.15 * slot
        y0 = ax.py(max(value, 0.0))
        h = abs(ax.py(0.0) - ax.py(value))
        body.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(0.7 * slot)}" '
                    f'height="{_fmt(h)}" fill="#1f77b4"/>')
        cx = MARGIN_L + (i + 0.5) * slot
        body.append(f'<text x="{_fmt(cx)}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
                    f'font-size="10">{label}</text>')
    return _document(body)


def box_svg(groups, title="", ylabel="") -> str:
    """Box plot; ``groups`` is a list of (label, five-number-summary) pairs.

    The summary order is (low whisker, first quartile, median, third
    quartile, high whisker).
    """
    stats = [np.asarray(s, dtype=float) for _, s in groups]
    allvals = np.concatenate(stats)
    ylo, yhi = _span(allvals)
    ax = _Axes(0.0, float(len(groups)), ylo, yhi)
    body = ax.frame(title, "", ylabel)
    slot = (WIDTH - MARGIN_L - MARGIN_R) / len(groups)
    for i, ((label, _), s) in enumerate(zip(groups, stats)):
        lo_w, q1, med, q3, hi_w = s
        cx = MARGIN_L + (i + 0.5) * slot
        half = 0.3 * slot
        body.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(ax.py(lo_w))}" x2="{_fmt(cx)}" '
                    f'y2="{_fmt(ax.py(hi_w))}" stroke="#333"/>')
        body.append(f'<rect x="{_fmt(cx - half)}" y="{_fmt(ax.py(q3))}" '
                    f'width="{_fmt(2 * half)}" height="{_fmt(ax.py(q1) - ax.py(q3))}" '
                    f'fill="#9ecae1" stroke="#333"/>')
        body.append(f'<line x1="{_fmt(cx - half)}" y1="{_fmt(ax.py(med))}" '
                    f'x2="{_fmt(cx + half)}" y2="{_fmt(ax.py(med))}" stroke="#333" '
                    f'stroke-width="2"/>')
        body.append(f'<text x="{_fmt(cx)}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
                    f'font-size="10">{label}</text>')
    return _document(body)
