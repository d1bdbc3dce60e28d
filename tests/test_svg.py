import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from localglmnet import svg
from localglmnet.svg import bar_svg, box_svg, line_svg, scatter_svg


# Reference copies of the per-point renderers that format one np.float64 at a
# time; the whole-array renderers must write the same bytes.
def per_point_scatter_svg(x, y, title="", xlabel="", ylabel="", hlines=(), ylim=None):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xlo, xhi = svg._span(x)
    if ylim is not None:
        ylo, yhi = ylim
    else:
        ylo, yhi = svg._span(np.r_[y, [h for h, _ in hlines]] if hlines else y)
    ax = svg._Axes(xlo, xhi, ylo, yhi)
    body = ax.frame(title, xlabel, ylabel)
    for value, color in hlines:
        if ax.ylo <= value <= ax.yhi:
            yy = ax.py(value)
            body.append(f'<line x1="{svg.MARGIN_L}" y1="{svg._fmt(yy)}" '
                        f'x2="{svg.WIDTH - svg.MARGIN_R}" '
                        f'y2="{svg._fmt(yy)}" stroke="{color}" stroke-width="1.5"/>')
    dots = [f'<circle cx="{svg._fmt(ax.px(xi))}" cy="{svg._fmt(ax.py(yi))}" r="1.5"/>'
            for xi, yi in zip(x, y)
            if ax.ylo <= yi <= ax.yhi]
    body.append('<g fill="#1f77b4" fill-opacity="0.45">' + "".join(dots) + "</g>")
    return svg._document(body)


def per_point_line_svg(grid, curves, title="", xlabel="", ylabel=""):
    grid = np.asarray(grid, dtype=float)
    allvals = np.concatenate([np.asarray(v, dtype=float) for _, v in curves])
    xlo, xhi = float(grid.min()), float(grid.max())
    ylo, yhi = svg._span(np.r_[allvals, 0.0])
    ax = svg._Axes(xlo, xhi, ylo, yhi)
    body = ax.frame(title, xlabel, ylabel)
    yy = ax.py(0.0)
    body.append(f'<line x1="{svg.MARGIN_L}" y1="{svg._fmt(yy)}" '
                f'x2="{svg.WIDTH - svg.MARGIN_R}" '
                f'y2="{svg._fmt(yy)}" stroke="#aaa" stroke-dasharray="4 3"/>')
    for i, (label, values) in enumerate(curves):
        color = svg.PALETTE[i % len(svg.PALETTE)]
        pts = " ".join(f"{svg._fmt(ax.px(g))},{svg._fmt(ax.py(v))}"
                       for g, v in zip(grid, np.asarray(values, dtype=float)))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.8"/>')
        ly = svg.MARGIN_T + 16 + 14 * i
        body.append(f'<line x1="{svg.WIDTH - svg.MARGIN_R - 110}" y1="{ly - 4}" '
                    f'x2="{svg.WIDTH - svg.MARGIN_R - 90}" y2="{ly - 4}" stroke="{color}" '
                    f'stroke-width="2"/>')
        body.append(f'<text x="{svg.WIDTH - svg.MARGIN_R - 84}" y="{ly}" '
                    f'font-size="11">{label}</text>')
    return svg._document(body)


def outcome(render, *args, **kwargs):
    """The document, or the type of the error raised (no points has no span)."""
    try:
        return render(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        return type(exc)


# Each example draws its values at one scale, from 1e-300 to 1e300, so that
# the span of a plot stays finite; -0.0, 0.0 and +-1e-300 ride along.
SCALES = (1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300 / 4)


@st.composite
def values_at_scale(draw, min_size=0, nan=False):
    scale = draw(st.sampled_from(SCALES))
    cell = st.one_of(st.floats(-2.0, 2.0).map(lambda m: m * scale),
                     st.sampled_from([0.0, -0.0, 1e-300, -1e-300]))
    if nan:
        cell = st.one_of(cell, st.just(math.nan))
    return draw(st.lists(cell, min_size=min_size, max_size=300))


@st.composite
def scatter_args(draw):
    x = draw(values_at_scale())
    n = len(x)
    y = draw(values_at_scale(min_size=n, nan=True))[:n]
    finite = sorted(v for v in y if not math.isnan(v))
    ylim = None
    if finite and draw(st.booleans()):
        # Both edges are values of y, so points lie exactly on each edge.
        lo = draw(st.sampled_from(finite))
        ylim = (lo, draw(st.sampled_from([v for v in finite if v >= lo])))
    hlines = [(h, "#d62728") for h in draw(st.lists(st.sampled_from(finite), max_size=3))] \
        if finite else []
    return np.array(x), np.array(y), ylim, hlines


@st.composite
def line_args(draw):
    grid = draw(values_at_scale())
    n = len(grid)
    curves = [(f"c{i}", np.array(draw(values_at_scale(min_size=n, nan=True))[:n]))
              for i in range(draw(st.integers(1, 3)))]
    return np.array(grid), curves


class TestWholeArrayRenderersKeepTheBytes:
    @settings(max_examples=100, deadline=None)
    @given(scatter_args())
    @example((np.array([]), np.array([]), None, []))
    @example((np.array([-0.0]), np.array([math.nan]), None, []))
    @example((np.array([0.5]), np.array([-0.0]), (-0.0, 0.0), []))
    @example((np.array([1.0, 2.0, 3.0]), np.array([1e300, -1e300, 1e-300]), (-1e300, 1e300), []))
    def test_scatter_matches_the_per_point_renderer(self, args):
        x, y, ylim, hlines = args
        got = outcome(scatter_svg, x, y, title="t", xlabel="x", ylabel="y",
                      hlines=hlines, ylim=ylim)
        assert got == outcome(per_point_scatter_svg, x, y, title="t", xlabel="x",
                              ylabel="y", hlines=hlines, ylim=ylim)

    @settings(max_examples=100, deadline=None)
    @given(line_args())
    @example((np.array([]), [("c", np.array([]))]))
    @example((np.array([-0.0]), [("c", np.array([-0.0]))]))
    def test_line_matches_the_per_point_renderer(self, args):
        grid, curves = args
        got = outcome(line_svg, grid, curves, title="t", xlabel="x", ylabel="y")
        assert got == outcome(per_point_line_svg, grid, curves, title="t",
                              xlabel="x", ylabel="y")

    def test_span_of_a_few_ulps_draws_its_ticks(self):
        # The tick step is below half an ulp of x, so adding it leaves the tick
        # where it is; the tick loop has to stop on that.
        doc = scatter_svg([1.0, 1.0000000000000002], [0.0, 1.0])
        assert doc.count("<circle") == 2


class TestScatter:
    def test_structure_and_determinism(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, -1.0, 0.5])
        doc1 = scatter_svg(x, y, title="t", xlabel="x", ylabel="y",
                           hlines=[(0.0, "#d62728")])
        doc2 = scatter_svg(x, y, title="t", xlabel="x", ylabel="y",
                           hlines=[(0.0, "#d62728")])
        assert doc1 == doc2
        assert doc1.startswith("<svg")
        assert doc1.rstrip().endswith("</svg>")
        assert doc1.count("<circle") == 3
        assert "#d62728" in doc1

    def test_ylim_clips_points(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.5, 99.0, np.nan])
        doc = scatter_svg(x, y, ylim=(0.0, 1.0))
        assert doc.count("<circle") == 1


class TestLine:
    def test_one_polyline_per_curve(self):
        grid = np.linspace(0, 1, 50)
        doc = line_svg(grid, [("a", np.sin(grid)), ("b", np.cos(grid))])
        assert doc.count("<polyline") == 2
        assert ">a</text>" in doc and ">b</text>" in doc


class TestBar:
    def test_one_rect_per_label(self):
        doc = bar_svg(["u", "v", "w"], [0.3, 0.1, 0.2], title="imp")
        # One frame rect, one background rect, three bars.
        assert doc.count("<rect") == 5
        assert ">u</text>" in doc


class TestBox:
    def test_quartile_boxes(self):
        doc = box_svg([("A", (0.0, 1.0, 2.0, 3.0, 4.0)),
                       ("B", (-1.0, 0.0, 0.5, 1.0, 2.0))])
        assert doc.count("<rect") == 4  # background + frame + 2 boxes
        assert ">A</text>" in doc and ">B</text>" in doc
