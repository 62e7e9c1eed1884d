import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from hoferbilliards import c0_distance, regular_polygon, unit_square
from hoferbilliards import smoothing as sm
from hoferbilliards.billiard import forward_chord, map_jacobian
from hoferbilliards.curves import FourierTable, PolygonBoundary, PolygonSpec, build_fourier_table
from hoferbilliards.errors import InvalidWidth, MarkInCorner
from hoferbilliards.homotopy import path_geometric_length, simpson_nodes

from conftest import sampled_support


@pytest.fixture(scope="module")
def square_family():
    return sm.family_from_polygon(unit_square())


def test_profile_matches_corner_outside_width():
    p = sm.make_profile(1.0, 0.01)
    assert p.f(0.02) == pytest.approx(0.02, abs=1e-15)
    assert p.f(-0.015) == pytest.approx(0.015, abs=1e-15)
    assert abs(p.f(0.01) - 0.01) < 1e-12
    assert p.f(0.0) > 0


# (function, its stated derivative, slope, width, step, bound).  The fine
# steps see the slopes of the mollifier tables: on this grid, slopes
# estimated from the node values left f' - df at up to 1.3e-6 and df' - ddf
# at 9.4e-8 of max ddf; the exact slopes leave 2.5e-10 and 1.7e-9.  The
# bound on df' - ddf is relative to max ddf
_PROFILE_DERIVATIVES = [
    ("f", "df", 1.3, 0.008, 1e-6, 1e-5),
    ("f", "df", 1.0, 0.01, 1e-8, 1e-8),
    ("f", "df", 1.3, 0.008, 1e-8, 1e-8),
    ("df", "ddf", 1.0, 0.01, 1e-9, 1e-8),
    ("df", "ddf", 1.3, 0.008, 1e-9, 1e-8),
]


def test_profile_convex_and_smooth():
    for fn, dfn, slope, width, h, bound in _PROFILE_DERIVATIVES:
        p = sm.make_profile(slope, width)
        x = np.linspace(-1.5 * width, 1.5 * width, 2001)
        assert np.all(p.ddf(x) >= 0)
        # derivative consistency by central differences
        g, dg = getattr(p, fn), getattr(p, dfn)
        err = np.abs((g(x + h) - g(x - h)) / (2 * h) - dg(x))
        if dfn == "ddf":
            # the cumulative rule leaves Phi(0) = 1/2 + 1.2e-13, so df jumps
            # by 4 slope (Phi(0) - 1/2) at the apex, where a difference
            # across it reads that jump over 2h
            jump = p.df(np.array([h, -h]) * 1e-6)
            assert jump[0] == -jump[1] and abs(jump[0]) < 1e-12 * slope
            err = err[np.abs(x) >= h] / np.abs(dg(x)).max()
        assert err.max() < bound, (fn, slope, width, h)


# The mollifier's reference: 40 panels of 200 Gauss-Legendre nodes from -1
# (or 0) to each point, numpy only and independent of the cumulative rule
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(200)


def _bump(t):
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _gauss_legendre(g, lo, hi, panels=40):
    edges = lo + (np.asarray(hi, dtype=float)[:, None] - lo) * np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges, axis=1)
    t = (edges[:, :-1] + half)[..., None] + half[..., None] * _GL_NODES
    return (half * (g(t) @ _GL_WEIGHTS)).sum(axis=1)


def test_mollifier_tables_match_gauss_legendre():
    # nodes and off-node points; seen 1.3e-12 (Phi), 1.1e-12 (Psi), 4.8e-15
    # (rho) and 2e-15 (first absolute moment).  Slopes estimated from the
    # node values left 2.2e-12, 3.4e-10 and 6.8e-10 on the first three
    m = sm.standard_mollifier()
    rng = np.random.default_rng(0)
    u = np.concatenate([np.linspace(-1.0, 1.0, 257), rng.uniform(-1.0, 1.0, 256)])
    mass = _gauss_legendre(_bump, -1.0, [1.0])[0]
    phi = _gauss_legendre(_bump, -1.0, u) / mass
    psi = _gauss_legendre(lambda t: t * _bump(t), -1.0, u) / mass
    moment = 2.0 * _gauss_legendre(lambda t: t * _bump(t), 0.0, [1.0])[0] / mass
    assert np.abs(m.phi(u) - phi).max() < 5e-12
    assert np.abs(m.psi(u) - psi).max() < 5e-12
    assert np.abs(m.density(u) - _bump(u) / mass).max() < 1e-13
    assert abs(m.abs_moment - moment) < 1e-13


def test_hermite_table_reproduces_a_cubic():
    # values and exact slopes of a cubic determine it on every cell, and the
    # end cells extrapolate it
    x = np.cumsum([0.0, 0.3, 1.1, 0.2, 0.7])
    poly = np.polynomial.Polynomial([0.5, -1.0, 2.0, 0.75])
    u = np.linspace(-0.5, 2.8, 301)
    assert np.abs(sm._Hermite(x, poly(x), poly.deriv()(x))(u) - poly(u)).max() < 1e-12


def test_profile_zero_value_moment():
    m = sm.standard_mollifier()
    p = sm.make_profile(2.0, 0.01)
    assert p.f(0.0) == pytest.approx(2.0 * 0.01 * m.abs_moment, rel=1e-10)


def test_profile_delta_positive():
    fam = sm.family_from_polygon(unit_square(), width=0.01)
    assert np.all(fam.deltas > 0)
    # crude sandwich: the profile graph is shorter than the corner graph but
    # longer than the straight chord between the junctions
    chord = 2 * 0.01
    assert np.all(fam.profile_arcs > chord)
    assert np.all(fam.profile_arcs < 2 * 0.01 * np.hypot(1, 1))


def test_square_corner_slope():
    sq = unit_square()
    fam = sm.family_from_polygon(sq)
    assert np.allclose(fam.slopes, 1.0, atol=1e-12)


def test_invalid_width():
    with pytest.raises(InvalidWidth):
        sm.make_profile(1.0, 0.0)
    with pytest.raises(InvalidWidth):
        sm.family_from_polygon(unit_square(), width=0.2)


def test_mark_in_corner():
    with pytest.raises(MarkInCorner):
        sm.family_from_polygon(unit_square(mark=0.25), width=0.01)


def test_slice_has_length_one(square_family):
    c = square_family.curve(1.0)
    n = 1 << 15
    pts = c.position(np.arange(n) / n)
    poly = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=-1).sum()
    assert abs(poly - 1.0) < 1e-6
    q = np.arange(2048) / 2048
    assert np.abs(np.linalg.norm(c.tangent(q), axis=-1) - 1).max() < 1e-12


def test_affine_length_law(square_family):
    fam = square_family
    # independent length check: dense polyline of the raw curve
    for s in (1.0, 0.5, 0.25):
        n = 1 << 16
        pts = fam._eval([s], np.arange(n) / n, "pos")[0]
        poly = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=-1).sum()
        affine = fam.base_length - s * fam.total_delta
        assert abs(fam.length_at(s) - affine) < 1e-12
        assert abs(poly - affine) < 1e-5


def _layout(fam, s: float):
    """Piece lengths and the mark's arc position of the family at one scale."""
    lengths, mark = fam._rows.layout(np.array([s]))
    return lengths[0, 0], mark[0, 0]


def edge_point_parameter(fam, s: float, edge: int, offset: float) -> float:
    """Parameter of the plane point at ``offset`` along edge ``edge``.

    The point must lie outside the corner neighborhoods at scale s.
    """
    n = fam.n_corners
    if not s * fam.cut[edge] < offset < fam.edge_len[edge] - s * fam.cut[(edge + 1) % n]:
        raise ValueError("point is inside a corner neighborhood")
    lengths, mark = _layout(fam, s)
    arc = lengths[: 2 * edge + 1].sum() + offset - s * fam.cut[edge]
    L = fam.length_at(s)
    return float(np.mod(arc - mark, L) / L)


def test_coincides_with_polygon_outside_corners(square_family):
    fam = square_family
    pb = PolygonBoundary(fam.polygon)
    # plane point at the middle of edge 1 is shared by gamma_s and the polygon
    for s in (1.0, 0.5):
        q = edge_point_parameter(fam, s, 1, fam.edge_len[1] / 2)
        p1 = fam._eval([s], q, "pos")[0]
        mid = 0.5 * (fam.polygon.vertices[1] + fam.polygon.vertices[2])
        assert np.linalg.norm(p1 - mid) < 1e-12


def test_c0_convergence_to_polygon(square_family):
    fam = square_family
    pb = PolygonBoundary(fam.polygon)
    dists = [c0_distance(fam.curve(s), pb, grid=2048) for s in (1.0, 0.5, 0.25, 0.125)]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 5e-4


def test_family_speed_uniformly_bounded(square_family):
    fam = square_family
    scales = [1.0, 0.5, 0.25, 1 / 8, 1 / 16, 1 / 32, 1 / 64]
    speeds = [sm.family_speed(fam, s, q_nodes=2048) for s in scales]
    assert all(np.isfinite(v) for v in speeds)
    # normalization inflates the raw bound by at most |lambda'| R + lambda * C
    lam = fam.scale_factor(1.0)
    raw_bound = fam.edge_speed_bound() + 3.0 * fam.base_length
    assert max(speeds) <= fam.total_delta * 0.5 * lam**2 + lam * raw_bound


def test_edge_point_speed_bound(square_family):
    fam = square_family
    s0 = 0.5
    # quarter point of edge 1 (the midpoint is degenerate for the square)
    q0 = edge_point_parameter(fam, s0, 1, fam.edge_len[1] / 4)
    h = 1e-5
    d = (fam._eval([s0 + h], q0, "pos")[0] - fam._eval([s0 - h], q0, "pos")[0]) / (2 * h)
    assert np.linalg.norm(d) <= fam.edge_speed_bound() + 1e-9


def test_hexagon_speeds_finite():
    fam = sm.family_from_polygon(regular_polygon(6))
    for s in (1.0, 0.25, 1 / 16):
        v = sm.family_speed(fam, s, q_nodes=1024)
        assert np.isfinite(v) and v >= 0


def test_cauchy_tail_convergence(square_family):
    tail = sm.cauchy_tail(square_family, 1.0, q_nodes=2048)
    assert np.all(np.diff(tail.increments) < 0)
    diffs = np.abs(np.diff(tail.corrected))
    assert diffs[-1] < 1e-3 * tail.value
    tail_half = sm.cauchy_tail(square_family, 0.5, q_nodes=2048)
    assert tail_half.value < tail.value
    # crude integral bound on the difference
    vmax = tail.speeds.max()
    assert tail.value - tail_half.value <= vmax * 0.5 + 1e-12


def test_cauchy_tail_stable_under_deeper_grid(square_family):
    t8 = sm.cauchy_tail(square_family, 1.0, levels=8, q_nodes=2048)
    t16 = sm.cauchy_tail(square_family, 1.0, levels=16, q_nodes=2048)
    assert abs(t16.value - t8.value) < 1e-3 * t8.value


def test_independence_gap_zero_for_same_family(square_family):
    gap = sm.profile_independence_gap(square_family, square_family, 0.25, t_nodes=5, q_nodes=512)
    assert gap < 1e-12


def test_independence_slope():
    famA = sm.family_from_polygon(unit_square(), width=0.01)
    famB = sm.family_from_polygon(unit_square(), width=0.005)
    slope, gaps = sm.independence_slope(famA, famB, q_nodes=2048)
    assert 0.9 <= slope <= 1.1
    scales = np.array([0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125])
    ratios = gaps / scales
    assert ratios.max() <= 2.0 * ratios.min()


@st.composite
def _rotated_polygons(draw, max_corners=7):
    """Perimeter-1 n-gons, 3 <= n <= max_corners, near regular and rotated, marked inside an edge."""
    n = draw(st.integers(3, max_corners))
    turn = draw(st.floats(0.0, 2.0 * np.pi))
    jitter = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n)))
    ang = turn + 2.0 * np.pi * (np.arange(n) + jitter) / n
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    lens = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=-1)
    verts /= lens.sum()
    lens /= lens.sum()
    edge = draw(st.integers(0, n - 1))
    mark = lens[:edge].sum() + draw(st.floats(0.3, 0.7)) * lens[edge]
    return PolygonSpec(verts, mark=float(mark))


def _blend(a, b, t):
    """The corner profile (1 - t) a + t b as one profile of its own, from
    closures over the parents; a family of such profiles tabulates its own
    arc lengths from the closure f'."""
    t = float(t)
    return sm.CornerProfile(
        slope=a.slope,
        width=max(a.width, b.width),
        f=lambda x: (1 - t) * a.f(x) + t * b.f(x),
        df=lambda x: (1 - t) * a.df(x) + t * b.df(x),
        ddf=lambda x: (1 - t) * a.ddf(x) + t * b.ddf(x),
    )


def _square_stack(parents, ts):
    """A `_Rows` stack with the rows (1 - t) a + t b of ``parents = (a, b)``,
    or the one profile of ``parents = (a,)``, at every corner of the unit
    square.  Its arc tables, inversion and mixer read only the parents,
    whatever their slope and width; its layout values are not read here."""
    square = sm.family_from_polygon(unit_square())
    ts = np.asarray(ts, dtype=float)
    weights = np.stack([1 - ts, ts], axis=-1) if len(parents) == 2 else np.ones((1, 1))
    return sm._Rows(square, [parents] * square.n_corners, weights)


def _gap_by_scale_then_node(fam_a, fam_b, s, t_nodes, q_nodes):
    """The independence gap as a loop over scales outside and nodes inside,
    one freshly built blended family per (scale, stencil t)."""
    tq, tw = simpson_nodes(t_nodes)
    q = np.arange(q_nodes) / q_nodes
    h = 1.0 / (4.0 * (t_nodes - 1))

    def blend_positions(t):
        profiles = [_blend(a, b, t) for a, b in zip(fam_a.profiles, fam_b.profiles)]
        return sm.SmoothingFamily(fam_a.polygon, profiles).curve(s).position(q)

    total = 0.0
    for t, w in zip(tq, tw):
        if t < h:
            d = (-3.0 * blend_positions(t) + 4.0 * blend_positions(t + h) - blend_positions(t + 2 * h)) / (2 * h)
        elif t > 1.0 - h:
            d = (3.0 * blend_positions(t) - 4.0 * blend_positions(t - h) + blend_positions(t - 2 * h)) / (2 * h)
        else:
            d = (blend_positions(t + h) - blend_positions(t - h)) / (2 * h)
        total += w * float(np.linalg.norm(d, axis=-1).max())
    return total


@pytest.fixture(scope="module")
def width_pair():
    # the family with the wider profiles lies below the narrower one
    return sm.family_from_polygon(unit_square(), width=0.005), sm.family_from_polygon(unit_square(), width=0.01)


def test_independence_gaps_match_per_scale_loop_bitwise(width_pair):
    fam_lo, fam_hi = width_pair
    scales = (0.25, 0.0625, 0.015625)
    _, gaps = sm.independence_slope(fam_lo, fam_hi, scales=scales, t_nodes=5, q_nodes=256)
    ref = [_gap_by_scale_then_node(fam_lo, fam_hi, s, 5, 256) for s in scales]
    assert gaps.tolist() == ref
    # argument order does not matter, and the one-scale entry point agrees
    assert sm.profile_independence_gap(fam_hi, fam_lo, 0.0625, t_nodes=5, q_nodes=256) == ref[1]


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(polygon=_rotated_polygons(), t_nodes=st.sampled_from([5, 17]), swap=st.booleans())
def test_independence_gaps_match_per_family_reference_on_rotated_polygons(polygon, t_nodes, swap):
    # the stacked sweep against one family per stencil t and scale, on
    # corners of unequal slopes, at the landscape grid of 2048 q nodes
    width = min(0.01, float(polygon.edge_lengths.min()) / 4.0)
    fams = [sm.family_from_polygon(polygon, width=width), sm.family_from_polygon(polygon, width=width / 2.0)]
    if swap:
        fams.reverse()
    lower, upper, _ = sm._ordered_families(*fams)
    scales = (0.25, 0.015625)
    _, gaps = sm.independence_slope(*fams, scales=scales, t_nodes=t_nodes, q_nodes=2048)
    ref = [_gap_by_scale_then_node(lower, upper, s, t_nodes, 2048) for s in scales]
    assert gaps.tolist() == ref
    assert sm.profile_independence_gap(fams[1], fams[0], scales[0], t_nodes=t_nodes, q_nodes=2048) == ref[0]


@pytest.mark.parametrize("t", [0.0, 1 / 64, 0.5, 1 - 1 / 64, 1.0], ids=["0", "h", "half", "1-h", "1"])
def test_blend_tables_match_tables_from_the_closures(t):
    # h = 1/64 is the stencil step of the default 17 blend nodes; the stack
    # puts t in the middle row of three
    lower, upper = sm.make_profile(1.3, 0.005), sm.make_profile(1.3, 0.01)
    stack = _square_stack((lower, upper), [0.25, t, 0.75])
    xi, arc = stack.tables[0]
    # a stack of one profile from the blend's closures tabulates its own df
    ref = _square_stack((_blend(lower, upper, t),), [])
    ref_xi, ref_arc = ref.tables[0]
    assert xi.tobytes() == ref_xi.tobytes() and arc[1].tobytes() == ref_arc[0].tobytes()
    assert stack.arcs[1].tobytes() == ref.arcs[0].tobytes()
    arcs = np.linspace(-1e-3, ref_arc[0, -1] + 1e-3, 1001)
    row = np.ones(arcs.size, dtype=np.intp)
    assert stack.xi_of_arc(0, row, arcs).tobytes() == ref.xi_of_arc(0, 0 * row, arcs).tobytes()
    # the mixer gives the closures' values, weight 1 included
    x = np.linspace(-0.012, 0.012, row.size)
    for name in ("f", "df", "ddf"):
        assert stack.profile(0, row, name, x).tobytes() == ref.profile(0, 0 * row, name, x).tobytes()


def _xi_of_arc_by_newton(xi_grid, arc_grid, df, arc):
    """Oracle: the inversion before the direct one, a pchip inverse of the
    arc table as the seed and two Newton steps with the exact derivative
    1/sqrt(1 + f'^2) on the piecewise-linear forward table."""
    w = xi_grid[-1]
    xi = np.clip(PchipInterpolator(arc_grid, xi_grid)(np.clip(arc, 0.0, arc_grid[-1])), -w, w)
    for _ in range(2):
        resid = np.interp(xi, xi_grid, arc_grid) - arc
        xi = np.clip(xi - resid / np.sqrt(1.0 + df(xi) ** 2), -w, w)
    return xi


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    slope=st.floats(0.1, 10.0),
    width=st.floats(1e-4, 0.1),
    t=st.floats(0.0, 1.0),
    u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
)
def test_xi_of_arc_inverts_the_arc_table(slope, width, t, u):
    lower, upper = sm.make_profile(slope, width), sm.make_profile(slope, 2.0 * width)
    stack = _square_stack((lower, upper), [t])
    xi_grid, (arc_grid,) = stack.tables[0]
    w, length = upper.width, arc_grid[-1]
    arcs = np.sort(np.concatenate([np.asarray(u) * length, np.linspace(0.0, length, 257)]))

    def xi_of_arc(arc):
        return stack.xi_of_arc(0, np.zeros(arc.size, dtype=np.intp), arc)

    xi = xi_of_arc(arcs)
    assert np.all(np.abs(xi) <= w) and np.all(np.diff(xi) >= 0.0)
    # the root of the forward table, to a few ulps of the arc length
    assert np.abs(np.interp(xi, xi_grid, arc_grid) - arcs).max() <= 4.0 * np.spacing(length)
    # arcs outside [0, length] clamp to the end nodes
    assert xi_of_arc(np.array([-1e-3 * length, -0.0, length, 1.001 * length])).tolist() == [-w, -w, w, w]
    # the Newton leaves its own residual near the apex, where f'' is largest
    # and two steps do not converge; the cells rise at least as fast as xi,
    # so that residual bounds the distance between the two roots
    ref = _xi_of_arc_by_newton(xi_grid, arc_grid, lambda x: stack.profile(0, np.zeros(x.size, dtype=np.intp), "df", x), arcs)
    ref_resid = np.abs(np.interp(ref, xi_grid, arc_grid) - arcs)
    assert np.all(np.abs(xi - ref) <= ref_resid + 1e-14 * w)


@pytest.mark.parametrize("width", [0.005, 0.01])
def test_xi_of_arc_matches_newton_on_the_unit_square(width):
    # the square's corners at the widths that verify all and landscape use;
    # the Newton's unconverged apex cells leave 1.3e-14 * width
    fam = sm.family_from_polygon(unit_square(), width=width)
    xi_grid, (arc_grid,) = fam._rows.tables[0]
    arcs = np.linspace(0.0, fam.profile_arcs[0], 200001)
    xi = fam._rows.xi_of_arc(0, np.zeros(arcs.size, dtype=np.intp), arcs)
    assert np.abs(xi - _xi_of_arc_by_newton(xi_grid, arc_grid, fam.profiles[0].df, arcs)).max() <= 2e-14 * width


def test_independence_slope_builds_no_interpolant(monkeypatch):
    sm.standard_mollifier()
    built = []

    class Counted(sm._Hermite):
        def __init__(self, x, y, dy):
            built.append(np.size(x))
            super().__init__(x, y, dy)

    monkeypatch.setattr(sm, "_Hermite", Counted)
    # the counter sees the mollifier's two tables, Phi and Psi
    sm._Mollifier(65)
    assert built == [65] * 2
    famA = sm.family_from_polygon(unit_square(), width=0.01)
    famB = sm.family_from_polygon(unit_square(), width=0.005)
    sm.independence_slope(famA, famB, t_nodes=5, q_nodes=256)
    # an inverse table per corner of both families and the 12 blends was 56
    assert built == [65] * 2


def test_independence_slope_reads_each_parents_df_once_per_corner():
    # 12 blended families share one grid per corner, which each call computes
    # afresh: every parent's f' is read once per call, on the whole grid
    fam_a = sm.family_from_polygon(unit_square(), width=0.005)
    fam_b = sm.family_from_polygon(unit_square(), width=0.01)
    sizes = {}

    def counted(key, df):
        def wrapped(x):
            sizes.setdefault(key, []).append(np.size(x))
            return df(x)

        return wrapped

    for k, fam in enumerate((fam_a, fam_b)):
        for i, p in enumerate(fam.profiles):
            p.df = counted((k, i), p.df)
    keys = [(k, i) for k in range(2) for i in range(4)]
    for calls in (1, 2):
        sm.independence_slope(fam_a, fam_b, t_nodes=5, q_nodes=128)
        assert sizes == {key: [sm._ARC_GRID] * calls for key in keys}
    # the grid spans the wider of the two widths
    assert sm._arc_grid((fam_a.profiles[0], fam_b.profiles[0]))[0][-1] == 0.01


def test_independence_sweep_builds_each_arc_table_once(monkeypatch):
    polygon = regular_polygon(5)
    fam_a, fam_b = sm.family_from_polygon(polygon, width=0.005), sm.family_from_polygon(polygon, width=0.01)
    built, stacks = [], []
    cumulative, rows = sm._cumulative, sm._Rows

    def logged_cumulative(x, y):
        built.append((id(x), len(y)))
        return cumulative(x, y)

    def logged_rows(fam, parents, weights, grids=None):
        stacks.append(weights[:, 1].tolist())
        return rows(fam, parents, weights, grids)

    monkeypatch.setattr(sm, "_cumulative", logged_cumulative)
    monkeypatch.setattr(sm, "_Rows", logged_rows)
    # 17 nodes: 15 central stencils of 2 blends and 2 one-sided ones of 3
    tq, _ = simpson_nodes(17)
    h = 1.0 / 64.0
    stencil_ts = sorted([0.0, h, 2 * h, 1.0, 1.0 - h, 1.0 - 2 * h] + [t + e for t in tq[1:-1] for e in (h, -h)])
    for call in (lambda: sm.profile_independence_gap(fam_a, fam_b, 0.25, t_nodes=17, q_nodes=128),
                 lambda: sm.independence_slope(fam_a, fam_b, t_nodes=17, q_nodes=128)):
        built.clear()
        stacks.clear()
        call()
        # one table pass per corner and node, of as many rows as the node
        # has blends, and each stencil t once in one of the node stacks
        assert len(built) == 5 * 17 and len(stacks) == 17
        per_corner = {}
        for grid, k in built:
            per_corner.setdefault(grid, []).append(k)
        assert len(per_corner) == 5
        assert all(ks == [len(ts) for ts in stacks] for ks in per_corner.values())
        assert sorted(t for ts in stacks for t in ts) == stencil_ts


def test_nothing_the_sweep_builds_outlives_it(monkeypatch, width_pair):
    fam_a, fam_b = width_pair
    refs = []
    rows, grid = sm._Rows, sm._arc_grid

    def logged_rows(fam, *args):
        stack = rows(fam, *args)
        refs.extend(weakref.ref(obj) for obj in (stack, fam, stack.weights, *(arc for _, arc in stack.tables)))
        return stack

    def logged_grid(parents):
        g = grid(parents)
        refs.extend(weakref.ref(arr) for arr in g)
        return g

    monkeypatch.setattr(sm, "_Rows", logged_rows)
    monkeypatch.setattr(sm, "_arc_grid", logged_grid)

    gc.collect()
    gc.disable()
    try:
        sm.independence_slope(fam_a, fam_b, t_nodes=5, q_nodes=128)
        # 5 nodes: 5 stacks, each with its blends' family, weights and 4
        # tables, and 4 grids of 2 arrays (the nodes and both parents' f')
        assert len(refs) == 5 * 7 + 4 * 2
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_independence_slope_traced_peak_stays_small(width_pair):
    # the kernel evaluates a node blend by blend into one (k, S, Q, 2) array
    # and keeps only each row's corner points: 2.1 MB traced, where one
    # blended family per stencil t traced 2.3 MB
    fam_a, fam_b = width_pair
    sm.independence_slope(fam_a, fam_b, q_nodes=2048)
    tracemalloc.start()
    try:
        sm.independence_slope(fam_a, fam_b, q_nodes=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


def test_independence_slope_rejects_identical_profiles(square_family):
    twin = sm.family_from_polygon(unit_square())
    with pytest.raises(ValueError, match="same profile at every corner"):
        sm.independence_slope(square_family, twin, t_nodes=5, q_nodes=128)
    assert sm.profile_independence_gap(square_family, twin, 0.25, t_nodes=5, q_nodes=128) < 1e-12


def test_independence_slope_default_scales(width_pair):
    fam_a, fam_b = width_pair
    _, gaps = sm.independence_slope(fam_a, fam_b, t_nodes=3, q_nodes=128)
    assert len(gaps) == len(sm.INDEPENDENCE_SCALES)
    assert gaps[-1] == sm.profile_independence_gap(fam_a, fam_b, sm.INDEPENDENCE_SCALES[-1], t_nodes=3, q_nodes=128)


@pytest.mark.parametrize("s0", [1.5, 0.0, -1.0, float("nan")])
def test_cauchy_tail_rejects_a_scale_outside_the_unit_interval(square_family, s0):
    with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\]"):
        sm.cauchy_tail(square_family, s0, q_nodes=64)


@pytest.mark.parametrize("scales, bad", [((0.5, 1.5), 1.5), ((0.25, 0.0), 0.0), ((-0.125, 0.0625), -0.125)])
def test_independence_rejects_a_scale_outside_the_unit_interval(width_pair, scales, bad):
    with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\]"):
        sm.independence_slope(*width_pair, scales=scales, t_nodes=3, q_nodes=64)
    with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\]"):
        sm.profile_independence_gap(*width_pair, bad, t_nodes=3, q_nodes=64)


def test_width_error_message_formats_plain_floats():
    with pytest.raises(InvalidWidth, match=r"width 0\.2 exceeds") as info:
        sm.family_from_polygon(unit_square(), width=np.float64(0.2))
    assert "np.float64" not in str(info.value)
    with pytest.raises(InvalidWidth, match=r"got 0\.0$"):
        sm.make_profile(1.0, np.float64(0.0))
    assert issubclass(InvalidWidth, ValueError) and issubclass(MarkInCorner, ValueError)


def test_restricted_path_tail_bounds_summable(square_family):
    # d_C-style upper bounds between consecutive dyadic slices are summable
    uppers = []
    for k in range(0, 5):
        lo, hi = 2.0 ** -(k + 1), 2.0**-k
        path = sm.restricted_path(square_family, lo, hi)
        uppers.append(path_geometric_length(path, s_nodes=9, q_nodes=512))
    assert all(a > b for a, b in zip(uppers, uppers[1:]))
    assert uppers[-1] < 1e-3


def test_lift_identity_at_zero(square_family):
    # eps = 0 hands back the slice itself, a view of (family, s)
    lift = sm.positive_curvature_lift(square_family, 0.25, 0.0)
    assert type(lift) is type(square_family.curve(0.25))
    assert (lift.family, lift.s) == (square_family, 0.25)


@pytest.mark.parametrize("s", [1.5, -0.25, 0.0])
def test_lift_rejects_scales_outside_the_family(square_family, s):
    # the lift used to read these slices unchecked and return a lifted table
    with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\]"):
        sm.positive_curvature_lift(square_family, s, 0.02)


def test_restricted_path_refuses_slices_outside_the_family(square_family):
    path = sm.restricted_path(square_family, 0.5, 1.0)
    for u in (1.5, -1.5):
        with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\]"):
            path.table(u)


def test_lift_strictly_convex_and_close(square_family):
    eps = 1e-3
    lift = sm.positive_curvature_lift(square_family, 0.25, eps)
    assert lift.strictly_convex
    assert c0_distance(lift, square_family.curve(0.25), grid=2048) <= 2 * eps
    q = np.arange(512) / 512
    assert lift.curvature(q).min() > 0


def test_lift_supports_billiard_map(square_family):
    lift = sm.positive_curvature_lift(square_family, 0.25, 1e-3)
    J = map_jacobian(lift, np.linspace(0, 1, 5, endpoint=False), np.full(5, 0.4))
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    assert np.abs(det - 1).max() < 1e-6
    Q1, P1 = forward_chord(lift, np.array([0.3]), np.array([0.2]))[:2]
    Q2, P2 = forward_chord(lift, Q1, -P1)[:2]
    assert abs((Q2 - 0.3) % 1.0) < 1e-8 or abs((Q2 - 0.3) % 1.0 - 1.0) < 1e-8


def test_family_dies_by_refcount_after_cauchy_tail():
    gc.collect()
    gc.disable()
    try:
        fam = sm.family_from_polygon(unit_square())
        ref = weakref.ref(fam)
        sm.cauchy_tail(fam, 1.0, q_nodes=256)
        del fam
        assert ref() is None
    finally:
        gc.enable()


STALL_HEXAGON = PolygonSpec(
    np.array([
        [0.09212910886569128, -0.1388884627223996],
        [0.16634549144301172, 0.010341917344511002],
        [0.0742163825773204, 0.1492303800669106],
        [-0.09212910886569126, 0.13888846272239963],
        [-0.16634549144301172, -0.010341917344510981],
        [-0.0742163825773205, -0.14923038006691056],
    ]),
    mark=0.7534324681278349,
)
STALL_S, STALL_EPS = 0.5801017530954131, 0.029478784602341285


def test_curvature_lift_where_theta_newton_stalled():
    # landscape inputs of default_rng([959, 6]): theta_of_q on the 96-mode
    # lift cycled inside its bracket at q = 0.489013671875 until it raised.
    # That lift read the sampled support function, so its spec is rebuilt
    # from the sampled oracle, bit for bit what the lift built then
    fam = sm.family_from_polygon(STALL_HEXAGON)
    h, _ = sampled_support(fam.curve(STALL_S), fam.center)
    fourier = build_fourier_table(sm._jackson_spec(h, STALL_EPS))
    assert fourier.spec.cos.size == 96
    q = np.array([0.489013671875, 0.989013671875])
    assert np.abs(fourier.spec.arclength(fourier.theta_of_q(q)) - q).max() <= 1e-13
    lift = sm.positive_curvature_lift(fam, STALL_S, STALL_EPS)
    assert lift.strictly_convex
    assert c0_distance(lift, fam.curve(STALL_S), grid=4096) < 2 * STALL_EPS


@pytest.mark.parametrize("s, eps", [(0.0625, 0.005), (0.125, 0.0025)])
def test_lift_where_the_sampled_support_function_bent_inward(square_family, s, eps):
    # the sampled support function raised CurvatureNotPositive here: its
    # error, multiplied by k^2 up to (2 order)^2, exceeded the rho floor
    lift = sm.positive_curvature_lift(square_family, s, eps)
    assert lift.strictly_convex
    assert lift.base.base.spec.rho(np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)).min() > 0.0
    assert c0_distance(lift, square_family.curve(s), grid=4096) < 2 * eps


def test_lift_samples_the_support_function_without_aliasing(square_family):
    # at 2048 normal angles the harmonics of h above 1024 folded onto the
    # 720 kept modes, where rho weighs them by k^2: the radius of curvature
    # reached -1.74e-4 and the lift raised CurvatureNotPositive
    s, eps = 0.03125, 0.0025
    lift = sm.positive_curvature_lift(square_family, s, eps)
    assert lift.strictly_convex
    assert lift.base.base.spec.cos.size == 720
    assert lift.base.base.spec.rho(np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)).min() > 1e-3
    assert c0_distance(lift, square_family.curve(s), grid=4096) < 2 * eps


@pytest.mark.parametrize("case", ["square", "hexagon"])
def test_lift_inverts_no_arc_length_and_anchors_no_worse(monkeypatch, square_family, case):
    fam, s, eps = (square_family, 0.25, 0.02) if case == "square" else (
        sm.family_from_polygon(STALL_HEXAGON), STALL_S, STALL_EPS)
    calls = []
    theta_of_q = FourierTable.theta_of_q
    monkeypatch.setattr(FourierTable, "theta_of_q", lambda self, q: calls.append(q) or theta_of_q(self, q))
    lift = sm.positive_curvature_lift(fam, s, eps)
    assert calls == []
    # the anchor the lift used to take: the best of 4096 q nodes, then the
    # best of 65 nodes across that node's two cells
    target = fam.curve(s).position(0.0)
    table = lift.base
    grid = np.arange(4096) / 4096
    j = int(np.argmin(np.linalg.norm(table.position(grid) - target, axis=-1)))
    local = grid[j] + np.linspace(-1, 1, 65) / 4096
    old = np.linalg.norm(table.position(local) - target, axis=-1).min()
    # within one spacing of the target's coordinates: on the square the two
    # anchors tie at rounding (0.005101254747971323 against ...2955, 2.8e-17)
    assert np.linalg.norm(lift.position(0.0) - target) <= old + np.spacing(np.abs(target).max())


# --- the closed-form s-rate against the central-difference stencil ---------

# The stencil step is relative, ds = 1e-3 s, because the corner geometry
# scales with s; on the restriction to [s/2, s] that is du = 2e-3.  Edge
# points: the stencil divides position roundoff (a few 1e-16) by 2 du, so
# 1e-14 / du bounds it with room; seen at most 5% of that.  Corner points:
# the positions invert a piecewise-linear arc table (2049 nodes per
# profile), whose cell slopes differ from 1/sqrt(1 + f'^2) by up to about
# 3e-4 relative where f'' peaks; seen 3.7e-7, 2e-4 of the square's speed.
# The rate is the smooth derivative, so corners get 1e-3 relative.
STENCIL_REL_DS = 1e-3
CORNER_RTOL = 1e-3


def _random_pentagon(seed):
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 5))
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    edges = np.roll(verts, -1, axis=0) - verts
    verts /= np.hypot(edges[:, 0], edges[:, 1]).sum()
    # marked at the middle of the first edge
    return PolygonSpec(verts, mark=0.5 * np.linalg.norm(verts[1] - verts[0]))


@pytest.mark.parametrize("polygon", [unit_square(), _random_pentagon(3)], ids=["square", "pentagon"])
@pytest.mark.parametrize("s", [1.0, 2.0**-4, 2.0**-8])
def test_smoothing_rate_matches_stencil(polygon, s):
    fam = sm.family_from_polygon(polygon)
    # 2^15 nodes put points in every corner down to s = 2^-8
    q = np.arange(2**15) / 2**15
    # the restriction to [s/2, s] at its end u = 1, stepped in u; at s = 1 the
    # step u = 1 + du leaves the family's scales (0, 1], where ``curve`` and
    # the path refuse a slice, so the stencil builds its slices directly
    path = sm.restricted_path(fam, s / 2, s)
    du = 2.0 * STENCIL_REL_DS

    def restricted_slice(u):
        return sm._FamilyCurve(fam, s / 2 + u * (s - s / 2))

    stencil = (restricted_slice(1.0 + du).position(q) - restricted_slice(1.0 - du).position(q)) / (2 * du)
    err = np.linalg.norm(path.velocity(1.0, q) - stencil, axis=-1)
    speed = np.linalg.norm(stencil, axis=-1).max()
    corner = fam._eval([s], q, "kappa")[0] > 0.0
    assert corner.sum() >= 5 and (~corner).sum() >= 5
    assert err[~corner].max() <= 1e-14 / du
    assert err[corner].max() <= CORNER_RTOL * speed
    # family_speed: the grid max of the rate's norm, against the stencil's
    ds = STENCIL_REL_DS * s
    grid = np.arange(4096) / 4096
    fd = (sm._FamilyCurve(fam, s + ds).position(grid) - sm._FamilyCurve(fam, s - ds).position(grid)) / (2 * ds)
    fd_max = float(np.linalg.norm(fd, axis=-1).max())
    assert abs(sm.family_speed(fam, s) - fd_max) <= CORNER_RTOL * fd_max


# --- the gathered kernel against the per-piece loop it replaced -------------


def _eval_by_piece(fam, s, q, want):
    """One scale, one masked evaluation per piece: the kernel before it was gathered."""
    q = np.asarray(q, dtype=float)
    shape = q.shape
    qf = np.atleast_1d(q).ravel()
    n = fam.n_corners
    lengths = np.empty(2 * n)
    lengths[0::2] = s * fam.profile_arcs
    lengths[1::2] = fam.edge_len - s * (fam.cut + np.roll(fam.cut, -1))
    j = fam.mark_edge
    mark = float(lengths[: 2 * j + 1].sum() + fam.mark_offset - s * fam.cut[j])
    L = fam.length_at(s)
    starts = np.concatenate([[0.0], np.cumsum(lengths)])
    qr = np.mod(qf, 1.0)
    raw = qr * L + mark
    arc = np.mod(raw, L)
    idx = np.clip(np.searchsorted(starts, arc, side="right") - 1, 0, 2 * n - 1)
    loc = arc - starts[idx]
    if want == "rate":
        wraps = np.round((raw - np.mod(raw, L)) / L)
        dloc = (qr - wraps) * -fam.total_delta + fam._rows.mark_rate[0] - fam._rows.start_rates[0][idx]
        lam, dlam = 1.0 / L, fam.total_delta / (L * L)
    out = np.zeros(qf.size) if want == "kappa" else np.empty((qf.size, 2))
    V = fam.polygon.vertices
    for piece in np.unique(idx):
        m = idx == piece
        i = piece // 2
        if piece % 2 == 1:
            if want == "tan":
                out[m] = fam.edge_dir[i]
            elif want != "kappa":
                pos = V[i] + s * fam.cut[i] * fam.edge_dir[i] + loc[m, None] * fam.edge_dir[i]
                if want == "pos":
                    out[m] = pos
                else:
                    raw_rate = (fam.cut[i] + dloc[m, None]) * fam.edge_dir[i]
                    out[m] = dlam * (pos - fam.center) + lam * raw_rate
            continue
        prof = fam.profiles[i]
        xi_grid, (arc_grid,) = fam._rows.tables[i]
        xi = np.interp(loc[m] / s, arc_grid, xi_grid)
        if want == "kappa":
            out[m] = prof.ddf(xi) / (s * (1.0 + prof.df(xi) ** 2) ** 1.5)
            continue
        if want == "tan":
            fp = prof.df(xi)
            norm = np.sqrt(1.0 + fp * fp)
            out[m] = (fam.x_hat[i][None, :] + fp[:, None] * fam.y_hat[i][None, :]) / norm[:, None]
            continue
        fx = prof.f(xi)
        pos = V[i] + (s * xi)[:, None] * fam.x_hat[i] + (s * fx)[:, None] * fam.y_hat[i]
        if want == "pos":
            out[m] = pos
            continue
        fp = prof.df(xi)
        s_dxi = (dloc[m] - loc[m] / s) / np.sqrt(1.0 + fp * fp)
        raw_rate = (xi + s_dxi)[:, None] * fam.x_hat[i] + (fx + fp * s_dxi)[:, None] * fam.y_hat[i]
        out[m] = dlam * (pos - fam.center) + lam * raw_rate
    out = out.reshape(shape if want == "kappa" else shape + (2,))
    return out, idx


KERNEL_SCALES = np.array([1.0, 0.37, 2.0**-6, 2.0**-11])


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(polygon=_rotated_polygons(), q_nodes=st.sampled_from([64, 256, 1024]))
def test_gathered_kernel_matches_per_piece_oracle_bitwise(polygon, q_nodes):
    fam = sm.family_from_polygon(polygon)
    grid = np.arange(q_nodes) / q_nodes
    # every piece start at every scale, the mark, and the last double below 1
    edges = []
    for s in KERNEL_SCALES:
        lengths, mark = _layout(fam, s)
        starts = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
        L = fam.length_at(s)
        edges.append(np.mod(starts - mark, L) / L)
    special = np.concatenate(edges + [[0.0, np.nextafter(1.0, 0.0)]])
    empty_corner = False
    for q in (grid, special):
        for want in ("pos", "tan", "kappa", "rate"):
            got = fam._eval(KERNEL_SCALES, q, want)
            for k, s in enumerate(KERNEL_SCALES):
                ref, idx = _eval_by_piece(fam, s, q, want)
                assert got[k].tobytes() == ref.tobytes(), (want, s)
                empty_corner |= q is grid and bool(set(range(0, 2 * fam.n_corners, 2)) - set(idx.tolist()))
    # the smallest scale leaves some corner without a grid node
    assert empty_corner


# --- the exact support function against the sampled oracle ------------------

# Stated before the run.  The oracle's raw maximum over 8192 boundary samples
# p is a max over points of the slice, so it is a lower bound:
#     h(theta) >= <e_theta, p - C> - 1e-15  for every sample p,
# 1e-15 covering roundoff and the solve's 1e-13 slope tolerance (it costs the
# projection at most 1e-13 * 2 w s / L).  Samples delta apart in arc length
# leave the support point at most delta / 2 from the best one, and the
# boundary bends away from its supporting line by at most kappa_max t^2 / 2
# at arc distance t, so
#     h(theta) - max_p <e_theta, p - C> <= kappa_max delta^2 / 8 + 1e-15,
# kappa_max the slice's largest curvature.  The samples are 1/8192 apart in
# q; the corner arc table stretches an interval by up to 1.7e-5 relative in
# true arc length (measured on 3-, 4- and 8-gons), so delta = 1.0001 / 8192.
SUPPORT_ROUNDOFF = 1e-15
SUPPORT_DELTA = 1.0001 / 8192


def _slice_kappa_max(fam, s):
    """Largest curvature of the normalized slice, from the profiles on dense grids."""
    kappa = 0.0
    for prof in fam.profiles:
        xi = np.linspace(-prof.width, prof.width, 20001)
        kappa = max(kappa, float((prof.ddf(xi) / (1.0 + prof.df(xi) ** 2) ** 1.5).max()))
    return kappa * fam.length_at(s) / s


def test_support_function_solve_bisects_where_f2_is_subnormal():
    # a solve that reaches a corner's ends divides by the exact f'' there,
    # as small as 3e-312 on this triangle: the Newton step overflowed (a
    # RuntimeWarning) before it bisected
    V = np.array([[0.17535936, -0.0807208], [-0.05422746, 0.18527314], [-0.13333752, -0.13959893]])
    V /= np.linalg.norm(np.roll(V, -1, axis=0) - V, axis=1).sum()
    fam = sm.family_from_polygon(PolygonSpec(V, mark=0.17568643220394722))
    theta = 2.0 * np.pi * np.arange(2048) / 2048
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        h = sm._support_function(fam, 1.0, theta)
    _, top = sampled_support(fam.curve(1.0), fam.center)
    assert np.all(h >= top - SUPPORT_ROUNDOFF)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    polygon=_rotated_polygons(max_corners=8),
    width=st.floats(0.25, 1.0),
    s=st.floats(1.0 / 64.0, 1.0),
)
def test_exact_support_function_brackets_the_sampled_one(polygon, width, s):
    # width is a fraction of the default min(0.01, shortest edge / 4)
    fam = sm.family_from_polygon(polygon, width=width * min(0.01, float(polygon.edge_lengths.min()) / 4.0))
    theta = 2.0 * np.pi * np.arange(2048) / 2048
    h = sm._support_function(fam, s, theta)
    _, top = sampled_support(fam.curve(s), fam.center)
    assert np.all(h >= top - SUPPORT_ROUNDOFF)
    assert np.all(h - top <= _slice_kappa_max(fam, s) * SUPPORT_DELTA**2 / 8.0 + SUPPORT_ROUNDOFF)
