import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoferbilliards import (
    FourierSupportSpec,
    FourierTable,
    SampledCurve,
    build_fourier_table,
    c0_distance,
    disc_table,
    rigid_motion,
    shift_mark,
    unit_square,
)
from hoferbilliards._solve import newton_bisect
from hoferbilliards.curves import BLOCK_POINTS, PolygonBoundary, PolygonSpec, TableCurve, _TrigSeries
from hoferbilliards.smoothing import family_from_polygon
from hoferbilliards.errors import CurvatureNotPositive

TWO_PI = 2 * np.pi


def test_disc_conventions(disc):
    assert np.allclose(disc.position(0.0), [1 / TWO_PI, 0.0], atol=1e-15)
    assert np.allclose(disc.tangent(0.0), [0.0, 1.0], atol=1e-15)
    q = np.linspace(0, 1, 64, endpoint=False)
    assert np.allclose(disc.curvature(q), TWO_PI)


def test_fourier_circle_is_disc(disc):
    t = build_fourier_table(FourierSupportSpec(5.0))
    q = np.linspace(0, 1, 257)
    assert np.abs(t.position(q) - disc.position(q)).max() < 1e-10


def test_fourier_table_length_one():
    t = build_fourier_table(FourierSupportSpec(1.0, cos=[0.0, 0.1]))
    # closed-form cumulative arc length over a full revolution
    assert abs(float(t.spec.arclength(TWO_PI)) - 1.0) < 1e-10
    # independent polyline check
    n = 1 << 15
    pts = t.position(np.arange(n) / n)
    poly = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=-1).sum()
    assert abs(poly - 1.0) < 1e-6


def test_fourier_curvature_guard():
    with pytest.raises(CurvatureNotPositive):
        build_fourier_table(FourierSupportSpec(1.0, cos=[0.0, 0.4]))


def test_unit_tangent_and_positive_curvature(mild_ellipse, disc):
    q = np.arange(1024) / 1024
    for t in (disc, mild_ellipse):
        assert np.abs(np.linalg.norm(t.tangent(q), axis=-1) - 1).max() < 1e-8
        assert t.curvature(q).min() > 0


def test_position_periodicity(mild_ellipse):
    q = np.linspace(0, 1, 17)
    assert np.abs(mild_ellipse.position(q + 1) - mild_ellipse.position(q)).max() < 1e-10


def curve_centroid(t: TableCurve, grid: int = 2048) -> np.ndarray:
    """Arc-length centroid of the boundary curve."""
    q = np.arange(grid) / grid
    return t.position(q).mean(axis=0)


def test_first_harmonic_translates():
    base = FourierSupportSpec(1.0, cos=[0.0, 0.1])
    moved = FourierSupportSpec(1.0, cos=[0.3, 0.1], sin=[0.05])
    a = build_fourier_table(base)
    b = build_fourier_table(moved)
    shift = curve_centroid(a) - curve_centroid(b)
    assert c0_distance(a, rigid_motion(b, 0.0, shift)) < 1e-8


def test_arclength_inversion_roundtrip(mild_ellipse):
    q = np.linspace(0, 1, 101, endpoint=False)
    theta = mild_ellipse.theta_of_q(q)
    assert np.abs(mild_ellipse.spec.arclength(theta) - q).max() < 1e-10


def test_c0_distance_identical(disc, mild_ellipse):
    assert c0_distance(disc, disc) == 0.0
    assert c0_distance(mild_ellipse, mild_ellipse) == 0.0


def test_c0_distance_translation(disc):
    moved = rigid_motion(disc, 0.0, (0.05, 0.0))
    assert abs(c0_distance(disc, moved) - 0.05) < 1e-9


def test_c0_distance_mark_rotation(disc):
    r = 0.25
    expected = np.sin(np.pi * r) / np.pi  # chord of the rotation angle
    assert abs(c0_distance(disc, shift_mark(disc, r)) - expected) < 1e-7


def test_sampled_curve_matches_disc(disc):
    t = SampledCurve(disc.position(np.arange(257) / 257))
    q = np.linspace(0, 1, 33)
    assert np.abs(t.position(q) - disc.position(q)).max() < 1e-10
    assert t.strictly_convex
    assert np.abs(t.curvature(q) - TWO_PI).max() < 1e-6


def test_polygon_validation():
    sq = unit_square()
    assert abs(sq.edge_lengths.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        PolygonSpec(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]))  # perimeter 4
    with pytest.raises(ValueError):
        PolygonSpec(np.array([[0.125, -0.125], [-0.125, -0.125], [-0.125, 0.125], [0.125, 0.125]]))


def test_rigid_motion_preserves_geometry(mild_ellipse):
    g = rigid_motion(mild_ellipse, 0.7, (0.3, -0.2))
    q = np.linspace(0, 1, 64, endpoint=False)
    assert np.abs(np.linalg.norm(g.tangent(q), axis=-1) - 1).max() < 1e-10
    assert np.abs(g.curvature(q) - mild_ellipse.curvature(q)).max() < 1e-12
    d = np.linalg.norm(g.position(q) - g.position(q + 0.5), axis=-1)
    d0 = np.linalg.norm(mild_ellipse.position(q) - mild_ellipse.position(q + 0.5), axis=-1)
    assert np.abs(d - d0).max() < 1e-12


NATIVE_KINDS = ["disc", "mild_ellipse", "sampled", "mark_shifted", "rigid"]
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@pytest.mark.parametrize("kind", NATIVE_KINDS)
@PROPERTY
@given(q=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=16))
def test_native_parameter_roundtrip(native_tables, kind, q):
    table = native_tables[kind]
    q = np.asarray(q)
    assert np.abs(table.q_of_native(table.native_of_q(q)) - q).max() <= 1e-13


@pytest.mark.parametrize("kind", NATIVE_KINDS)
@PROPERTY
@given(q=st.floats(-2.0, 3.0))
def test_native_frame_matches_arc_length_frame(native_tables, kind, q):
    table = native_tables[kind]
    t = table.native_of_q(np.array([q]))
    pos, tan, dq_dt = table.native_frame(t)
    assert np.abs(pos - table.position(np.array([q]))).max() < 1e-12
    assert np.abs(tan - table.tangent(np.array([q]))).max() < 1e-12
    h = 1e-6 * table.native_period
    fd = (table.q_of_native(t + h) - table.q_of_native(t - h)) / (2 * h)
    assert np.abs(dq_dt - fd).max() < 1e-6 * np.abs(fd).max()


# q-API oracles that read no native frame: difference quotients in q.  The
# smoothed slice places its corner points by inverting a piecewise-linear
# table of the profile's arc length (CornerProfile.xi_of_arc), so there its
# tangent matches the difference quotient of its position only to about
# 2e-5 at this step, and its curvature that of its tangent angle to 7e-6.
Q_API_KINDS = NATIVE_KINDS + ["smoothed_slice"]
FD_STEP = 1e-5
FD_TANGENT_TOL = {"smoothed_slice": 5e-5}
FD_CURVATURE_TOL = {"smoothed_slice": 2e-5}


def _q_api_table(native_tables, kind):
    if kind == "smoothed_slice":
        return family_from_polygon(unit_square()).curve(0.5)
    return native_tables[kind]


@pytest.mark.parametrize("kind", Q_API_KINDS)
def test_position_difference_is_the_unit_tangent(native_tables, kind):
    table = _q_api_table(native_tables, kind)
    q = np.linspace(-2.0, 3.0, 4001)
    d = (table.position(q + FD_STEP) - table.position(q - FD_STEP)) / (2 * FD_STEP)
    tol = FD_TANGENT_TOL.get(kind, 1e-8)
    assert np.abs(np.linalg.norm(d, axis=-1) - 1.0).max() < tol
    assert np.abs(d - table.tangent(q)).max() < tol


@pytest.mark.parametrize("kind", Q_API_KINDS)
def test_tangent_angle_difference_is_the_curvature(native_tables, kind):
    table = _q_api_table(native_tables, kind)
    q = np.linspace(-2.0, 3.0, 4001)
    ahead, behind = table.tangent(q + FD_STEP), table.tangent(q - FD_STEP)
    turn = np.angle((ahead[:, 0] + 1j * ahead[:, 1]) / (behind[:, 0] + 1j * behind[:, 1]))
    kappa = table.curvature(q)
    tol = FD_CURVATURE_TOL.get(kind, 3e-8)
    assert np.abs(turn / (2 * FD_STEP) - kappa).max() < tol * np.abs(kappa).max()


class _Bare(TableCurve):
    """A table that states neither its q-geometry nor its native geometry."""


@pytest.mark.parametrize("method", ["position", "tangent", "curvature", "native_frame", "native_curvature"])
def test_table_without_geometry_raises_not_implemented(method):
    with pytest.raises(NotImplementedError):
        getattr(_Bare(), method)(np.array([0.25]))


def test_native_period_is_one_turn(native_tables):
    for table in native_tables.values():
        t = table.native_of_q(np.array([0.2]))
        assert abs(float(table.q_of_native(t + table.native_period)[0]) - 1.2) < 1e-13


@pytest.mark.parametrize("kind", NATIVE_KINDS)
@PROPERTY
@given(turns=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=16))
def test_native_curvature_matches_arc_length_curvature(native_tables, kind, turns):
    table = native_tables[kind]
    t = np.asarray(turns) * table.native_period
    kappa = table.native_curvature(t)
    assert np.abs(kappa - table.curvature(table.q_of_native(t))).max() <= 1e-9 * np.abs(kappa).max()


def test_native_curvature_default_is_curvature():
    t = np.linspace(-1.0, 2.0, 37)
    for table in (PolygonBoundary(unit_square()), family_from_polygon(unit_square()).curve(0.5)):
        assert np.array_equal(table.native_curvature(t), table.curvature(t))


# ---------------------------------------------------------------------------
# the spectral evaluation kernel against the dense exp-matrix formula
# ---------------------------------------------------------------------------


def _dense(series, u, w):
    """Oracle: sum_k w_k e^(2 pi i k u) from the dense (points x modes) exp matrix."""
    return np.exp(2j * np.pi * np.multiply.outer(np.asarray(u, dtype=float), series.k)) @ w


def _random_series(m):
    rng = np.random.default_rng(m)
    return _TrigSeries(rng.normal(size=m) + 1j * rng.normal(size=m)), rng


@pytest.mark.parametrize("m", [129, 128], ids=["odd", "even"])
def test_trig_series_matches_dense_oracle(m):
    series, rng = _random_series(m)
    u = rng.uniform(-1.0, 2.0, 2 * BLOCK_POINTS + 3)  # three blocks
    for deriv in (0, 1, 2):
        w = series.weights(deriv)
        assert np.abs(series(u, deriv) - _dense(series, u, w)).max() <= 1e-12 * np.abs(w).sum()
    f, df = series.with_derivative(u)
    for got, deriv in ((f, 0), (df, 1)):
        w = series.weights(deriv)
        assert np.abs(got - _dense(series, u, w)).max() <= 1e-12 * np.abs(w).sum()


@pytest.mark.parametrize("m", [129, 128], ids=["odd", "even"])
def test_sampled_arclength_matches_dense_oracle(m):
    rng = np.random.default_rng(m)
    phase = rng.uniform(0, TWO_PI)

    def bumpy(u):
        r = 1.0 + 0.05 * np.cos(TWO_PI * 3 * u + phase) + 0.02 * np.sin(TWO_PI * 5 * u)
        return r[:, None] * np.stack([np.cos(TWO_PI * u), np.sin(TWO_PI * u)], axis=-1)

    curve = SampledCurve(bumpy(np.arange(m) / m))
    # the closed-form arc length, every sum taken with the dense oracle
    series = curve._z
    speed = np.abs(_dense(series, np.arange(m) / m, series.weights(1)))
    speed_series = _TrigSeries(speed.astype(complex))
    c, k = speed_series.coef, speed_series.k
    w = np.where(k != 0, c / np.where(k != 0, 2j * np.pi * k, 1.0), 0.0)
    u = rng.uniform(-1.0, 2.0, 400)
    expect = np.real(c[k == 0][0]) * u + np.real((np.exp(2j * np.pi * np.multiply.outer(u, k)) - 1.0) @ w)
    assert np.abs(curve._arclength(u) - expect).max() <= 1e-12 * (np.abs(w).sum() + abs(c[k == 0][0]) * 2.0)


@pytest.mark.parametrize("m, n", [(129, 129), (128, 128), (129, 4096), (128, 4096), (128, 64)])
def test_trig_series_on_grid_matches_dense_oracle(m, n):
    # n = m: the curve's own grid (for even m the split modes -m/2 and m/2
    # alias onto one bin); n = 4096: zero padding; n < m folds many modes
    series, _ = _random_series(m)
    grid = np.arange(n) / n
    for deriv in (0, 1, 2):
        w = series.weights(deriv)
        assert np.abs(series.on_grid(n, deriv) - _dense(series, grid, w)).max() <= 1e-12 * np.abs(w).sum()


def test_trig_series_batch_equals_chunk_by_chunk():
    series, rng = _random_series(65)
    u = rng.uniform(-1.0, 2.0, 2 * BLOCK_POINTS + 3)
    w = np.stack([series.weights(0), series.weights(2)], axis=1)
    chunks = [series.evaluate(u[a : a + BLOCK_POINTS], w) for a in range(0, u.size, BLOCK_POINTS)]
    assert np.array_equal(series.evaluate(u, w), np.concatenate(chunks))


@pytest.mark.parametrize("n", [4, 96, 720])
def test_support_terms_batch_equals_block_by_block(n):
    spec, rng = _kernel_spec(n)
    theta = rng.uniform(-2 * np.pi, 4 * np.pi, 2 * BLOCK_POINTS + 3)
    blocks = [spec._terms(theta[a : a + BLOCK_POINTS]) for a in range(0, theta.size, BLOCK_POINTS)]
    assert np.array_equal(spec._terms(theta), np.concatenate(blocks, axis=1))


def test_trig_series_keeps_shapes():
    series, rng = _random_series(33)
    u = rng.uniform(0.0, 1.0, (3, 4))
    assert series(0.25).shape == ()
    assert series(u, 1).shape == (3, 4)
    f, df = series.with_derivative(u)
    assert f.shape == df.shape == (3, 4)
    assert series.with_derivative(0.25)[1].shape == ()
    assert series.evaluate(u, np.ones((series.k.size, 2))).shape == (3, 4, 2)
    assert series(u).ravel().tolist() == series(u.ravel()).tolist()


# ---------------------------------------------------------------------------
# the support-function kernel against a direct per-harmonic sum
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _direct_support(spec, theta):
    """Oracle: (h, h', h'', rho, arclength) summed harmonic by harmonic from cos(k theta), sin(k theta)."""
    theta = np.asarray(theta, dtype=float)
    h = np.full(theta.shape, float(spec.c0))
    hp = np.zeros(theta.shape)
    hpp = np.zeros(theta.shape)
    arc = spec.c0 * theta
    for k, (a, b) in enumerate(zip(spec.cos, spec.sin), start=1):
        c, s = np.cos(k * theta), np.sin(k * theta)
        h += a * c + b * s
        hp += k * (b * c - a * s)
        hpp -= k * k * (a * c + b * s)
        arc += (1.0 - k * k) / k * (a * s + b * (1.0 - c))
    return h, hp, hpp, h + hpp, arc


def _kernel_spec(n):
    rng = np.random.default_rng(n)
    k = np.arange(1, n + 1)
    return FourierSupportSpec(rng.uniform(0.5, 2.0), rng.normal(size=n) / k, rng.normal(size=n) / k), rng


def _kernel_tol(spec):
    """8 n eps (|c0| + sum_k k^2 (|cos_k| + |sin_k|)) for n harmonics.

    The kernel's z^k carries k roundings and the oracle's cos(k theta) the
    rounding of k theta, so both sides drift from the exact sum by O(n eps)
    relative to the size of the k^2-weighted coefficients.
    """
    k = spec.harmonics
    return 8 * k.size * EPS * (abs(spec.c0) + np.sum(k**2 * (np.abs(spec.cos) + np.abs(spec.sin))))


# "blocks" spans three blocks
THETA_SHAPES = {"scalar": (), "1d": (300,), "2d": (15, 20), "blocks": (2 * BLOCK_POINTS + 3,)}


@pytest.mark.parametrize("shape", THETA_SHAPES.values(), ids=THETA_SHAPES.keys())
@pytest.mark.parametrize("n", [1, 2, 4, 96, 720])
def test_support_kernel_matches_direct_sum(n, shape):
    spec, rng = _kernel_spec(n)
    theta = rng.uniform(-2 * np.pi, 4 * np.pi, shape)
    h, hp, hpp, rho, arc = _direct_support(spec, theta)
    tol = _kernel_tol(spec)
    got = {
        "h": (spec.h(theta), h),
        "h'": (spec.h(theta, deriv=1), hp),
        "h''": (spec.h(theta, deriv=2), hpp),
        "rho": (spec.rho(theta), rho),
        "arclength": (spec.arclength(theta), arc),
        "sigma": (spec.sigma_rho(theta)[0], arc),
        "sigma_rho": (spec.sigma_rho(theta)[1], rho),
    }
    for name, (value, expect) in got.items():
        assert np.shape(value) == shape, name
        assert np.abs(value - expect).max() <= tol, name
    c, s = np.cos(theta), np.sin(theta)
    point = np.stack([h * c - hp * s, h * s + hp * c], axis=-1)
    assert spec.boundary_point(theta).shape == shape + (2,)
    assert np.abs(spec.boundary_point(theta) - point).max() <= tol
    pos, tan, dq = FourierTable(spec).native_frame(theta)
    assert pos.shape == tan.shape == shape + (2,) and dq.shape == shape
    assert np.abs(pos - point).max() <= tol
    assert np.abs(tan - np.stack([-s, c], axis=-1)).max() <= 4 * EPS
    assert np.abs(dq - rho).max() <= tol


@pytest.mark.parametrize("n", [1, 2, 4, 96])
def test_support_arclength_is_the_integral_of_rho(n):
    spec, rng = _kernel_spec(n)
    # Gauss-Legendre on pieces of at most 1/8 rad: 32 nodes integrate each
    # piece's at most 12 rad of phase to roundoff
    x, w = np.polynomial.legendre.leggauss(32)
    for end in rng.uniform(-2 * np.pi, 4 * np.pi, 6):
        cuts = np.linspace(0.0, end, int(abs(end) * 8) + 2)
        mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * np.diff(cuts)
        quad = float(np.sum(half[:, None] * w * spec.rho(mid[:, None] + half[:, None] * x)))
        assert abs(float(spec.arclength(end)) - quad) <= _kernel_tol(spec) * (1.0 + abs(end))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.integers(1, 840), theta=st.lists(st.floats(-2 * np.pi, 4 * np.pi), min_size=1, max_size=40))
def test_support_kernel_matches_direct_sum_at_any_mode_count(n, theta):
    spec, _ = _kernel_spec(n)
    theta = np.asarray(theta)
    h, hp, _, rho, arc = _direct_support(spec, theta)
    rows = spec._terms(theta)
    tol = _kernel_tol(spec)
    for value, expect in ((spec.c0 + rows[0], h), (rows[1], hp), (spec.c0 + rows[2], rho)):
        assert np.abs(value - expect).max() <= tol
    assert np.abs(spec.c0 * theta + rows[3] - arc).max() <= tol
    assert np.abs(rows[4:] - np.stack([np.cos(theta), np.sin(theta)])).max() <= 4 * EPS


def test_support_h_rejects_a_third_derivative():
    with pytest.raises(ValueError):
        FourierSupportSpec(1.0, cos=[0.0, 0.1]).h(0.3, deriv=3)


# ---------------------------------------------------------------------------
# the bracketed Newton: stalls inside the bracket bisect
# ---------------------------------------------------------------------------


def test_newton_bisect_bisects_when_the_residual_does_not_halve():
    # Newton on sign(x)|x|^0.55 maps x to -0.82 x: every step stays inside
    # the bracket, and |residual| shrinks by only about 10% per step
    def fun(x, idx):
        return np.sign(x) * np.abs(x) ** 0.55, 0.55 * np.abs(x) ** -0.45

    # without the guard 100 iterations end near |residual| 1e-5 and raise
    x = newton_bisect(fun, lo=-1.0, hi=2.0, seed=np.array([0.7, -0.3]), increasing=True)
    assert np.abs(x).max() ** 0.55 <= 1e-10


def _small_rho_spec(seed, harmonics, floor):
    """Many-mode support spec whose radius of curvature dips to ``floor`` times its mean."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, harmonics + 1)
    decay = 1.0 / k**2.5
    cos, sin = rng.normal(size=harmonics) * decay, rng.normal(size=harmonics) * decay
    spec = FourierSupportSpec(0.0, cos, sin)
    theta = np.linspace(0.0, TWO_PI, 8192, endpoint=False)
    osc = spec.rho(theta)
    # rho = c0 + osc, with c0 chosen so min rho = floor * c0
    c0 = -osc.min() / (1.0 - floor)
    return FourierSupportSpec(c0, cos, sin)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**16),
    harmonics=st.integers(24, 96),
    floor=st.floats(0.01, 0.05),
    q=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=16),
)
def test_native_roundtrip_on_many_mode_small_rho_specs(seed, harmonics, floor, q):
    table = build_fourier_table(_small_rho_spec(seed, harmonics, floor))
    q = np.asarray(q)
    assert np.abs(table.q_of_native(table.native_of_q(q)) - q).max() <= 1e-13
