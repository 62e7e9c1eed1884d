import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoferbilliards import (
    AnnulusPoint,
    FourierSupportSpec,
    chord_length,
    forward_map,
    generating_partials,
    inverse_map,
    iterate,
    map_jacobian,
    rigid_motion,
    unit_square,
)
from hoferbilliards import homotopy as ho
from hoferbilliards.billiard import GRAZING_CUTOFF, forward_chord, trajectory_arrays
from hoferbilliards.cli import main
from hoferbilliards.curves import FourierTable, PolygonBoundary, circ_dist
from hoferbilliards.errors import DiagonalPoint, NearGrazing, NotStrictlyConvex


def test_chord_diameter(disc):
    assert abs(chord_length(disc, 0.0, 0.5) - 1 / np.pi) < 1e-14


def test_chord_short_limit(disc):
    eps = 1e-6
    assert abs(chord_length(disc, 0.2, 0.2 + eps) - eps) < 1e-12


def test_chord_symmetry(mild_ellipse):
    rng = np.random.default_rng(0)
    q, Q = rng.uniform(0, 1, (2, 100))
    keep = circ_dist(q, Q) > 1e-3
    a = chord_length(mild_ellipse, q[keep], Q[keep])
    b = chord_length(mild_ellipse, Q[keep], q[keep])
    assert np.abs(a - b).max() < 1e-14


def test_chord_diagonal_guard(disc):
    with pytest.raises(DiagonalPoint):
        chord_length(disc, 0.3, 0.3)


def test_partials_disc_quarter(disc):
    dq, dQ = generating_partials(disc, 0.0, 0.25)
    assert abs(dq + np.cos(np.pi * 0.25)) < 1e-12
    assert abs(dQ - np.cos(np.pi * 0.25)) < 1e-12


def test_partials_diameter_perpendicular(disc):
    dq, dQ = generating_partials(disc, 0.0, 0.5)
    assert abs(dq) < 1e-14 and abs(dQ) < 1e-14


def test_partials_match_finite_differences(mild_ellipse):
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(20):
        q, Q = rng.uniform(0, 1, 2)
        if circ_dist(q, Q) < 0.05:
            continue
        dq, dQ = generating_partials(mild_ellipse, q, Q)
        fd_q = (chord_length(mild_ellipse, q + h, Q) - chord_length(mild_ellipse, q - h, Q)) / (2 * h)
        fd_Q = (chord_length(mild_ellipse, q, Q + h) - chord_length(mild_ellipse, q, Q - h)) / (2 * h)
        assert abs(dq - fd_q) < 1e-6 * max(1, abs(dq))
        assert abs(dQ - fd_Q) < 1e-6 * max(1, abs(dQ))


def test_forward_disc_cases(disc):
    y = forward_map(disc, AnnulusPoint(0.25, 0.0))
    assert abs(y.q - 0.75) < 1e-12 and abs(y.p) < 1e-12
    y = forward_map(disc, AnnulusPoint(0.0, 0.5))
    assert abs(y.q - 1 / 3) < 1e-12 and abs(y.p - 0.5) < 1e-12
    y = forward_map(disc, AnnulusPoint(0.9, np.cos(0.2 * np.pi)))
    assert abs(y.q - 0.1) < 1e-12
    assert abs(y.p - np.cos(0.2 * np.pi)) < 1e-12


def test_forward_disc_closed_form(disc):
    rng = np.random.default_rng(7)
    q = rng.uniform(0, 1, 1000)
    p = rng.uniform(-0.99, 0.99, 1000)
    Q, P = forward_chord(disc, q, p)[:2]
    assert circ_dist(Q, q + np.arccos(p) / np.pi).max() < 1e-10
    assert np.abs(P - p).max() < 1e-10


def test_inverse_cases(disc):
    x = inverse_map(disc, AnnulusPoint(1 / 3, 0.5))
    assert abs(x.q) < 1e-12 and abs(x.p - 0.5) < 1e-12
    x = inverse_map(disc, AnnulusPoint(0.2, 0.0))
    assert abs(x.q - 0.7) < 1e-12


def test_inverse_roundtrip(mild_ellipse):
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = AnnulusPoint(rng.uniform(), rng.uniform(-0.95, 0.95))
        y = forward_map(mild_ellipse, inverse_map(mild_ellipse, x))
        assert circ_dist(y.q, x.q) < 1e-9 and abs(y.p - x.p) < 1e-9


# -log10 of the smallest distance 1 - |p| the round trip below draws
NEAR_GRAZING_DEPTH = -np.log10(1.1 * GRAZING_CUTOFF)


@pytest.mark.parametrize("table_name", ["disc", "mild_ellipse"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    q=st.floats(0.0, 1.0, exclude_max=True),
    depth=st.floats(1.0, NEAR_GRAZING_DEPTH),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_inverse_undoes_forward_near_grazing(table_name, request, q, depth, sign):
    # 1 - |p| runs log-uniformly from 0.1 down to 1.1 GRAZING_CUTOFF
    table = request.getfixturevalue(table_name)
    p = sign * (1.0 - max(10.0**-depth, 1.1 * GRAZING_CUTOFF))
    x = AnnulusPoint(q, p)
    y = inverse_map(table, forward_map(table, x))
    assert circ_dist(y.q, x.q) < 1e-9 and abs(y.p - x.p) < 1e-11


def test_iterate_rotation(disc):
    traj = iterate(disc, AnnulusPoint(0.0, 0.5), 3)
    qs = [pt.q for pt in traj]
    assert np.abs(np.array(qs) - [0, 1 / 3, 2 / 3, 1.0 % 1]).max() < 1e-9 or circ_dist(qs[3], 0.0) < 1e-9
    assert max(abs(pt.p - 0.5) for pt in traj) < 1e-12


def test_iterate_period_two(disc):
    traj = iterate(disc, AnnulusPoint(0.37, 0.0), 2)
    assert circ_dist(traj[2].q, 0.37) < 1e-12 and abs(traj[2].p) < 1e-12


def test_iterate_inverse_composition(mild_ellipse):
    x = AnnulusPoint(0.1, 0.3)
    fwd = iterate(mild_ellipse, x, 5)
    back = iterate(mild_ellipse, fwd[-1], -5)
    assert circ_dist(back[-1].q, x.q) < 1e-8 and abs(back[-1].p - x.p) < 1e-8


@pytest.mark.parametrize("table_name", ["disc", "mild_ellipse"])
def test_symplecticity(table_name, request):
    table = request.getfixturevalue(table_name)
    qs = np.linspace(0, 1, 20, endpoint=False)
    ps = np.linspace(-0.95, 0.95, 20)
    QQ, PP = np.meshgrid(qs, ps)
    J = map_jacobian(table, QQ.ravel(), PP.ravel())
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    assert np.abs(det - 1).max() < 1e-6


def test_twist_monotonicity(mild_ellipse):
    p = np.linspace(-0.98, 0.98, 200)
    Q, _ = forward_chord(mild_ellipse, np.full_like(p, 0.3), p)[:2]
    assert np.all(np.diff(Q) < 0)


def test_reversibility(mild_ellipse):
    rng = np.random.default_rng(3)
    q = rng.uniform(0, 1, 200)
    p = rng.uniform(-0.9, 0.9, 200)
    Q1, P1 = forward_chord(mild_ellipse, q, p)[:2]
    Q2, P2 = forward_chord(mild_ellipse, Q1, -P1)[:2]
    assert circ_dist(Q2, q).max() < 1e-9
    assert np.abs(-P2 - p).max() < 1e-9


def test_isometry_invariance(mild_ellipse):
    g = rigid_motion(mild_ellipse, 1.1, (0.4, 0.2))
    rng = np.random.default_rng(4)
    q = rng.uniform(0, 1, 100)
    p = rng.uniform(-0.9, 0.9, 100)
    Q1, P1 = forward_chord(mild_ellipse, q, p)[:2]
    Q2, P2 = forward_chord(g, q, p)[:2]
    assert circ_dist(Q1, Q2).max() < 1e-10
    assert np.abs(P1 - P2).max() < 1e-10


def test_grazing_limit(mild_ellipse):
    gaps = []
    for k in range(2, 8):
        p = 1 - 10.0 ** (-k)
        Q, _ = forward_chord(mild_ellipse, np.array([0.2]), np.array([p]))[:2]
        gaps.append(float(Q[0] - 0.2))
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_grazing_guard(disc):
    with pytest.raises(NearGrazing):
        forward_map(disc, AnnulusPoint(0.0, 1 - 1e-10))


def test_flat_table_guard():
    flat = PolygonBoundary(unit_square())
    with pytest.raises(NotStrictlyConvex):
        forward_map(flat, AnnulusPoint(0.0, 0.5))


NATIVE_KINDS = ["disc", "mild_ellipse", "sampled", "mark_shifted", "rigid"]
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)


def reflection_defects(table, q, p, Q, P):
    """|<u, T(q)> - p| and |<u, T(Q)> - P| through position/tangent at q and Q."""
    d = table.position(Q) - table.position(q)
    u = d / np.linalg.norm(d, axis=-1, keepdims=True)
    out = np.abs(np.sum(u * table.tangent(q), axis=-1) - p)
    back = np.abs(np.sum(u * table.tangent(Q), axis=-1) - P)
    return out, back


@pytest.mark.parametrize("kind", NATIVE_KINDS)
@PROPERTY
@given(
    q=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=8),
    p=st.floats(-0.99, 0.99),
)
def test_native_solve_obeys_reflection_law(native_tables, kind, q, p):
    table = native_tables[kind]
    q = np.asarray(q)
    p = np.full_like(q, p)
    Q, P = forward_chord(table, q, p)[:2]
    assert np.all(Q > q) and np.all(Q < q + 1.0)
    out, back = reflection_defects(table, q, p, Q, P)
    assert out.max() <= 1e-11 and back.max() <= 1e-11


@pytest.mark.parametrize("kind", ["disc", "mild_ellipse", "sampled"])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(
    q=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=8),
    p=st.floats(-0.99, 0.99),
    r=st.floats(-1.5, 1.5),
)
def test_bounce_equivariant_under_mark_shift(native_tables, kind, q, p, r):
    # moving the mark by r relabels the boundary, q -> q - r: the bounce from
    # q - r on the shifted table lands at the old landing less r, at the same
    # momentum.  Both solves stop at a 1e-13 residual; seen up to 1.3e-15
    from hoferbilliards import shift_mark

    table = native_tables[kind]
    q = np.asarray(q)
    p = np.full_like(q, p)
    Q, P = forward_chord(table, q, p)[:2]
    Qr, Pr = forward_chord(shift_mark(table, r), q - r, p)[:2]
    assert np.abs(Qr - (Q - r)).max() <= 1e-11
    assert np.abs(Pr - P).max() <= 1e-11


def test_native_solve_inverts_arc_length_once(mild_ellipse, monkeypatch):
    calls = []
    inner = FourierTable.theta_of_q

    def counted(self, q):
        calls.append(np.size(q))
        return inner(self, q)

    monkeypatch.setattr(FourierTable, "theta_of_q", counted)
    rng = np.random.default_rng(5)
    q, p = rng.uniform(0, 1, 300), rng.uniform(-0.95, 0.95, 300)
    Q, *_, t_Q = forward_chord(mild_ellipse, q, p)
    assert calls == [300]
    assert np.abs(mild_ellipse.spec.arclength(t_Q) - Q).max() < 1e-15


@pytest.mark.parametrize("kind", NATIVE_KINDS)
def test_landing_frame_comes_from_the_last_residual(native_tables, kind, monkeypatch):
    from hoferbilliards import billiard

    table = native_tables[kind]
    frames, solved = [], []
    inner_solve, inner_frame = billiard.newton_bisect, type(table).native_frame

    def solve(*args, **kwargs):
        t = inner_solve(*args, **kwargs)
        solved.append(True)
        return t

    def frame(self, t):
        frames.append(bool(solved))
        return inner_frame(self, t)

    monkeypatch.setattr(billiard, "newton_bisect", solve)
    monkeypatch.setattr(type(table), "native_frame", frame)
    rng = np.random.default_rng(9)
    q, p = rng.uniform(0, 1, 200), rng.uniform(-0.95, 0.95, 200)
    Q, P, _, _, pos_Q, tan_Q, t_Q = forward_chord(table, q, p)
    assert solved == [True] and frames and not any(frames)
    monkeypatch.undo()
    # the carried frame is the frame at the returned landing parameter, up to
    # the last bit: the kernels' matrix products may round a point evaluated
    # in a small batch differently from the same point in a large one
    pos, tan, _ = table.native_frame(t_Q)
    assert np.abs(pos_Q - pos).max() <= 1e-15 and np.abs(tan_Q - tan).max() <= 1e-15


@PROPERTY
@given(s=st.floats(0.0, 1.0), Q=st.floats(0.0, 1.0), P=st.floats(-0.95, 0.95))
def test_value_arrays_seed_is_arc_length(s, Q, P):
    path = ho.support_interp_path(FourierSupportSpec(1.0), FourierSupportSpec(1.0, cos=[0.0, 0.05]))
    table = path.table(s)
    Qa, Pa = np.array([Q]), np.array([P])
    _, qs, _ = ho.HamiltonianField(path).solve(s, Qa, Pa)
    # the backward chord from (Q, -P) lands on qs: forward from qs reaches (Q, P)
    assert np.all(qs > Qa) and np.all(qs < Qa + 1.0)
    d = table.position(Qa) - table.position(qs)
    u = d / np.linalg.norm(d, axis=-1, keepdims=True)
    assert np.abs(np.sum(u * table.tangent(Qa), axis=-1) - Pa).max() <= 1e-11


@pytest.mark.parametrize("kind", NATIVE_KINDS)
@PROPERTY
@given(
    q=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=5),
    p=st.lists(st.floats(-0.95, 0.95), min_size=5, max_size=5),
    steps=st.integers(-12, 12),
)
def test_trajectory_rows_obey_reflection_law(native_tables, kind, q, p, steps):
    table = native_tables[kind]
    q = np.asarray(q)
    p = np.asarray(p[: q.size])
    qs, ps = trajectory_arrays(table, q, p, steps)
    assert qs.shape == ps.shape == (abs(steps) + 1, q.size)
    assert np.all(qs >= 0.0) and np.all(qs <= 1.0)
    assert np.array_equal(qs[0], np.mod(q, 1.0)) and np.array_equal(ps[0], p)
    if steps:
        # the first bounce is the single-bounce solve, bit for bit
        # (a backward bounce is the time reversal of a forward one)
        sign = 1.0 if steps > 0 else -1.0
        Q1, P1 = forward_chord(table, q, sign * p)[:2]
        assert np.array_equal(qs[1], np.mod(Q1, 1.0)) and np.array_equal(ps[1], sign * P1)
    # a forward bounce takes row k to row k + 1, a backward one row k + 1 to row k
    src, dst = (qs[:-1], ps[:-1]), (qs[1:], ps[1:])
    if steps < 0:
        src, dst = dst, src
    out, back = reflection_defects(table, *src, *dst)
    assert out.max(initial=0.0) <= 1e-11 and back.max(initial=0.0) <= 1e-11


@pytest.mark.parametrize("kind", NATIVE_KINDS)
def test_iterate_there_and_back(native_tables, kind):
    table = native_tables[kind]
    x = AnnulusPoint(0.23, 0.41)
    fwd = iterate(table, x, 15)
    back = iterate(table, fwd[-1], -15)
    assert len(back) == 16
    for a, b in zip(fwd, back[::-1]):
        assert circ_dist(a.q, b.q) < 1e-9 and abs(a.p - b.p) < 1e-9


def test_iterate_reports_grazing_step(disc):
    with pytest.raises(NearGrazing) as info:
        iterate(disc, AnnulusPoint(0.2, 1 - 1e-10), 3)
    assert info.value.step == 1


@pytest.mark.parametrize("steps", [1, 9, 40])
def test_trajectories_invert_arc_length_once(mild_ellipse, monkeypatch, tmp_path, steps):
    calls = []
    inner = FourierTable.native_of_q

    def counted(self, q):
        calls.append(np.size(q))
        return inner(self, q)

    monkeypatch.setattr(FourierTable, "native_of_q", counted)
    iterate(mild_ellipse, AnnulusPoint(0.1, 0.3), steps)
    iterate(mild_ellipse, AnnulusPoint(0.1, 0.3), -steps)
    assert calls == [1, 1]

    calls.clear()
    spec = tmp_path / "table.json"
    spec.write_text('{"type": "fourier_support", "c0": 1.0, "cos": [0.0, 0.03]}')
    argv = ["map", "portrait", "--table", str(spec), "--seeds", "5", "--steps", str(steps),
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert calls == [5]
    rows = np.loadtxt(tmp_path / "portrait.csv", delimiter=",", skiprows=1)
    # orbit-major row order: every orbit's steps 0..steps, one orbit after another
    assert np.array_equal(rows[:, 0], np.repeat(np.arange(5.0), steps + 1))
    assert np.array_equal(rows[:, 1], np.tile(np.arange(steps + 1.0), 5))
