import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hoferbilliards import FourierSupportSpec, c0_distance, chord_length
from hoferbilliards import homotopy as ho
from hoferbilliards.billiard import forward_chord
from hoferbilliards.errors import CurvatureNotPositive, PerturbationTooLarge

DISC_SPEC = FourierSupportSpec(1.0)
ELLIPSE_SPEC = FourierSupportSpec(1.0, cos=[0.0, 0.05])


@pytest.fixture(scope="module")
def ellipse_path():
    return ho.support_interp_path(DISC_SPEC, ELLIPSE_SPEC)


def test_translation_path_basics(disc):
    path = ho.translation_path(disc, (0.0, 0.0))
    assert ho.path_geometric_length(path, s_nodes=9, q_nodes=128) == 0.0

    path = ho.translation_path(disc, (0.1, 0.0))
    assert abs(ho.path_geometric_length(path) - 0.1) < 1e-12
    end = path.table(1.0)
    q = np.linspace(0, 1, 33)
    assert np.abs(end.position(q) - (disc.position(q) + [0.1, 0.0])).max() < 1e-12


def test_support_interp_constant(disc):
    path = ho.support_interp_path(DISC_SPEC, DISC_SPEC)
    assert ho.path_geometric_length(path, s_nodes=9, q_nodes=256) < 1e-14


def test_support_interp_rejects_nonconvex():
    with pytest.raises(CurvatureNotPositive):
        ho.support_interp_path(DISC_SPEC, FourierSupportSpec(1.0, cos=[0.0, 0.4]))


def test_support_interp_velocity_matches_fd(ellipse_path):
    q = np.array([0.05, 0.31, 0.62, 0.9])
    h = 1e-5
    for s in (0.25, 0.7):
        va = ellipse_path.velocity(s, q)
        vfd = (ellipse_path.table(s + h).position(q) - ellipse_path.table(s - h).position(q)) / (2 * h)
        assert np.abs(va - vfd).max() < 1e-9


def test_geometric_length_refinement_stable(ellipse_path):
    a = ho.path_geometric_length(ellipse_path, s_nodes=33, q_nodes=512)
    b = ho.path_geometric_length(ellipse_path, s_nodes=65, q_nodes=1024)
    assert abs(a - b) < 1e-4 * max(1e-12, abs(b))


def test_hamiltonian_translation_vanishes(disc):
    path = ho.translation_path(disc, (0.07, -0.02))
    hf = ho.HamiltonianField(path)
    rng = np.random.default_rng(0)
    H = hf.value_arrays(0.4, rng.uniform(0, 1, 50), rng.uniform(-0.9, 0.9, 50))
    assert np.abs(H).max() < 1e-15


def test_hamiltonian_rigid_path_vanishes(mild_ellipse):
    path = ho.rigid_motion_path(mild_ellipse, 0.8, (0.1, 0.3))
    hf = ho.HamiltonianField(path)
    rng = np.random.default_rng(1)
    H = hf.value_arrays(0.6, rng.uniform(0, 1, 50), rng.uniform(-0.9, 0.9, 50))
    assert np.abs(H).max() < 1e-12


def test_hamiltonian_boundary_decay(ellipse_path):
    hf = ho.HamiltonianField(ellipse_path)
    Q = np.linspace(0, 1, 64, endpoint=False)
    vmax = max(
        np.linalg.norm(ellipse_path.velocity(0.5, Q), axis=-1).max(), 1e-30
    )
    for sign in (+1.0, -1.0):
        Hb = np.abs(hf.value_arrays(0.5, Q, np.full(64, sign * (1 - 1e-6)))).max()
        assert Hb <= 1e-3 * vmax


def test_hamiltonian_matches_generating_fd(ellipse_path):
    s, Q, P = 0.5, 0.3, 0.2
    hf = ho.HamiltonianField(ellipse_path)
    H = hf.value(s, Q, P)
    table = ellipse_path.table(s)
    # the inverse bounce by time reversal: the backward chord from Q at -P
    qs = float(forward_chord(table, np.array([Q]), np.array([-P]))[0][0])
    h = 1e-4
    fd = (
        chord_length(ellipse_path.table(s + h), qs, Q)
        - chord_length(ellipse_path.table(s - h), qs, Q)
    ) / (2 * h)
    assert abs(H + fd) < 1e-6


def test_lemma_bound_on_samples(ellipse_path):
    hf = ho.HamiltonianField(ellipse_path)
    rng = np.random.default_rng(2)
    for s in (0.1, 0.5, 0.9):
        Q = rng.uniform(0, 1, 64)
        P = rng.uniform(-0.95, 0.95, 64)
        table = ellipse_path.table(s)
        H, qs, _ = hf.solve(s, Q, P)
        bound = np.linalg.norm(
            ellipse_path.velocity(s, qs) - ellipse_path.velocity(s, Q), axis=-1
        )
        assert np.all(np.abs(H) <= bound + 1e-9)


def test_hofer_length_translation(disc):
    path = ho.translation_path(disc, (0.05, 0.08))
    assert ho.hofer_length(path, s_nodes=5, q_grid=64, p_grid=31) < 1e-12


def test_hofer_inequality_chain(ellipse_path):
    l_h = ho.hofer_length(ellipse_path, s_nodes=9, q_grid=128, p_grid=63)
    mid = 2 * ho.generating_rate_integral(ellipse_path, s_nodes=9, pair_grid=128)
    l_b = ho.path_geometric_length(ellipse_path, s_nodes=33, q_nodes=512)
    slack = 1.01
    assert l_h <= mid * slack
    assert mid <= 4 * l_b * slack


def test_verify_comparison_translation(disc):
    path = ho.translation_path(disc, (0.02, 0.0))
    cert = ho.verify_comparison(path, s_nodes=5, q_grid=64, p_grid=31, lb_s_nodes=9, lb_q_nodes=128)
    assert cert.passed and cert.ratio == 0.0


def test_verify_comparison_ellipse(ellipse_path):
    cert = ho.verify_comparison(ellipse_path, s_nodes=9, q_grid=128, p_grid=63)
    assert cert.passed
    assert cert.ratio <= 4.04


def test_verify_comparison_random_paths(spec_factory):
    rng = np.random.default_rng(11)
    for _ in range(5):
        path = ho.support_interp_path(spec_factory(rng), spec_factory(rng))
        cert = ho.verify_comparison(path, s_nodes=9, q_grid=128, p_grid=63)
        assert cert.passed, cert.to_json()


def test_hj_residual_translation(disc):
    path = ho.translation_path(disc, (0.05, 0.0))
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(0, 1, 20), rng.uniform(-0.7, 0.7, 20)], axis=-1)
    assert ho.hamilton_jacobi_residual(path, 0.5, pts) < 1e-10


def test_hj_residual_small(ellipse_path):
    rng = np.random.default_rng(4)
    pts = np.stack([rng.uniform(0, 1, 100), rng.uniform(-0.9, 0.9, 100)], axis=-1)
    assert ho.hamilton_jacobi_residual(ellipse_path, 0.5, pts) < 1e-3


def test_hj_residual_second_order():
    # larger deformation so truncation dominates the solver noise floor
    path = ho.support_interp_path(DISC_SPEC, FourierSupportSpec(1.0, cos=[0.0, 0.08], sin=[0.0, 0.0, 0.04]))
    rng = np.random.default_rng(5)
    pts = np.stack([rng.uniform(0, 1, 30), rng.uniform(-0.8, 0.8, 30)], axis=-1)
    r_big = ho.hamilton_jacobi_residual(path, 0.5, pts, h=1.6e-2)
    r_small = ho.hamilton_jacobi_residual(path, 0.5, pts, h=4e-3)
    assert r_big >= 4 * r_small


def test_bracket_translation_tight(disc):
    path = ho.translation_path(disc, (0.0, 0.04))
    br = ho.bracket_dB(path)
    assert abs(br.lower - 0.04) < 1e-9
    assert abs(br.upper - 0.04) < 1e-9


def test_bracket_constant_zero(disc):
    path = ho.translation_path(disc, (0.0, 0.0))
    br = ho.bracket_dB(path, s_nodes=9, q_nodes=128)
    assert br.lower == 0.0 and br.upper == 0.0


def test_bracket_ordering(ellipse_path):
    br = ho.bracket_dB(ellipse_path)
    assert br.lower <= br.upper * (1 + 1e-6)
    assert br.upper > 0


def test_normal_perturbation_trivial(disc):
    res = ho.normal_perturbation_path(disc, np.zeros(256))
    assert res.bound == 0.0
    assert ho.path_geometric_length(res.path, s_nodes=9, q_nodes=128) < 1e-12


def test_normal_perturbation_bound(disc):
    q = np.arange(512) / 512
    f = 0.01 * np.cos(2 * np.pi * q)
    res = ho.normal_perturbation_path(disc, f)
    l_b = ho.path_geometric_length(res.path, s_nodes=17, q_nodes=256)
    assert l_b <= res.bound
    assert res.bound > 0


def test_normal_perturbation_too_large(disc):
    with pytest.raises((PerturbationTooLarge, CurvatureNotPositive)):
        ho.normal_perturbation_path(disc, np.full(256, 0.5))


COEFFS = st.lists(st.floats(-0.03, 0.03), min_size=8, max_size=8)


def _admissible(coeffs):
    spec = FourierSupportSpec(1.0, cos=coeffs[:4], sin=coeffs[4:])
    assume(spec.rho(np.linspace(0, 2 * np.pi, 512, endpoint=False)).min() > 0.02)
    return spec


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(a=COEFFS, b=COEFFS)
def test_geometric_length_bounds_endpoint_distance(a, b):
    # a path is at least as long as the C^0 distance of its ends, with
    # equality when one harmonic moves.  The last refinement pass of the
    # l_B sweep samples 1/512^2 of a turn apart, where a speed peak of these
    # paths reads low by at most about 1e-9 relative; one pass read up to 1e-7
    path = ho.support_interp_path(_admissible(a), _admissible(b))
    lower = c0_distance(path.table(0.0), path.table(1.0))
    assert ho.path_geometric_length(path, 33, 512) >= lower * (1.0 - 2e-9)


# --- the native-parameter l_B grid, checked against a q-grid oracle --------

# relative gap allowed between l_B on the native grid and the q-grid oracle:
# both read below the true max, the native grid by at most about 2.5e-10 on
# random 4-harmonic paths
LB_ORACLE_RTOL = 1e-9


def _q_grid_speed_max(path, s, nodes=8192):
    """max_q ||dgamma_s/ds||: a q-grid of ``nodes`` points and three 17-point passes in q.

    The velocity is evaluated at q alone, so arc length is inverted at every
    node and nothing reads the native parameter.
    """
    q = np.arange(nodes) / nodes
    mag = np.linalg.norm(path.velocity(s, q), axis=-1)
    j = int(np.argmax(mag))
    best, center, half = float(mag[j]), q[j], 1.0 / nodes
    for _ in range(3):
        local = center + np.linspace(-1.0, 1.0, 17) * half
        mag2 = np.linalg.norm(path.velocity(s, local), axis=-1)
        k = int(np.argmax(mag2))
        best, center = max(best, float(mag2[k])), local[k]
        half /= 8.0
    return best


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(a=COEFFS, b=COEFFS)
def test_native_grid_speed_matches_q_grid_oracle(a, b):
    path = ho.support_interp_path(_admissible(a), _admissible(b))
    x, w = ho.simpson_nodes(9)
    oracle = np.array([_q_grid_speed_max(path, float(s)) for s in x])
    native = np.array([path.speed_max(float(s), 512) for s in x])
    assert np.all(np.abs(native - oracle) <= LB_ORACLE_RTOL * oracle)
    l_b = ho.path_geometric_length(path, 9, 512)
    assert abs(l_b - float(oracle @ w)) <= LB_ORACLE_RTOL * float(oracle @ w)


def test_native_grid_speed_on_identity_parameter_is_the_q_grid(disc):
    # the disc's native parameter is q: the nodes are q_j = j / q_nodes, and
    # a velocity field peaked between two nodes is found by the passes alone
    def peaked_at(center):
        def vel(s, q, t):
            return np.stack([np.cos(2 * np.pi * (np.asarray(q) - center)), np.zeros(np.shape(q))], axis=-1)

        return ho.TablePath(lambda s: disc, vel)

    assert peaked_at(19 / 64).speed_max(0.5, 64) == 1.0
    # the last pass samples 1/32768 apart: cos reads at most 4.6e-9 low
    assert peaked_at(19.37 / 64).speed_max(0.5, 64) == pytest.approx(1.0, abs=5e-9)


# --- one refinement solve for both extremes ---------------------------------


def _oscillation_two_refinements(hf, s, q_grid, p_grid):
    """Oracle: the (Q, P) grid, then one separate 81-point solve per extreme."""
    pmax = 1.0 - 1.0 / 128.0
    Qg = np.arange(q_grid) / q_grid
    Pg = np.linspace(-pmax, pmax, p_grid)
    QQ, PP = np.meshgrid(Qg, Pg, indexing="ij")
    H = hf.value_arrays(s, QQ.ravel(), PP.ravel()).reshape(q_grid, p_grid)
    dq = Qg[1] - Qg[0] if q_grid > 1 else 0.5
    dp = Pg[1] - Pg[0] if p_grid > 1 else 0.1
    extremes = []
    for sign in (1.0, -1.0):
        i, j = np.unravel_index(int(np.argmax(sign * H)), H.shape)
        ql = Qg[i] + np.linspace(-dq, dq, 9)
        pl = np.clip(Pg[j] + np.linspace(-dp, dp, 9), -pmax, pmax)
        Ql, Pl = np.meshgrid(ql, pl, indexing="ij")
        Hl = hf.value_arrays(s, Ql.ravel(), Pl.ravel())
        extremes.append(sign * max(float(np.max(sign * H)), float(np.max(sign * Hl))))
    return extremes[0] - extremes[1]


@pytest.mark.parametrize("grids", [(32, 15), (64, 31), (1, 1)], ids=["32x15", "64x31", "1x1"])
def test_one_refinement_solve_matches_two(spec_factory, grids):
    rng = np.random.default_rng(17)
    paths = [ho.support_interp_path(spec_factory(rng), spec_factory(rng)) for _ in range(2)]
    paths.append(ho.support_interp_path(DISC_SPEC, ELLIPSE_SPEC))
    for path in paths:
        hf = ho.HamiltonianField(path)
        for s in (0.0, 0.35, 1.0):
            assert ho.hofer_oscillation(hf, s, *grids)[0] == _oscillation_two_refinements(hf, s, *grids)


# --- predictor seeds along s ------------------------------------------------


def _count_evaluations_per_node(monkeypatch):
    """Patch the bounce solver and hofer_oscillation: the list of residual points per s-node."""
    from hoferbilliards import billiard

    count, per_node = [0], []
    solve, oscillation = billiard.newton_bisect, ho.hofer_oscillation

    def counting(fun, *args, **kwargs):
        def counted(x, idx):
            count[0] += x.size
            return fun(x, idx)

        return solve(counted, *args, **kwargs)

    def recorded(*args, **kwargs):
        before = count[0]
        out = oscillation(*args, **kwargs)
        per_node.append(count[0] - before)
        return out

    monkeypatch.setattr(billiard, "newton_bisect", counting)
    monkeypatch.setattr(ho, "hofer_oscillation", recorded)
    return per_node


@pytest.mark.parametrize("seed", [23, 3])
def test_predictor_seeds_match_previous_node_seeds_with_fewer_evaluations(spec_factory, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    path = ho.support_interp_path(spec_factory(rng), spec_factory(rng))
    per_node = _count_evaluations_per_node(monkeypatch)
    l_h = ho.hofer_length(path, 9, 64, 31)
    predicted = list(per_node)
    # the oracle chain seeds each node with the landings of the node before
    per_node.clear()
    hf = ho.HamiltonianField(path)
    x, w = ho.simpson_nodes(9)
    vals, ts = np.empty(9), None
    for i, s in enumerate(x):
        vals[i], ts = ho.hofer_oscillation(hf, float(s), 64, 31, seed=ts)
    chained = list(per_node)
    assert abs(l_h - float(vals @ w)) <= 1e-14 * abs(l_h)
    # the first two nodes are seeded alike; from the third on, the 2- and
    # 3-node predictors each save Newton evaluations at every node
    assert predicted[:2] == chained[:2]
    assert all(p < c for p, c in zip(predicted[2:], chained[2:]))


# --- rigid motions ----------------------------------------------------------

# roundoff bounds of the rigid-motion invariance: H is read after bounce
# solves that stop at |residual| <= 1e-13, and on 12 random paths and
# motions it moved by at most 1.1e-14, l_H and l_B by 4.4e-16 relative
RIGID_H_ATOL = 1e-12
RIGID_LENGTH_RTOL = 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(
    a=COEFFS,
    b=COEFFS,
    angle=st.floats(-np.pi, np.pi),
    v=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
def test_hamiltonian_and_lengths_invariant_under_rigid_motion(a, b, angle, v):
    # moving every slice by one rigid motion g rotates the velocity by g's
    # angle and leaves chords, momenta and so H_s, l_H and l_B unchanged
    from hoferbilliards import rigid_motion

    path = ho.support_interp_path(_admissible(a), _admissible(b))
    c, sn = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -sn], [sn, c]])
    moved = ho.TablePath(
        lambda s: rigid_motion(path.table(s), angle, v),
        lambda s, q, t: path.velocity(s, q, t) @ rot.T,
    )
    Q, P = np.meshgrid(np.arange(16) / 16, np.linspace(-0.95, 0.95, 9), indexing="ij")
    for s in (0.0, 0.6):
        H = ho.HamiltonianField(path).value_arrays(s, Q.ravel(), P.ravel())
        Hm = ho.HamiltonianField(moved).value_arrays(s, Q.ravel(), P.ravel())
        assert np.abs(H - Hm).max() <= RIGID_H_ATOL
    l_h = ho.hofer_length(path, 5, 32, 15)
    assert abs(ho.hofer_length(moved, 5, 32, 15) - l_h) <= RIGID_LENGTH_RTOL * l_h
    l_b = ho.path_geometric_length(path, 9, 128)
    assert abs(ho.path_geometric_length(moved, 9, 128) - l_b) <= RIGID_LENGTH_RTOL * l_b
