import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoferbilliards import FourierSupportSpec, build_fourier_table, rigid_motion
from hoferbilliards import dynamics as dy
from hoferbilliards import smoothing as sm
from hoferbilliards.curves import FourierTable, circ_dist, unit_square
from hoferbilliards.errors import DiagonalPoint, InconsistentChords

from conftest import (
    native_newton_orbit,
    phase_fixed_points,
    random_support_spec,
    same_orbit,
    scalar_newton_orbit,
    tuple_from_phase_point,
)

NATIVE_KINDS = ["disc", "mild_ellipse", "sampled", "mark_shifted", "rigid"]

DIAMETER_ACTION = 2 / np.pi
TRIANGLE_ACTION = 3 * np.sqrt(3) / (2 * np.pi)


def test_functional_values(disc):
    assert dy.orbit_functional(disc, [0.0, 0.5]) == pytest.approx(DIAMETER_ACTION, abs=1e-14)
    assert dy.orbit_functional(disc, [0.0, 1 / 3, 2 / 3]) == pytest.approx(TRIANGLE_ACTION, abs=1e-14)


def test_functional_cyclic_shift(disc):
    qs = [0.1, 0.35, 0.8]
    assert dy.orbit_functional(disc, qs) == dy.orbit_functional(disc, [0.35, 0.8, 0.1])


def test_functional_diagonal_guard(disc):
    with pytest.raises(DiagonalPoint):
        dy.orbit_functional(disc, [0.2, 0.2])


def test_gradient_closed_orbits(disc):
    assert np.abs(dy.orbit_gradient(disc, [0.0, 0.5])).max() < 1e-14
    assert np.abs(dy.orbit_gradient(disc, [0.0, 1 / 3, 2 / 3])).max() < 1e-14


def test_gradient_matches_finite_differences(mild_ellipse):
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(10):
        qs = np.sort(rng.uniform(0, 1, 3))
        if circ_dist(qs, np.roll(qs, -1)).min() < 0.05:
            continue
        g = dy.orbit_gradient(mild_ellipse, qs)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (dy.orbit_functional(mild_ellipse, qs + e) - dy.orbit_functional(mild_ellipse, qs - e)) / (2 * h)
            assert abs(fd - g[i]) < 1e-6


def test_functional_isometry_invariance(mild_ellipse):
    g = rigid_motion(mild_ellipse, 0.9, (0.2, -0.4))
    qs = [0.05, 0.42, 0.77]
    assert dy.orbit_functional(g, qs) == pytest.approx(dy.orbit_functional(mild_ellipse, qs), abs=1e-12)


@pytest.mark.parametrize("kind", ["mild_ellipse", "sampled", "mark_shifted", "rigid"])
def test_hessian_matches_gradient_differences(native_tables, kind):
    table = native_tables[kind]
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(4):
        qs = np.sort(rng.uniform(0, 1, 4))
        if circ_dist(qs, np.roll(qs, -1)).min() < 0.05:
            continue
        H = dy._hessian(*dy._orbit_frame(table, qs))
        fd = np.empty_like(H)
        for i in range(qs.size):
            e = np.zeros(qs.size)
            e[i] = h
            fd[:, i] = (dy.orbit_gradient(table, qs + e) - dy.orbit_gradient(table, qs - e)) / (2 * h)
        assert np.abs(H - fd).max() < 1e-6 * max(1.0, np.abs(H).max())


def _hessian_loop(u, dist, tan, kappa):
    """Oracle for the vectorized ``_hessian``: the same sums, assembled chord by chord."""
    n = dist.size
    gpp = kappa[:, None] * np.stack([-tan[:, 1], tan[:, 0]], axis=-1)
    H = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        ui = u[i]
        p = float(ui @ tan[i])
        P = float(ui @ tan[j])
        H[i, i] += (1 - p * p) / dist[i] - float(ui @ gpp[i])
        H[j, j] += (1 - P * P) / dist[i] + float(ui @ gpp[j])
        cross = -(float(tan[i] @ tan[j]) - p * P) / dist[i]
        H[i, j] += cross
        H[j, i] += cross
    return H


@pytest.mark.parametrize("kind", NATIVE_KINDS)
def test_hessian_matches_chord_loop_bit_for_bit(native_tables, kind):
    table = native_tables[kind]
    rng = np.random.default_rng(8)
    for n in range(2, 7):
        stack = []
        for _ in range(6):
            # jittered n-gon tuples: neighbours at least 0.4/n apart, in any cyclic order
            qs = np.mod(rng.uniform() + (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n, 1.0)
            if n > 2 and rng.uniform() < 0.5:
                qs = rng.permutation(qs)
            frame = dy._orbit_frame(table, qs)
            assert np.array_equal(dy._hessian(*frame), _hessian_loop(*frame))
            stack.append(qs)
        # a stack of tuples: each matrix and gradient of the stacked kernels
        # equals the one built from that tuple's rows of the stacked frame
        frames = dy._orbit_frame(table, np.array(stack))
        H, g = dy._hessian(*frames), dy._gradient(frames[0], frames[2])
        for k in range(len(stack)):
            rows = [a[k] for a in frames]
            assert np.array_equal(H[k], _hessian_loop(*rows))
            assert np.array_equal(g[k], dy._gradient(rows[0], rows[2]))


def _counted(monkeypatch, cls, name):
    """Record the argument of every call of the method ``name`` on tables of class ``cls``."""
    calls = []
    inner = getattr(cls, name)

    def counted(self, x):
        calls.append(np.array(x, dtype=float))
        return inner(self, x)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _counted_hessians(monkeypatch):
    """Record the stack size of every ``_hessian`` call."""
    hessians = []
    inner = dy._hessian

    def counted(*frame):
        hessians.append(frame[1].shape[0])
        return inner(*frame)

    monkeypatch.setattr(dy, "_hessian", counted)
    return hessians


def _assert_native_oracle(table, seed, res):
    """The stacked result of one seed is the native oracle's, tuple and residual to 1e-12."""
    oracle = native_newton_orbit(table, seed)
    assert np.abs(res[0] - oracle[0]).max() < 1e-12
    assert res[1] == pytest.approx(oracle[1], abs=1e-12)


def test_orbit_newton_inverts_arc_length_once_per_search(mild_ellipse, monkeypatch):
    # under the native step rule the first seed runs to the 60-step cap at
    # residual 2.5e-2; the second converges
    for seed, converges in (([0.05, 0.38, 0.71], False), ([0.02, 0.35, 0.69], True)):
        with monkeypatch.context() as m:
            inversions = _counted(m, FourierTable, "native_of_q")
            frames = _counted(m, FourierTable, "q_of_native")
            hessians = _counted_hessians(m)
            ((qs, residual),) = dy._newton_orbit(mild_ellipse, [seed])
        _assert_native_oracle(mild_ellipse, seed, (qs, residual))
        if converges:
            assert residual < dy.ACCEPT_RESIDUAL and len(hessians) >= 2
        else:
            assert residual > 1e-2 and len(hessians) == 60
        # one inversion, of the seed; every iterate reads its tuple in closed
        # form, and every iterate but the last takes one Newton step
        assert [q.shape for q in inversions] == [(1, 3)]
        assert len(frames) == len(hessians) + 1


def test_orbit_newton_stack_takes_one_frame_per_iteration(mild_ellipse, monkeypatch):
    seeds = [[0.05, 0.38, 0.71], [0.02, 0.35, 0.69], [0.1, 0.5, 0.6], [0.3, 0.2, 0.9]]
    inversions = _counted(monkeypatch, FourierTable, "native_of_q")
    frames = _counted(monkeypatch, FourierTable, "q_of_native")
    hessians = _counted_hessians(monkeypatch)
    results = dy._newton_orbit(mild_ellipse, seeds)
    monkeypatch.undo()
    for seed, res in zip(seeds, results):
        _assert_native_oracle(mild_ellipse, seed, res)
    assert [res[1] < dy.ACCEPT_RESIDUAL for res in results] == [False, True, True, True]
    # arc length is inverted once, on the seed stack; each iteration reads the
    # frame of every active seed, and the seeds that step are the ones the
    # next iteration reads; the first seed steps alone up to the cap
    assert [q.shape for q in inversions] == [(4, 3)]
    assert [t.shape for t in frames] == [(4, 3)] + [(a, 3) for a in hessians]
    assert hessians == sorted(hessians, reverse=True)
    assert hessians[0] == 4 and hessians[-1] == 1 and len(hessians) == 60


def test_orbit_newton_converged_seed_leaves_the_stack(disc, monkeypatch):
    # the diameter is critical to rounding: its seed stops at the first frame
    # while the other seed still steps
    assert np.abs(dy.orbit_gradient(disc, [0.0, 0.5])).max() < 1e-13
    inversions = _counted(monkeypatch, type(disc), "native_of_q")
    frames = _counted(monkeypatch, type(disc), "q_of_native")
    results = dy._newton_orbit(disc, [[0.0, 0.5], [0.1, 0.45]])
    assert results[0][0].tolist() == [0.0, 0.5]
    assert results[1][1] < dy.ACCEPT_RESIDUAL
    assert [q.shape for q in inversions] == [(2, 2)]
    assert len(frames) > 2
    assert [t.shape for t in frames] == [(2, 2)] + [(1, 2)] * (len(frames) - 1)


def _iterates(monkeypatch, table, run):
    """The native tuples at which a Newton run reads its frames, one row per iteration."""
    frames = _counted(monkeypatch, type(table), "q_of_native")
    result = run()
    monkeypatch.undo()
    return result, np.array([t.reshape(-1) for t in frames])


@pytest.mark.parametrize("kind", ["mild_ellipse", "sampled", "rigid"])
def test_orbit_newton_iterates_follow_the_scalar_oracle(native_tables, kind, monkeypatch):
    """Seed by seed, the stacked iteration takes the native oracle's damped
    steps and stops at the oracle's iterate."""
    table = native_tables[kind]
    clipped = []
    for seed in ([0.05, 0.38, 0.71], [0.3, 0.2, 0.9], [0.02, 0.52], [0.4, 0.45]):
        (stacked,), path = _iterates(monkeypatch, table, lambda: dy._newton_orbit(table, [seed]))
        oracle, oracle_path = _iterates(monkeypatch, table, lambda: native_newton_orbit(table, seed))
        assert len(path) == len(oracle_path)
        assert np.abs(path - oracle_path).max() < 1e-9
        assert np.abs(stacked[0] - oracle[0]).max() < 1e-12
        # each step in t is a step in q of max-norm at most 0.1 over dq/dt
        steps = np.abs(np.diff(path, axis=0) * table.native_frame(path[:-1])[2]).max(axis=1)
        assert steps.max() <= 0.1 * (1 + 1e-12)
        clipped.append(np.isclose(steps, 0.1, rtol=1e-12, atol=0).sum())
    # the damping clip is active on some steps
    assert sum(clipped) >= 4


def test_orbit_newton_diagonal_seed_drops_out_alone(mild_ellipse):
    seeds = [[0.05, 0.38, 0.71], [0.2, 0.2, 0.6], [0.1, 0.5, 0.6], [0.02, 0.35, 0.69]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = dy._newton_orbit(mild_ellipse, seeds)
    assert results[1] is None
    for k in (0, 2, 3):
        _assert_native_oracle(mild_ellipse, seeds[k], results[k])
    # the first seed runs to the step cap, the last two converge
    assert [results[k][1] < dy.ACCEPT_RESIDUAL for k in (0, 2, 3)] == [False, True, True]


def _oracle_residual(table, qs):
    """|gradient| at a tuple, from a frame of that tuple alone."""
    u, _, tan, _ = dy._orbit_frame(table, qs)
    return float(np.abs(dy._gradient(u, tan)).max())


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    table_seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3]),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=16),
)
def test_stacked_newton_matches_scalar_oracle(table_seed, n, picks):
    rng = np.random.default_rng(table_seed)
    table = build_fourier_table(random_support_spec(rng))
    pool = rng.uniform(0.0, 1.0, (8, n))
    # the last pooled seed starts on the diagonal; repeated picks put
    # duplicate seeds in the stack
    pool[7, 1] = pool[7, 0]
    seeds = pool[picks]
    stacked = dy._newton_orbit(table, seeds)
    assert len(stacked) == len(seeds)
    for seed, res in zip(seeds, stacked):
        oracle = native_newton_orbit(table, seed)
        assert (res is None) == (oracle is None)
        if res is None:
            continue
        qs, residual = res
        assert residual == pytest.approx(_oracle_residual(table, qs), abs=1e-12)
        if oracle[1] <= dy.ACCEPT_RESIDUAL:
            assert _oracle_residual(table, qs) <= dy.ACCEPT_RESIDUAL
    first = {}
    for pick, res in zip(picks, stacked):
        ref = first.setdefault(pick, res)
        assert (res is None and ref is None) or np.array_equal(res[0], ref[0])


def _converged_results(monkeypatch):
    """Record every seed's ``_newton_orbit`` result, tagging arc-length inversions made inside it."""
    results, inside = [], []
    inner = dy._newton_orbit

    def recorded(table, seeds):
        inside.append(True)
        try:
            res = inner(table, seeds)
        finally:
            inside.pop()
        results.extend(res)
        return res

    monkeypatch.setattr(dy, "_newton_orbit", recorded)
    return results, inside


def _is_candidate(res):
    """The search's filter: a converged, non-diagonal tuple."""
    if res is None:
        return False
    qs, residual = res
    return residual <= dy.ACCEPT_RESIDUAL and circ_dist(qs, np.roll(qs, -1)).min() >= 1e-9


def test_orbit_search_inverts_arc_length_once_per_candidate(mild_ellipse, monkeypatch):
    results, inside = _converged_results(monkeypatch)
    outside = []
    inner = FourierTable.theta_of_q

    def counted(self, q):
        if not inside:
            outside.append(np.size(q))
        return inner(self, q)

    monkeypatch.setattr(FourierTable, "theta_of_q", counted)
    found = dy.find_periodic_orbits(mild_ellipse, 3, seed_count=12, rng=2)
    candidates = sum(map(_is_candidate, results))
    # duplicates of an accepted class are the common case, and skip validation
    assert candidates > 2 * len(found) > 0
    # one frame per candidate, one trajectory start per accepted class (the
    # search used five inversions per candidate before sharing the frame)
    assert len(outside) <= candidates + len(found)


def _validate_then_deduplicate(table, n, results):
    """Oracle: every candidate rebuilt one quantity at a time, each from its own frame,
    validated, then deduplicated."""
    found = []
    for res in results:
        if not _is_candidate(res):
            continue
        qs, residual = res
        eig = np.linalg.eigvalsh(dy._hessian(*dy._orbit_frame(table, qs)))
        _, p = dy.orbit_phase_point(table, qs)
        phase_err = dy._phase_validation(table, qs, p)
        cand = dy.PeriodicOrbitCandidate(
            qs=tuple(float(v) for v in qs),
            n=n,
            action=dy.orbit_functional(table, qs),
            residual=residual,
            accepted=bool(residual < dy.ACCEPT_RESIDUAL and phase_err < dy.PHASE_TOL),
            degenerate_family=bool(np.abs(eig).min() < 1e-6 * max(1.0, np.abs(eig).max())),
            phase_error=float(phase_err),
            winding=int(np.rint(np.sum(np.mod(np.diff(np.concatenate([qs, qs[:1]])), 1.0)))),
        )
        if cand.accepted and not any(same_orbit(cand, other) for other in found):
            found.append(cand)
    found.sort(key=lambda c: (c.action, c.qs))
    return found


def _class(qs, degenerate):
    return dy.PeriodicOrbitCandidate(
        qs=tuple(float(v) for v in qs), n=len(qs), action=0.0, residual=0.0,
        accepted=True, degenerate_family=degenerate, phase_error=0.0,
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_deduplication_decides_as_the_pairwise_oracle(n):
    """One stacked ``_seen`` test against every accepted class decides as
    the pairwise ``same_orbit`` against each class, on near-images of the
    classes whose distances straddle both tolerances."""
    rng = np.random.default_rng(n)
    classes = [_class(np.sort(rng.uniform(0.0, 1.0, n)), k % 2 == 1) for k in range(4)]
    images = np.concatenate([dy._images(c.qs) for c in classes])
    family = np.repeat([c.degenerate_family for c in classes], 2 * n)
    decisions = []
    for _ in range(600):
        image = dy._images(classes[rng.integers(4)].qs)[rng.integers(2 * n)]
        rotation = rng.uniform() if rng.uniform() < 0.5 else 0.0
        noise = 10.0 ** rng.uniform(-8, -3) * rng.uniform(-1.0, 1.0, n)
        qs = np.mod(image + rotation + noise, 1.0)
        degenerate = bool(rng.uniform() < 0.5)
        seen = dy._seen(qs, degenerate, images, family)
        assert seen == any(same_orbit(_class(qs, degenerate), c) for c in classes)
        decisions.append((seen, degenerate and rotation > 0.0))
    # both outcomes occur, for plain repeats and for rotated family members
    assert {(True, False), (False, False), (True, True), (False, True)} <= set(decisions)


@pytest.mark.parametrize("kind", NATIVE_KINDS)
def test_orbit_search_matches_validate_then_deduplicate_oracle(native_tables, kind, monkeypatch):
    table = native_tables[kind]
    results, _ = _converged_results(monkeypatch)
    for n in (2, 3):
        results.clear()
        found = dy.find_periodic_orbits(table, n, seed_count=6, rng=n)
        assert found
        oracle = _validate_then_deduplicate(table, n, results)
        assert [c.to_json() for c in found] == [c.to_json() for c in oracle]


@pytest.mark.parametrize("kind", NATIVE_KINDS)
def test_orbit_search_matches_scalar_oracle_search(native_tables, kind, monkeypatch):
    table = native_tables[kind]
    for n in (2, 3):
        found = dy.find_periodic_orbits(table, n, seed_count=6, rng=n)
        with monkeypatch.context() as m:
            m.setattr(dy, "_newton_orbit", lambda t, seeds: [scalar_newton_orbit(t, s) for s in seeds])
            oracle = dy.find_periodic_orbits(table, n, seed_count=6, rng=n)
        assert len(found) == len(oracle) > 0
        for a, b in zip(found, oracle):
            assert abs(a.action - b.action) < 1e-12
            assert (a.winding, a.degenerate_family, a.accepted) == (b.winding, b.degenerate_family, b.accepted)


@pytest.mark.parametrize("kind", NATIVE_KINDS)
def test_orbit_search_inverts_arc_length_once_inside_newton(native_tables, kind, monkeypatch):
    table = native_tables[kind]
    results, inside = _converged_results(monkeypatch)
    calls = []
    inner = type(table).native_of_q

    def counted(self, q):
        if inside:
            calls.append(np.shape(q))
        return inner(self, q)

    monkeypatch.setattr(type(table), "native_of_q", counted)
    for n in (2, 3):
        results.clear()
        calls.clear()
        dy.find_periodic_orbits(table, n, seed_count=6, rng=n)
        # the stacked Newton inverts arc length once, on its seed stack
        assert calls == [(len(results), n)]


def _search_with(newton, table, n, rng):
    """``find_periodic_orbits`` run with ``newton`` as its stacked Newton:
    the classes found and the number of seeds that became candidates."""
    candidates = []

    def recorded(t, seeds):
        res = newton(t, seeds)
        candidates.extend(map(_is_candidate, res))
        return res

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dy, "_newton_orbit", recorded)
        found = dy.find_periodic_orbits(table, n, seed_count=6, rng=rng)
    return found, sum(candidates)


# seeded non-round tables: 2 to 5 harmonics, amplitudes 0.03 and 0.05
COMPLETENESS_TABLES = [(k, 2 + k % 4, 0.05 if k % 2 else 0.03) for k in range(16)]


def test_native_search_finds_every_class_of_the_arc_length_search():
    """The native step rule loses no class that the arc-length reference
    search finds, and converges at least as many seeds over the table list."""
    native = dy._newton_orbit

    def reference(table, seeds):
        return [scalar_newton_orbit(table, s) for s in seeds]

    converged = np.zeros(2, dtype=int)
    for k, harmonics, amplitude in COMPLETENESS_TABLES:
        table = build_fourier_table(random_support_spec(np.random.default_rng(k), harmonics, amplitude))
        for n in (2, 3):
            found, native_count = _search_with(native, table, n, k)
            oracle, reference_count = _search_with(reference, table, n, k)
            assert oracle
            for b in oracle:
                assert any(same_orbit(a, b) and abs(a.action - b.action) < 1e-12 for a in found), (k, n, b)
            converged += native_count, reference_count
    assert converged[0] >= converged[1]


def test_disc_orbits(disc):
    orb2 = dy.find_periodic_orbits(disc, 2, seed_count=8, rng=0)
    assert len(orb2) == 1
    assert orb2[0].degenerate_family
    assert orb2[0].action == pytest.approx(DIAMETER_ACTION, abs=1e-9)
    orb3 = dy.find_periodic_orbits(disc, 3, seed_count=8, rng=0)
    assert all(o.degenerate_family for o in orb3)
    assert orb3[0].action == pytest.approx(TRIANGLE_ACTION, abs=1e-9)


def test_ellipse_two_axis_orbits(mild_ellipse):
    orbs = dy.find_periodic_orbits(mild_ellipse, 2, seed_count=16, rng=1)
    assert len(orbs) == 2
    major = 2 * np.linalg.norm(mild_ellipse.position(0.0) - mild_ellipse.position(0.5))
    minor = 2 * np.linalg.norm(mild_ellipse.position(0.25) - mild_ellipse.position(0.75))
    actions = sorted(o.action for o in orbs)
    assert actions[0] == pytest.approx(minor, abs=1e-9)
    assert actions[1] == pytest.approx(major, abs=1e-9)
    assert not any(o.degenerate_family for o in orbs)


def test_accepted_orbits_are_phase_fixed_points(mild_ellipse):
    for n in (2, 3):
        for orb in dy.find_periodic_orbits(mild_ellipse, n, seed_count=12, rng=2):
            assert orb.phase_error < 1e-8


def test_phase_oracle_agreement(mild_ellipse):
    for n in (2, 3):
        fps = phase_fixed_points(mild_ellipse, n, seed_count=10, rng=3)
        assert fps, "oracle found nothing"
        for q, p in fps:
            qs = tuple_from_phase_point(mild_ellipse, q, p, n)
            assert np.abs(dy.orbit_gradient(mild_ellipse, qs)).max() < 1e-8


def test_functional_gap_trivial(disc):
    rep = dy.functional_gap(disc, disc, 2)
    assert rep.gap == 0.0


def test_functional_gap_translation_invariant(disc):
    moved = rigid_motion(disc, 0.0, (0.2, 0.1))
    rep = dy.functional_gap(disc, moved, 2)
    assert rep.gap < 1e-12


def test_functional_gap_bound(disc, mild_ellipse, spec_factory):
    rep = dy.functional_gap(disc, mild_ellipse, 2)
    assert rep.gap <= rep.bound
    assert rep.gap > 0
    rng = np.random.default_rng(4)
    for _ in range(3):
        a = build_fourier_table(spec_factory(rng))
        b = build_fourier_table(spec_factory(rng))
        for n in (2, 3):
            rep = dy.functional_gap(a, b, n, m=32)
            assert rep.gap <= rep.bound


def test_functional_gap_passes_within_its_rounding():
    assert dy.FunctionalGap(gap=1.0 + 1e-10, bound=1.0, c0=0.25).passed
    assert not dy.FunctionalGap(gap=1.0 + 1e-8, bound=1.0, c0=0.25).passed


def test_almost_periodicity_identical(disc):
    orb = dy.find_periodic_orbits(disc, 2, seed_count=4, rng=0)[0]
    rep = dy.almost_periodicity_experiment(disc, disc, orb, 2, radius=0.05, samples=60, rng=0)
    assert rep.min_distance == 0.0


def test_almost_periodicity_translated(disc):
    orb = dy.find_periodic_orbits(disc, 2, seed_count=4, rng=0)[0]
    moved = rigid_motion(disc, 0.0, (0.15, -0.3))
    rep = dy.almost_periodicity_experiment(disc, moved, orb, 2, radius=0.05, samples=60, rng=0)
    assert rep.min_distance < 1e-9


def test_almost_periodicity_sweep(disc):
    orb = dy.PeriodicOrbitCandidate(
        qs=(0.13, 0.63), n=2, action=DIAMETER_ACTION, residual=0.0,
        accepted=True, degenerate_family=True, phase_error=0.0,
    )
    mins = []
    for coef in (0.04, 0.02, 0.01, 0.005):
        el = build_fourier_table(FourierSupportSpec(1.0, cos=[0.0, coef]))
        rep = dy.almost_periodicity_experiment(disc, el, orb, 2, radius=0.05, samples=100, rng=3)
        mins.append(rep.min_distance)
    assert all(a > b for a, b in zip(mins, mins[1:]))
    assert rep.geometric_upper_bound is not None
    assert rep.bound_missing is None


def test_almost_periodicity_reports_missing_bound(disc):
    orb = dy.PeriodicOrbitCandidate(
        qs=(0.13, 0.63), n=2, action=DIAMETER_ACTION, residual=0.0,
        accepted=True, degenerate_family=True, phase_error=0.0,
    )
    # radius of curvature dips to -1e-3 at eight normal angles: the support
    # interpolation from the disc leaves the convex class near s = 1
    dented = FourierTable(FourierSupportSpec(1.0, cos=[0.0] * 7 + [1 / 63 + 1e-4]).normalized())
    rep = dy.almost_periodicity_experiment(disc, dented, orb, 2, radius=0.05, samples=40, rng=0)
    assert rep.geometric_upper_bound is None
    assert rep.bound_missing.startswith("CurvatureNotPositive: ")
    assert rep.to_json()["bound_missing"] == rep.bound_missing

    smoothed = sm.family_from_polygon(unit_square()).curve(0.5)
    rep = dy.almost_periodicity_experiment(disc, smoothed, orb, 2, radius=0.05, samples=20, rng=0)
    assert rep.geometric_upper_bound is None
    assert rep.bound_missing == "a table has no support spec"


def test_reconstruction_disc(disc):
    assert dy.reconstruction_roundtrip_error(disc) < 1e-8


def test_reconstruction_random_table(spec_factory):
    rng = np.random.default_rng(5)
    t = build_fourier_table(spec_factory(rng))
    assert dy.reconstruction_roundtrip_error(t) < 1e-6


def test_reconstruction_corrupted_chord(disc):
    data = dy.table_chord_data(disc, 128)
    data.from_start[40] += 0.1
    try:
        t, pts = dy.reconstruct_table(data)
    except InconsistentChords:
        return
    aligned = dy.align_two_anchors(pts, t, disc)
    err = np.linalg.norm(aligned - disc.position(t), axis=-1)
    spike = int(np.argmax(err))
    assert err.max() > 0.01
    # corruption stays local: neighbors are fine
    others = np.delete(err, spike)
    assert others.max() < 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_chord_data_json_round_trip(seed, spec_factory, tmp_path):
    rng = np.random.default_rng(seed)
    data = dy.table_chord_data(build_fourier_table(spec_factory(rng)), samples=int(rng.integers(3, 64)))
    path = tmp_path / "chords.json"
    path.write_text(json.dumps(data.to_json()))
    for source in (data.to_json(), str(path)):
        back = dy.ChordData.from_json(source)
        assert back.anchor == data.anchor
        for key in ("t", "from_start", "from_half"):
            assert np.array_equal(getattr(back, key), getattr(data, key))


def test_reconstruction_infeasible_raises():
    with pytest.raises(InconsistentChords):
        dy.reconstruct_table(
            dy.ChordData(t=np.array([0.25]), from_start=np.array([1.0]), from_half=np.array([0.05]), anchor=0.2)
        )


def test_reconstructed_table_curve(mild_ellipse):
    rt = dy.reconstructed_table(dy.table_chord_data(mild_ellipse, 256))
    assert rt.strictly_convex
    q = np.linspace(0, 1, 32, endpoint=False)
    c1 = np.linalg.norm(mild_ellipse.position(q) - mild_ellipse.position(q + 0.37), axis=-1)
    c2 = np.linalg.norm(rt.position(q) - rt.position(q + 0.37), axis=-1)
    assert np.abs(c1 - c2).max() < 1e-9
