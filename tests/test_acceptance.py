"""Acceptance suite: one test per certified claim, at its stated tolerance.

Each test prints a single PASS line with the measured quantities; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import filecmp
import subprocess
import sys
import time

import numpy as np
import pytest

from hoferbilliards import FourierSupportSpec, build_fourier_table, disc_table, unit_square
from hoferbilliards import dynamics as dy
from hoferbilliards import homotopy as ho
from hoferbilliards import persistence as pe
from hoferbilliards import smoothing as sm
from hoferbilliards.billiard import forward_chord, map_jacobian
from hoferbilliards.curves import circ_dist

from conftest import phase_fixed_points, random_support_spec, tuple_from_phase_point

DISC = disc_table()
ELLIPSE_SPEC = FourierSupportSpec(1.0, cos=[0.0, 0.03])
ELLIPSE = build_fourier_table(ELLIPSE_SPEC)


def _report(num, name, elapsed, limit, detail):
    print(f"criterion {num} ({name}): PASS in {elapsed:.2f}s (limit {limit}s) -- {detail}")


def test_criterion_01_disc_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(1)
    q = rng.uniform(0, 1, 1000)
    p = rng.uniform(-0.999, 0.999, 1000)
    Q, P = forward_chord(DISC, q, p)[:2]
    err = max(
        float(circ_dist(Q, q + np.arccos(p) / np.pi).max()),
        float(np.abs(P - p).max()),
    )
    elapsed = time.time() - t0
    assert err < 1e-10
    assert elapsed < 1.0
    _report(1, "disc closed form", elapsed, 1, f"max error {err:.2e}")


def test_criterion_02_symplecticity():
    t0 = time.time()
    worst = 0.0
    # a mild several-harmonic table: the finite-difference determinant probe
    # at step 1e-5 is truncation-limited, so extreme curvature oscillation
    # would swamp the 1e-6 certificate
    fourier = build_fourier_table(
        FourierSupportSpec(1.0, cos=[0.0, 0.02, 0.005], sin=[0.0, 0.0, 0.004])
    )
    for table in (DISC, fourier):
        qs = np.linspace(0, 1, 20, endpoint=False)
        ps = np.linspace(-0.95, 0.95, 20)
        QQ, PP = np.meshgrid(qs, ps)
        J = map_jacobian(table, QQ.ravel(), PP.ravel())
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        worst = max(worst, float(np.abs(det - 1).max()))
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 5.0
    _report(2, "symplecticity", elapsed, 5, f"max |det - 1| = {worst:.2e}")


def test_criterion_03_comparison_theorem():
    t0 = time.time()
    rng = np.random.default_rng(3)
    paths = [
        ho.translation_path(DISC, (0.05, 0.0)),
        ho.translation_path(ELLIPSE, (0.0, 0.1)),
        ho.translation_path(DISC, (-0.02, 0.03)),
    ]
    for _ in range(20):
        paths.append(ho.support_interp_path(random_support_spec(rng), random_support_spec(rng)))
    ratios = []
    for path in paths:
        cert = ho.verify_comparison(path)
        ratios.append(cert.ratio)
        assert cert.passed, cert.to_json()
        assert cert.ratio <= 4.0 * 1.01
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(3, "d_H <= 4 d_B", elapsed, 120, f"max ratio {max(ratios):.4f} over {len(paths)} paths")


def test_criterion_04_hamiltonian_lemma():
    t0 = time.time()
    path = ho.support_interp_path(FourierSupportSpec(1.0), FourierSupportSpec(1.0, cos=[0.0, 0.08]))
    hf = ho.HamiltonianField(path)
    Qs = np.linspace(0, 1, 64, endpoint=False)
    for sign in (+1.0, -1.0):
        decay = [
            float(np.abs(hf.value_arrays(0.5, Qs, np.full(64, sign * (1 - 10.0**-k)))).max())
            for k in range(2, 7)
        ]
        assert all(a > b for a, b in zip(decay, decay[1:])), decay
    rng = np.random.default_rng(4)
    pts = np.stack([rng.uniform(0, 1, 100), rng.uniform(-0.85, 0.85, 100)], axis=-1)
    res = ho.hamilton_jacobi_residual(path, 0.5, pts)
    assert res < 1e-3
    r0 = ho.hamilton_jacobi_residual(path, 0.5, pts, h=1.6e-2)
    r2 = ho.hamilton_jacobi_residual(path, 0.5, pts, h=4e-3)
    assert r0 >= 4.0 * r2
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, "Hamiltonian lemma", elapsed, 60,
            f"residual {res:.2e}, halving ratio {r0 / r2:.1f}, decay monotone")


def test_criterion_05_bracket():
    t0 = time.time()
    rng = np.random.default_rng(5)
    tr = ho.bracket_dB(ho.translation_path(DISC, (0.03, 0.04)))
    assert abs(tr.lower - 0.05) < 1e-9 and abs(tr.upper - 0.05) < 1e-9
    brackets = [tr]
    for _ in range(3):
        path = ho.support_interp_path(random_support_spec(rng), random_support_spec(rng))
        brackets.append(ho.bracket_dB(path, s_nodes=33, q_nodes=512))
    f = 0.008 * np.cos(2 * np.pi * np.arange(512) / 512)
    brackets.append(ho.bracket_dB(ho.normal_perturbation_path(DISC, f).path, s_nodes=17, q_nodes=256))
    fam = sm.family_from_polygon(unit_square())
    brackets.append(ho.bracket_dB(sm.restricted_path(fam, 0.25, 1.0), s_nodes=17, q_nodes=512))
    for br in brackets:
        assert br.lower <= br.upper * (1 + 1e-6) + 1e-15
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(5, "distance bracket", elapsed, 10,
            f"{len(brackets)} paths, translation equality at 1e-9")


def test_criterion_06_smoothing():
    t0 = time.time()
    fam = sm.family_from_polygon(unit_square())
    resid = max(
        abs(fam.length_at(s) - (fam.base_length - s * fam.total_delta))
        for s in np.linspace(0.05, 1.0, 20)
    )
    assert resid < 1e-9
    tail = sm.cauchy_tail(fam, 1.0)
    assert np.all(np.diff(tail.increments) < 0)
    final_inc = abs(tail.corrected[-1] - tail.corrected[-2])
    assert final_inc < 1e-3 * tail.value
    fam_b = sm.family_from_polygon(unit_square(), width=0.005)
    slope, _ = sm.independence_slope(fam, fam_b)
    assert 0.9 <= slope <= 1.1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(6, "polygon smoothing", elapsed, 300,
            f"affine residual {resid:.1e}, tail {tail.value:.4g}, slope {slope:.3f}")


def test_criterion_07_functional_bound():
    t0 = time.time()
    rng = np.random.default_rng(7)
    pairs = [
        (build_fourier_table(random_support_spec(rng)), build_fourier_table(random_support_spec(rng)))
        for _ in range(10)
    ]
    for a, b in pairs:
        for n in (2, 3):
            rep = dy.functional_gap(a, b, n, m=32)
            assert rep.passed and rep.gap <= rep.bound
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, "functional C0 bound", elapsed, 60, "10 pairs, n in {2, 3}, hard assertion held")


def test_criterion_08_orbit_oracles():
    t0 = time.time()
    orb2 = dy.find_periodic_orbits(DISC, 2, seed_count=8, rng=0)
    orb3 = dy.find_periodic_orbits(DISC, 3, seed_count=8, rng=0)
    assert abs(orb2[0].action - 2 / np.pi) < 1e-9
    assert abs(orb3[0].action - 3 * np.sqrt(3) / (2 * np.pi)) < 1e-9
    agreements = 0
    for n in (2, 3):
        for orb in dy.find_periodic_orbits(ELLIPSE, n, seed_count=12, rng=8):
            assert orb.phase_error < 1e-8
            agreements += 1
        for q, p in phase_fixed_points(ELLIPSE, n, seed_count=10, rng=9):
            qs = tuple_from_phase_point(ELLIPSE, q, p, n)
            assert np.abs(dy.orbit_gradient(ELLIPSE, qs)).max() < 1e-8
            agreements += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(8, "orbit oracle agreement", elapsed, 60,
            f"disc actions exact, {agreements} cross-validations at 1e-8")


def test_criterion_09_persistence():
    t0 = time.time()
    for n, m in ((2, 12), (3, 5)):
        bar = pe.sublevel_barcode(pe.sample_orbit_functional(DISC, n, m))
        assert pe.betti_numbers(bar) == pe.expected_torus_betti(n)
    rng = np.random.default_rng(9)
    for _ in range(15):
        def rand_bar():
            bars = []
            for _ in range(int(rng.integers(0, 4))):
                b = rng.uniform(0, 1)
                bars.append((b, b + rng.uniform(0.01, 1)))
            return pe.Barcode(2, {1: bars})

        A, B = rand_bar(), rand_bar()
        assert pe.bottleneck_distance(A, B, 1) == pytest.approx(
            pe.bottleneck_brute_force(A, B, 1), abs=1e-14
        )
    rep = pe.stability_check(DISC, ELLIPSE, 2, m=64)
    assert rep.passed
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(9, "persistence", elapsed, 120,
            f"betti ok, brute-force agreement, stability bottlenecks {rep.bottlenecks}")


def test_criterion_10_reconstruction():
    t0 = time.time()
    rng = np.random.default_rng(10)
    table = build_fourier_table(random_support_spec(rng))
    err = dy.reconstruction_roundtrip_error(table)
    elapsed = time.time() - t0
    assert err < 1e-6
    assert elapsed < 10.0
    _report(10, "reconstruction round trip", elapsed, 10, f"max aligned error {err:.2e}")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    runs = {}
    for name, threads in (("a", 1), ("b", 8), ("c", 1)):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "hoferbilliards.cli", "verify", "all",
             "--seed", "7", "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs[name] = out
    files = sorted(p.name for p in runs["a"].iterdir())
    assert files, "verify all produced no artifacts"
    for other in ("b", "c"):
        assert sorted(p.name for p in runs[other].iterdir()) == files
        match, mismatch, errors = filecmp.cmpfiles(runs["a"], runs[other], files, shallow=False)
        assert not mismatch and not errors, (mismatch, errors)
    elapsed = time.time() - t0
    _report(11, "determinism", elapsed, 60,
            f"{len(files)} artifacts byte-identical across runs and threads 1/8")
