"""Command-line surface: reproducible experiments with machine-readable output.

Every subcommand prints one JSON result object to stdout and a one-line
human summary to stderr; bulk data goes to CSV/JSON files under --out
(default: the HB_OUT environment variable, else ./hb_out).  Exit codes:
0 success and all certificates passing, 1 input error (a usage error
too), 2 certificate failure.

A subcommand takes only the flags it reads.  --seed (map portrait, hofer
hjresidual, orbits find, orbits experiment, verify all) fixes the random
draws, so outputs are byte-identical across runs and --threads values
(verify all only).  --tol is the slack of hofer compare and the tail
closure tolerance of polygon cauchy.  Solver tolerances are not flags: every
bracketed Newton accepts |residual| <= 1e-13, widens that to 1e-10 after 30
iterations and fails above 1e-9 (SolverDidNotConverge, exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dynamics as dy
from . import homotopy as ho
from . import persistence as pe
from . import smoothing as sm
from .billiard import AnnulusPoint, forward_chord, forward_map, iterate, map_jacobian, trajectory_arrays
from .curves import FourierSupportSpec, build_fourier_table, disc_table, unit_square
from .errors import HoferBilliardsError
from .specio import SpecError, load_path, load_polygon, load_table

OK, INPUT_ERROR, CERT_FAIL = 0, 1, 2


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _note(msg):
    sys.stderr.write(msg + "\n")


def _outdir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("HB_OUT") or "hb_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# table commands
# ---------------------------------------------------------------------------


def cmd_table_inspect(args):
    table = load_table(args.table)
    q = np.arange(1024) / 1024
    tan = table.tangent(q)
    kappa = table.curvature(q)
    result = {
        "kind": table.kind,
        "strictly_convex": bool(table.strictly_convex),
        "marked_point": [float(v) for v in table.position(0.0)],
        "tangent_norm_deviation": float(np.abs(np.linalg.norm(tan, axis=-1) - 1).max()),
        "curvature_min": float(kappa.min()),
        "curvature_max": float(kappa.max()),
    }
    _emit(result)
    _note(f"table {table.kind}: curvature in [{result['curvature_min']:.4g}, {result['curvature_max']:.4g}]")
    return OK


def cmd_table_sample(args):
    table = load_table(args.table)
    n = args.grid_q
    dy.check_budget(n, f"--grid-q {n}")
    q = np.arange(n) / n
    pos = table.position(q)
    tan = table.tangent(q)
    kap = table.curvature(q)
    out = _outdir(args) / "table_samples.csv"
    _write_csv(out, ["q", "x", "y", "tx", "ty", "curvature"],
               [(q[i], pos[i, 0], pos[i, 1], tan[i, 0], tan[i, 1], kap[i]) for i in range(n)])
    _emit({"samples": n, "file": str(out)})
    _note(f"wrote {n} boundary samples to {out}")
    return OK


# ---------------------------------------------------------------------------
# map commands
# ---------------------------------------------------------------------------


def cmd_map_eval(args):
    table = load_table(args.table)
    y = forward_map(table, AnnulusPoint(args.q, args.p))
    _emit({"Q": y.q, "P": y.p})
    _note(f"bounce ({args.q}, {args.p}) -> ({y.q:.7f}, {y.p:.7f})")
    return OK


def cmd_map_iterate(args):
    table = load_table(args.table)
    traj = iterate(table, AnnulusPoint(args.q, args.p), args.steps)
    out = _outdir(args) / "trajectory.csv"
    _write_csv(out, ["step", "q", "p"], [(i, pt.q, pt.p) for i, pt in enumerate(traj)])
    _emit({"steps": len(traj) - 1, "final": [traj[-1].q, traj[-1].p], "file": str(out)})
    _note(f"iterated {len(traj) - 1} bounces; wrote {out}")
    return OK


def cmd_map_portrait(args):
    table = load_table(args.table)
    # trajectory_arrays checks the same count, after the starts are drawn
    dy.check_budget((abs(args.steps) + 1) * args.seeds, f"{abs(args.steps) + 1} steps x {args.seeds} starts")
    rng = np.random.default_rng(args.seed)
    starts = np.array([(rng.uniform(), rng.uniform(-0.9, 0.9)) for _ in range(args.seeds)]).reshape(-1, 2)
    # all orbits advance together: one batched bounce per step
    qs, ps = trajectory_arrays(table, starts[:, 0], starts[:, 1], args.steps)
    rows = [
        (orbit_id, step, qs[step, orbit_id], ps[step, orbit_id])
        for orbit_id in range(args.seeds)
        for step in range(len(qs))
    ]
    out = _outdir(args) / "portrait.csv"
    _write_csv(out, ["orbit", "step", "q", "p"], rows)
    _emit({"orbits": args.seeds, "steps": args.steps, "file": str(out)})
    _note(f"phase portrait with {args.seeds} orbits x {args.steps} steps -> {out}")
    return OK


# ---------------------------------------------------------------------------
# hofer commands
# ---------------------------------------------------------------------------


def cmd_hofer_length(args):
    path = load_path(args.path)
    # the speeds are taken one s-node at a time, each on --grid-q points
    dy.check_budget(args.grid_s, f"--grid-s {args.grid_s}")
    dy.check_budget(args.grid_q, f"--grid-q {args.grid_q}")
    dy.check_budget(args.grid_q // 4 * args.grid_p, f"{args.grid_q // 4} x --grid-p {args.grid_p} Hamiltonian grid")
    l_b = ho.path_geometric_length(path, s_nodes=args.grid_s, q_nodes=args.grid_q)
    l_h = ho.hofer_length(path, q_grid=args.grid_q // 4, p_grid=args.grid_p)
    result = {"l_B": l_b, "l_H": l_h}
    if args.dump_field:
        hf = ho.HamiltonianField(path)
        rows = []
        Qg = np.arange(32) / 32
        Pg = np.linspace(-0.9, 0.9, 17)
        QQ, PP = np.meshgrid(Qg, Pg, indexing="ij")
        for s in np.linspace(0.0, 1.0, 9):
            H = hf.value_arrays(float(s), QQ.ravel(), PP.ravel())
            rows.extend(
                (float(s), float(qv), float(pv), float(hv))
                for qv, pv, hv in zip(QQ.ravel(), PP.ravel(), H)
            )
        out = _outdir(args) / "hamiltonian_field.csv"
        _write_csv(out, ["s", "Q", "P", "H"], rows)
        result["field_file"] = str(out)
    _emit(result)
    _note(f"l_B = {l_b:.6g}, l_H = {l_h:.6g}")
    return OK


def cmd_hofer_compare(args):
    path = load_path(args.path)
    cert = ho.verify_comparison(path, slack=args.tol)
    _emit(cert.to_json())
    _note(f"ratio l_H / l_B = {cert.ratio:.4f} (pass: {cert.passed})")
    return OK if cert.passed else CERT_FAIL


def cmd_hofer_hjresidual(args):
    path = load_path(args.path)
    dy.check_budget(args.points, f"--points {args.points}")
    rng = np.random.default_rng(args.seed)
    pts = np.stack([rng.uniform(0, 1, args.points), rng.uniform(-0.9, 0.9, args.points)], axis=-1)
    res = ho.hamilton_jacobi_residual(path, args.s, pts)
    _emit({"s": args.s, "points": args.points, "max_residual": res})
    _note(f"Hamilton-Jacobi residual at s={args.s}: {res:.3e}")
    return OK


# ---------------------------------------------------------------------------
# polygon commands
# ---------------------------------------------------------------------------


def cmd_polygon_family(args):
    poly = load_polygon(args.polygon)
    fam = sm.family_from_polygon(poly, width=args.width)
    scales = [1.0, 0.5, 0.25, 0.125]
    rows = [(s, fam.length_at(s), fam.scale_factor(s)) for s in scales]
    out = _outdir(args) / "family_lengths.csv"
    _write_csv(out, ["s", "L", "lambda"], rows)
    result = {
        "corners": fam.n_corners,
        "deltas": [float(d) for d in fam.deltas],
        "total_delta": fam.total_delta,
        "edge_speed_bound": fam.edge_speed_bound(),
        "file": str(out),
    }
    _emit(result)
    _note(f"family with {fam.n_corners} corners, sum delta = {fam.total_delta:.6g}")
    return OK


def _write_cauchy(outdir: Path, tail) -> Path:
    return _write_csv(outdir / "cauchy.csv", ["s", "family_speed", "tail_partial", "tail_corrected"],
                      list(zip(tail.nodes, tail.speeds, tail.partial_sums, tail.corrected)))


def _write_independence(outdir: Path, gaps) -> Path:
    return _write_csv(outdir / "independence.csv", ["s", "gap"], list(zip(sm.INDEPENDENCE_SCALES, gaps)))


def _tail_checks(tail, tol: float) -> dict:
    """The Cauchy tail's checks; it converges when both pass."""
    return {"increments_decreasing": tail.increments_decreasing(), "final_increment_small": tail.closes(tol)}


def cmd_polygon_cauchy(args):
    poly = load_polygon(args.polygon)
    fam = sm.family_from_polygon(poly, width=args.width)
    tail = sm.cauchy_tail(fam, args.s0, levels=args.levels)
    out = _write_cauchy(_outdir(args), tail)
    checks = _tail_checks(tail, args.tol)
    converged = all(checks.values())
    _emit({"value": tail.value, **checks, "file": str(out)})
    _note(f"cauchy tail {tail.value:.6g} (converged: {converged})")
    return OK if converged else CERT_FAIL


def cmd_polygon_independence(args):
    poly = load_polygon(args.polygon)
    fam_a = sm.family_from_polygon(poly, width=args.width)
    fam_b = sm.family_from_polygon(poly, width=args.width2)
    slope, gaps = sm.independence_slope(fam_a, fam_b)
    out = _write_independence(_outdir(args), gaps)
    passed = sm.slope_is_linear(slope)
    _emit({"slope": slope, "pass": passed, "file": str(out)})
    _note(f"profile-independence log-log slope {slope:.4f} (pass: {passed})")
    return OK if passed else CERT_FAIL


# ---------------------------------------------------------------------------
# orbit commands
# ---------------------------------------------------------------------------


def cmd_orbits_find(args):
    table = load_table(args.table)
    orbits = dy.find_periodic_orbits(table, args.period, seed_count=args.seeds, rng=args.seed)
    result = [o.to_json() for o in orbits]
    out = _outdir(args) / f"orbits_n{args.period}.json"
    _write_json(out, result)
    _emit({"count": len(orbits), "actions": [o.action for o in orbits], "file": str(out)})
    _note(f"found {len(orbits)} period-{args.period} orbit classes")
    return OK


def cmd_orbits_gap(args):
    a = load_table(args.table)
    b = load_table(args.table2)
    rep = dy.functional_gap(a, b, args.period, m=args.grid_q)
    _emit({**rep.to_json(), "pass": rep.passed})
    _note(f"sup |F_a - F_b| = {rep.gap:.6g} <= {rep.bound:.6g} (pass: {rep.passed})")
    return OK if rep.passed else CERT_FAIL


def cmd_orbits_experiment(args):
    a = load_table(args.table)
    b = load_table(args.table2)
    orbits = dy.find_periodic_orbits(a, args.period, seed_count=args.seeds, rng=args.seed)
    if not orbits:
        raise SpecError("no periodic orbit found on the reference table")
    rep = dy.almost_periodicity_experiment(
        a, b, orbits[0], args.period, radius=args.radius, samples=args.samples, rng=args.seed
    )
    outdir = _outdir(args)
    _write_csv(outdir / "cloud_reference.csv", ["q", "p"], rep.cloud_a.tolist())
    _write_csv(outdir / "cloud_perturbed.csv", ["q", "p"], rep.cloud_b.tolist())
    _emit(rep.to_json())
    _note(f"min return distance {rep.min_distance:.6g} over {args.samples} samples")
    return OK


# ---------------------------------------------------------------------------
# barcode commands
# ---------------------------------------------------------------------------


def cmd_barcode_compute(args):
    table = load_table(args.table)
    grid = pe.sample_orbit_functional(table, args.period, args.resolution)
    bar = pe.sublevel_barcode(grid)
    out = _outdir(args) / f"barcode_n{args.period}_m{args.resolution}.json"
    _write_json(out, bar.to_json())
    result = {"bars": sum(len(bar.degree(d)) for d in range(args.period + 1)),
              "betti": pe.betti_numbers(bar), "file": str(out)}
    if args.dump_grid:
        gpath = _outdir(args) / f"grid_n{args.period}_m{args.resolution}.bin"
        pe.save_grid(gpath, grid)
        result["grid_file"] = str(gpath)
    _emit(result)
    _note(f"barcode with betti {pe.betti_numbers(bar)} -> {out}")
    return OK


def cmd_barcode_bottleneck(args):
    a, b = pe.Barcode.from_json(args.barcode, "barcode"), pe.Barcode.from_json(args.barcode2, "barcode2")
    val = pe.bottleneck_distance(a, b, args.degree)
    _emit({"degree": args.degree, "bottleneck": (None if val == float("inf") else val)})
    _note(f"bottleneck distance in degree {args.degree}: {val}")
    return OK


def cmd_barcode_stability(args):
    a = load_table(args.table)
    b = load_table(args.table2)
    rep = pe.stability_check(a, b, args.period, m=args.resolution)
    _emit(rep.to_json())
    _note(f"stability: bottlenecks {rep.bottlenecks} <= gap {rep.gap.gap:.6g} + slack {rep.slack:.6g}")
    return OK if rep.passed else CERT_FAIL


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def cmd_reconstruct(args):
    if args.chords:
        data = dy.ChordData.from_json(args.chords)
    else:
        table = load_table(args.table)
        err = dy.reconstruction_roundtrip_error(table, samples=args.samples)
        data = dy.table_chord_data(table, samples=args.samples)
    t, pts = dy.reconstruct_table(data)
    out = _outdir(args) / "reconstructed.csv"
    _write_csv(out, ["t", "x", "y"], [(t[i], pts[i, 0], pts[i, 1]) for i in range(len(t))])
    if args.chords:
        _emit({"points": len(t), "file": str(out)})
        _note(f"reconstructed {len(t)} boundary points -> {out}")
    else:
        _emit({"points": len(t), "max_aligned_error": err, "file": str(out)})
        _note(f"round-trip reconstruction error {err:.3e}")
    return OK


# ---------------------------------------------------------------------------
# verify all
# ---------------------------------------------------------------------------


def _random_admissible_spec(rng):
    """A random 4-harmonic support spec with coefficients in [-0.03, 0.03] and rho > 0.02."""
    while True:
        spec = FourierSupportSpec(
            1.0,
            cos=rng.uniform(-0.03, 0.03, 4),
            sin=rng.uniform(-0.03, 0.03, 4),
        )
        theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        if spec.rho(theta).min() > 0.02:
            return spec


def cmd_verify_all(args):
    # the comparison paths are held together; each one's grids are solved on
    # their own, at most --threads at once
    dy.check_budget(args.paths, f"--paths {args.paths}")
    outdir = _outdir(args)
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "pass": bool(passed), "detail": detail})
        _note(f"[{'PASS' if passed else 'FAIL'}] {name}")

    disc = disc_table()
    ellipse_spec = FourierSupportSpec(1.0, cos=[0.0, 0.03])
    ellipse = build_fourier_table(ellipse_spec)

    # 1. round-table closed form
    q = rng.uniform(0, 1, 1000)
    p = rng.uniform(-0.99, 0.99, 1000)
    Q, P = forward_chord(disc, q, p)[:2]
    dq = np.abs(np.mod(Q, 1.0) - np.mod(q + np.arccos(p) / np.pi, 1.0))
    err = float(max(np.minimum(dq, 1 - dq).max(), np.abs(P - p).max()))
    record("disc_closed_form", err < 1e-10, {"max_error": err})

    # 2. symplecticity (mild table: the determinant probe is truncation-limited)
    mild_spec = FourierSupportSpec(1.0, cos=[0.0, 0.02, 0.005], sin=[0.0, 0.0, 0.004])
    det_devs = {}
    for name, table in (("disc", disc), ("fourier", build_fourier_table(mild_spec))):
        qs = np.linspace(0, 1, 20, endpoint=False)
        ps = np.linspace(-0.95, 0.95, 20)
        QQ, PP = np.meshgrid(qs, ps)
        J = map_jacobian(table, QQ.ravel(), PP.ravel())
        det_devs[name] = float(np.abs(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0] - 1).max())
    record("symplecticity", max(det_devs.values()) < 1e-6, det_devs)

    # 3. comparison certificates (threaded; inputs drawn deterministically first)
    paths = [ho.translation_path(disc, (0.05, 0.0)), ho.translation_path(ellipse, (0.0, 0.02))]
    for _ in range(args.paths):
        paths.append(ho.support_interp_path(_random_admissible_spec(rng), _random_admissible_spec(rng)))

    def certify(path):
        return ho.verify_comparison(path, s_nodes=9, q_grid=128, p_grid=63, lb_s_nodes=33, lb_q_nodes=512)

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        certs = list(pool.map(certify, paths))
    _write_json(outdir / "comparison.json", [c.to_json() for c in certs])
    record("comparison_certificates", all(c.passed for c in certs),
           {"ratios": [c.ratio for c in certs]})

    # 4. Hamilton-Jacobi residual and second-order decay
    hj_path = ho.support_interp_path(FourierSupportSpec(1.0), FourierSupportSpec(1.0, cos=[0.0, 0.08]))
    pts = np.stack([rng.uniform(0, 1, 50), rng.uniform(-0.85, 0.85, 50)], axis=-1)
    res = ho.hamilton_jacobi_residual(hj_path, 0.5, pts)
    r_big = ho.hamilton_jacobi_residual(hj_path, 0.5, pts, h=1.6e-2)
    r_small = ho.hamilton_jacobi_residual(hj_path, 0.5, pts, h=4e-3)
    record("hamilton_jacobi", res < 1e-3 and r_big >= 4 * r_small,
           {"residual": res, "ratio_h4": r_big / max(r_small, 1e-300)})

    # 5. distance brackets
    tr = ho.translation_path(disc, (0.03, 0.04))
    br = ho.bracket_dB(tr, s_nodes=33, q_nodes=512)
    tight = abs(br.lower - 0.05) < 1e-9 and abs(br.upper - 0.05) < 1e-9
    br2 = ho.bracket_dB(paths[-1], s_nodes=33, q_nodes=512)
    record("distance_brackets", tight and br2.passed,
           {"translation": br.to_json(), "random_path": br2.to_json()})

    # 6. polygon smoothing
    fam = sm.family_from_polygon(unit_square())
    affine_resid = max(
        abs(fam.length_at(s) - (fam.base_length - s * fam.total_delta)) for s in (1.0, 0.5, 0.25)
    )
    tail = sm.cauchy_tail(fam, 1.0, q_nodes=2048)
    _write_cauchy(outdir, tail)
    fam_b = sm.family_from_polygon(unit_square(), width=0.005)
    slope, gaps = sm.independence_slope(fam, fam_b, q_nodes=2048)
    _write_independence(outdir, gaps)
    smoothing_ok = affine_resid < 1e-9 and all(_tail_checks(tail, 1e-3).values()) and sm.slope_is_linear(slope)
    record("polygon_smoothing", smoothing_ok,
           {"affine_residual": affine_resid, "tail": tail.value, "slope": slope})

    # 7. functional gap bound
    gaps = []
    for _ in range(3):
        a = build_fourier_table(_random_admissible_spec(rng))
        b = build_fourier_table(_random_admissible_spec(rng))
        gaps += [(n, dy.functional_gap(a, b, n, m=32)) for n in (2, 3)]
    record("functional_gap", all(rep.passed for _, rep in gaps),
           [{"n": n, "gap": rep.gap, "bound": rep.bound} for n, rep in gaps])

    # 8. periodic orbits
    orb2 = dy.find_periodic_orbits(disc, 2, seed_count=8, rng=int(rng.integers(1 << 31)))
    orb3 = dy.find_periodic_orbits(disc, 3, seed_count=8, rng=int(rng.integers(1 << 31)))
    orb_el = dy.find_periodic_orbits(ellipse, 2, seed_count=12, rng=int(rng.integers(1 << 31)))
    _write_json(outdir / "orbits.json", [o.to_json() for o in orb2 + orb3 + orb_el])
    orbits_ok = (
        abs(orb2[0].action - 2 / np.pi) < 1e-9
        and abs(orb3[0].action - 3 * np.sqrt(3) / (2 * np.pi)) < 1e-9
        and len(orb_el) == 2
    )
    record("periodic_orbits", orbits_ok,
           {"disc_n2": orb2[0].action, "disc_n3": orb3[0].action, "ellipse_classes": len(orb_el)})

    # 9. persistence
    bar = pe.sublevel_barcode(pe.sample_orbit_functional(disc, 2, 24))
    betti_ok = pe.betti_numbers(bar) == pe.expected_torus_betti(2)
    stab = pe.stability_check(disc, ellipse, 2, m=32)
    _write_json(outdir / "persistence.json", stab.to_json())
    record("persistence", betti_ok and stab.passed,
           {"betti": pe.betti_numbers(bar), "stability": stab.to_json()})

    # 10. reconstruction round trip
    table = build_fourier_table(_random_admissible_spec(rng))
    err = dy.reconstruction_roundtrip_error(table)
    record("reconstruction", err < 1e-6, {"max_aligned_error": err})

    passed = all(c["pass"] for c in checks)
    summary = {"seed": args.seed, "pass": passed, "checks": checks}
    _write_json(outdir / "summary.json", summary)
    _emit({"pass": passed, "out": str(outdir), "checks": len(checks)})
    _note(f"verify all: {'PASS' if passed else 'FAIL'} ({len(checks)} checks) -> {outdir}")
    return OK if passed else CERT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    """A command line that argparse rejects; ``main`` reports it as an input error."""


def _int_at_least(low: int):
    """argparse type of an integer flag >= low: a smaller value is a usage error naming the flag."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _simpson_count(text):
    """argparse type of a Simpson node count: an odd integer >= 3, else a usage error."""
    value = int(text)
    if value < 3 or value % 2 == 0:
        raise argparse.ArgumentTypeError(f"must be an odd integer >= 3, got {value}")
    return value


_simpson_count.__name__ = "int"


def _finite_float(low=None, strict=False):
    """argparse type of a float flag: a finite number, and >= low (> low if
    strict) when low is given; anything else is a usage error naming the flag."""
    bound = "" if low is None else f" {'>' if strict else '>='} {low:g}"

    def parse(text):
        value = float(text)
        if not np.isfinite(value) or (low is not None and (value <= low if strict else value < low)):
            raise argparse.ArgumentTypeError(f"must be a finite number{bound}, got {text}")
        return value

    parse.__name__ = "float"  # argparse names the type in its "invalid float value" message
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit with status 2, which hb reserves for certificate failures
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="hb", description=__doc__)
    sub = p.add_subparsers(dest="group", required=True)

    def common(sp, table=False, table2=False, path=False):
        sp.add_argument("--out", help="output directory (default $HB_OUT or ./hb_out)")
        if table:
            sp.add_argument("--table", required=True, help="table spec JSON file")
        if table2:
            sp.add_argument("--table2", required=True, help="second table spec JSON file")
        if path:
            sp.add_argument("--path", required=True, help="path spec JSON file")

    def seed(sp):
        sp.add_argument("--seed", type=int, default=0, help="random seed")

    g = sub.add_parser("table").add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("inspect")
    common(sp, table=True)
    sp.set_defaults(fn="cmd_table_inspect")
    sp = g.add_parser("sample")
    common(sp, table=True)
    sp.add_argument("--grid-q", type=_int_at_least(1), default=1024)
    sp.set_defaults(fn="cmd_table_sample")

    g = sub.add_parser("map").add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("eval")
    common(sp, table=True)
    sp.add_argument("--q", type=_finite_float(), required=True)
    sp.add_argument("--p", type=_finite_float(), required=True)
    sp.set_defaults(fn="cmd_map_eval")
    sp = g.add_parser("iterate")
    common(sp, table=True)
    sp.add_argument("--q", type=_finite_float(), required=True)
    sp.add_argument("--p", type=_finite_float(), required=True)
    sp.add_argument("--steps", type=int, default=100)
    sp.set_defaults(fn="cmd_map_iterate")
    sp = g.add_parser("portrait")
    common(sp, table=True)
    seed(sp)
    sp.add_argument("--seeds", type=_int_at_least(1), default=40)
    sp.add_argument("--steps", type=int, default=200)
    sp.set_defaults(fn="cmd_map_portrait")

    g = sub.add_parser("hofer").add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("length")
    common(sp, path=True)
    # hofer length solves a (grid-q // 4) x grid-p phase grid
    sp.add_argument("--grid-q", type=_int_at_least(4), default=1024)
    sp.add_argument("--grid-p", type=_int_at_least(1), default=127)
    sp.add_argument("--grid-s", type=_simpson_count, default=65)
    sp.add_argument("--dump-field", action="store_true",
                    help="also sample the Hamiltonian field to CSV (s, Q, P, H)")
    sp.set_defaults(fn="cmd_hofer_length")
    sp = g.add_parser("compare")
    common(sp, path=True)
    sp.add_argument("--tol", type=_finite_float(0.0), default=1e-2,
                    help="slack of the check l_H <= 4 l_B (1 + tol)")
    sp.set_defaults(fn="cmd_hofer_compare")
    sp = g.add_parser("hjresidual")
    common(sp, path=True)
    seed(sp)
    sp.add_argument("--s", type=_finite_float(), default=0.5)
    sp.add_argument("--points", type=_int_at_least(1), default=100)
    sp.set_defaults(fn="cmd_hofer_hjresidual")

    g = sub.add_parser("polygon").add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("family")
    common(sp)
    sp.add_argument("--polygon", required=True)
    sp.add_argument("--width", type=_finite_float(), default=None)
    sp.set_defaults(fn="cmd_polygon_family")
    sp = g.add_parser("cauchy")
    common(sp)
    sp.add_argument("--polygon", required=True)
    sp.add_argument("--width", type=_finite_float(), default=None)
    sp.add_argument("--s0", type=_finite_float(), default=1.0, help="top scale of the tail, in (0, 1]")
    # two levels at least: the increment and closure checks each compare two values
    sp.add_argument("--levels", type=_int_at_least(2), default=8)
    sp.add_argument("--tol", type=_finite_float(0.0), default=1e-3,
                    help="relative bound on the last corrected tail increment")
    sp.set_defaults(fn="cmd_polygon_cauchy")
    sp = g.add_parser("independence")
    common(sp)
    sp.add_argument("--polygon", required=True)
    sp.add_argument("--width", type=_finite_float(), default=0.01)
    sp.add_argument("--width2", type=_finite_float(), default=0.005)
    sp.set_defaults(fn="cmd_polygon_independence")

    g = sub.add_parser("orbits").add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("find")
    common(sp, table=True)
    seed(sp)
    sp.add_argument("--period", type=int, required=True)
    # random seeds on top of the rotational ones, which are always tried
    sp.add_argument("--seeds", type=_int_at_least(0), default=32)
    sp.set_defaults(fn="cmd_orbits_find")
    sp = g.add_parser("gap")
    common(sp, table=True, table2=True)
    sp.add_argument("--period", type=int, required=True)
    sp.add_argument("--grid-q", type=_int_at_least(1), default=64)
    sp.set_defaults(fn="cmd_orbits_gap")
    sp = g.add_parser("experiment")
    common(sp, table=True, table2=True)
    seed(sp)
    sp.add_argument("--period", type=int, required=True)
    sp.add_argument("--radius", type=_finite_float(0.0, strict=True), default=0.05)
    # the orbit's phase point is the first sample
    sp.add_argument("--samples", type=_int_at_least(1), default=200)
    sp.add_argument("--seeds", type=_int_at_least(0), default=16)
    sp.set_defaults(fn="cmd_orbits_experiment")

    g = sub.add_parser("barcode").add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("compute")
    common(sp, table=True)
    sp.add_argument("--period", type=int, default=2)
    sp.add_argument("--resolution", type=_int_at_least(1), default=64)
    sp.add_argument("--dump-grid", action="store_true",
                    help="also write the sampled grid (JSON header + raw doubles)")
    sp.set_defaults(fn="cmd_barcode_compute")
    sp = g.add_parser("bottleneck")
    common(sp)
    sp.add_argument("--barcode", required=True)
    sp.add_argument("--barcode2", required=True)
    sp.add_argument("--degree", type=_int_at_least(0), default=0)
    sp.set_defaults(fn="cmd_barcode_bottleneck")
    sp = g.add_parser("stability")
    common(sp, table=True, table2=True)
    sp.add_argument("--period", type=int, default=2)
    sp.add_argument("--resolution", type=_int_at_least(1), default=64)
    sp.set_defaults(fn="cmd_barcode_stability")

    sp = sub.add_parser("reconstruct")
    common(sp)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--table", help="table spec JSON file (round-trip mode)")
    source.add_argument("--chords", help="chord data JSON file")
    # the uniform grid j/samples must hold a point besides the anchors 0 and 1/2
    sp.add_argument("--samples", type=_int_at_least(3), default=256)
    sp.set_defaults(fn="cmd_reconstruct", cmd="reconstruct")

    g = sub.add_parser("verify").add_subparsers(dest="cmd", required=True)
    sp = g.add_parser("all")
    common(sp)
    seed(sp)
    sp.add_argument("--threads", type=_int_at_least(1), default=os.cpu_count() or 1,
                    help="worker threads of the comparison certificates")
    sp.add_argument("--paths", type=_int_at_least(1), default=4, help="random comparison paths")
    sp.set_defaults(fn="cmd_verify_all")

    return p


@functools.cache
def _parser():
    """The argparse tree, built on first use and shared by every later request."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        _emit({"error": str(exc)})
        _note(f"input error: {exc}")
        return INPUT_ERROR
    except SystemExit as exc:
        # --help prints and stops with code 0; usage errors are caught above
        return exc.code
    # the shared parser holds command names, not functions: a lookup at
    # dispatch sees the module's current cmd_* binding
    fn = globals()[args.fn]
    try:
        return fn(args)
    except (SpecError, OSError, ValueError) as exc:
        # InvalidWidth, MarkInCorner, ResolutionTooLarge and InconsistentChords
        # are ValueErrors: bad widths and marks, grids and orbit searches over
        # the cell budget, and chord data that is malformed or admits no points
        _emit({"error": str(exc)})
        _note(f"input error: {exc}")
        return INPUT_ERROR
    except (HoferBilliardsError, FloatingPointError) as exc:
        # SolverDidNotConverge is a HoferBilliardsError; FloatingPointError
        # comes from orbit batches that leave the solvable annulus
        _emit({"error": str(exc), "kind": type(exc).__name__})
        _note(f"certificate failure: {exc}")
        return CERT_FAIL


if __name__ == "__main__":
    sys.exit(main())
