"""Seeded closed-loop workloads and the oracles that check every operation.

A workload is a list of rounds.  Every round has the same fixed mix of
operation kinds; the seed draws only the inputs (tables, paths, phase
points), so runs at different seeds do comparable work and a run that
stops at a round boundary always holds the whole mix.  Round ``r`` draws
from ``numpy.random.default_rng([seed, r])``.

Each operation is built from plain inputs when it runs (a path from its
support specs, a CLI request from its spec file), so repeating it repeats
the same work.  Its oracle runs afterwards, outside the timed interval,
and checks the result against a property computed another way.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hoferbilliards import cli, curves, dynamics, homotopy, persistence, smoothing

WORKLOADS = ("certify", "explore", "landscape")

# grids of the comparison certificates in `hb verify all`
VERIFY_ALL_GRIDS = dict(s_nodes=9, q_grid=128, p_grid=63, lb_s_nodes=33, lb_q_nodes=512)
# coarse grids for sampled-curve (normal perturbation) paths
COARSE_GRIDS = dict(s_nodes=3, q_grid=32, p_grid=15, lb_s_nodes=5, lb_q_nodes=128)


class OracleError(Exception):
    """An operation's result failed its oracle."""


def require(cond, message):
    if not cond:
        raise OracleError(message)


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check(result, expect)`` is not.

    ``inputs`` describes the generated inputs as plain data.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]
    expect: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def random_support_spec(rng, harmonics=4, amplitude=0.03):
    """Random support spec whose radius of curvature stays above 0.02."""
    theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    while True:
        spec = curves.FourierSupportSpec(
            1.0,
            cos=rng.uniform(-amplitude, amplitude, harmonics),
            sin=rng.uniform(-amplitude, amplitude, harmonics),
        )
        if spec.rho(theta).min() > 0.02:
            return spec


def oval_spec(rng):
    """Second-harmonic support function: a mildly eccentric, rotated oval."""
    e = rng.uniform(0.02, 0.05)
    phi = rng.uniform(0.0, np.pi)
    return curves.FourierSupportSpec(1.0, cos=[0.0, e * np.cos(phi)], sin=[0.0, e * np.sin(phi)])


def spec_json(spec):
    if spec is None:
        return {"type": "disc"}
    return {"type": "fourier_support", "c0": float(spec.c0),
            "cos": [float(v) for v in spec.cos], "sin": [float(v) for v in spec.sin]}


def rotated_polygon(rng, n):
    """Regular n-gon of perimeter 1, rotated, marked mid-edge away from corners."""
    base = curves.regular_polygon(n)
    ang = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    mark = (int(rng.integers(n)) + rng.uniform(0.35, 0.65)) / n
    return curves.PolygonSpec(base.vertices @ rot.T, mark=mark)


# ---------------------------------------------------------------------------
# independent geometry used by the oracles
# ---------------------------------------------------------------------------


def support_h(spec, theta, deriv=0):
    """Normalized support function h, or h' for deriv=1, by direct summation."""
    norm = spec.normalized()
    k = np.arange(1, norm.cos.size + 1)
    kt = np.multiply.outer(np.asarray(theta, dtype=float), k)
    if deriv == 0:
        return norm.c0 + np.cos(kt) @ norm.cos + np.sin(kt) @ norm.sin
    return np.sin(kt) @ (-k * norm.cos) + np.cos(kt) @ (k * norm.sin)


def critical_widths(spec):
    """Width h(t) + h(t + pi) at every critical point t of the width function."""
    def width(t, d):
        return support_h(spec, t, d) + support_h(spec, t + np.pi, d)

    t = np.linspace(0.0, np.pi, 4096, endpoint=False)
    dw = width(t, 1)
    out = []
    for i in np.flatnonzero(np.sign(dw) != np.sign(np.roll(dw, -1))):
        a, b = t[i], t[i] + np.pi / 4096
        x = 0.5 * (a + b)
        for _ in range(60):
            x = 0.5 * (a + b)
            if (width(x, 1) > 0) == (width(a, 1) > 0):
                a = x
            else:
                b = x
        out.append(float(width(x, 0)))
    return out


def reflection_defect(table, q, p, Q, P):
    """Max defect of the reflection law along the bounces (q, p) -> (Q, P).

    With u the unit chord and t the unit tangents, the outgoing momentum at
    q is <u, t(q)> and the incoming one at Q is <u, t(Q)>.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    Q = np.atleast_1d(np.asarray(Q, dtype=float))
    d = table.position(Q) - table.position(q)
    dist = np.linalg.norm(d, axis=-1)
    require(np.all(dist > 1e-9), "degenerate chord")
    u = d / dist[:, None]
    out = np.abs(np.sum(u * table.tangent(q), axis=-1) - p).max()
    back = np.abs(np.sum(u * table.tangent(Q), axis=-1) - P).max()
    return float(max(out, back))


def disc_defect(q, p, Q, P):
    """Distance of bounces (q, p) -> (Q, P) from the disc's Q = q + arccos(p)/pi, P = p."""
    dq = np.mod(np.asarray(Q) - np.asarray(q) - np.arccos(np.asarray(p)) / np.pi, 1.0)
    return float(max(np.minimum(dq, 1.0 - dq).max(), np.abs(np.asarray(P) - np.asarray(p)).max()))


def check_bounces(table, q, p, Q, P):
    """Disc closed form to 1e-10 (``table`` None), else the reflection law to 1e-9."""
    if table is None:
        err = disc_defect(q, p, Q, P)
        require(err < 1e-10, f"disc closed form violated by {err:.3e}")
    else:
        err = reflection_defect(table, q, p, Q, P)
        require(err < 1e-9, f"reflection law violated by {err:.3e}")


def read_csv_rows(path):
    """Numeric rows of a CSV file written by the CLI, header skipped."""
    lines = Path(path).read_text().splitlines()[1:]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines])


# ---------------------------------------------------------------------------
# certify: comparison certificates l_H <= 4 l_B
# ---------------------------------------------------------------------------


def _check_certificate(cert, expect):
    require(cert.passed, f"certificate failed: ratio {cert.ratio!r}")
    require(cert.hofer >= 0.0 and cert.geometric > 0.0, "negative length")
    require(cert.hofer <= 4.0 * cert.geometric * (1.0 + cert.slack), "l_H > 4 l_B (1 + slack)")
    if "l_B" in expect:
        require(abs(cert.hofer) < 1e-9, f"translation has l_H = {cert.hofer!r}")
        require(abs(cert.geometric - expect["l_B"]) < 1e-9,
                f"translation l_B {cert.geometric!r} != |v| {expect['l_B']!r}")
    if "c0" in expect:
        # a path is at least as long as its endpoints are apart; l_B is a grid
        # max under a 33-node Simpson rule, which reads low by a few 1e-6
        require(expect["c0"] <= cert.geometric * (1.0 + 1e-4),
                f"l_B {cert.geometric!r} below the endpoint C0 distance {expect['c0']!r}")


def _support_interp_op(a, b):
    def check(cert, expect):
        if "c0" not in expect:
            expect["c0"] = curves.c0_distance(curves.build_fourier_table(a), curves.build_fourier_table(b))
        _check_certificate(cert, expect)

    return Op(
        "support_interp",
        lambda: homotopy.verify_comparison(homotopy.support_interp_path(a, b), **VERIFY_ALL_GRIDS),
        check,
        inputs={"a": spec_json(a), "b": spec_json(b)},
    )


def _translation_op(kind, spec, v):
    def run():
        table = curves.disc_table() if spec is None else curves.build_fourier_table(spec)
        return homotopy.verify_comparison(homotopy.translation_path(table, v), **VERIFY_ALL_GRIDS)

    return Op(kind, run, _check_certificate, {"l_B": float(np.hypot(*v))},
              inputs={"table": spec_json(spec), "v": [float(x) for x in v]})


def _normal_perturbation_op(spec, f):
    def run():
        table = curves.disc_table() if spec is None else curves.build_fourier_table(spec)
        npp = homotopy.normal_perturbation_path(table, f)
        return npp.bound, homotopy.verify_comparison(npp.path, **COARSE_GRIDS)

    def check(result, expect):
        bound, cert = result
        _check_certificate(cert, expect)
        # the a-priori length bound constant * (sup|f| + sup|f'|)
        require(cert.geometric <= bound, f"l_B {cert.geometric!r} exceeds its bound {bound!r}")

    return Op("normal_perturbation", run, check,
              inputs={"table": spec_json(spec), "f": [float(x) for x in f]})


def certify_round(rng, r):
    ops = [_support_interp_op(random_support_spec(rng), random_support_spec(rng)) for _ in range(13)]
    ops.append(_translation_op("disc_translation", None, rng.uniform(-0.05, 0.05, 2)))
    ops.append(_translation_op("oval_translation", oval_spec(rng), rng.uniform(-0.05, 0.05, 2)))
    u = np.arange(512) / 512
    k = rng.integers(2, 5, 2)
    amp = rng.uniform(0.002, 0.004, 2)
    f = amp[0] * np.cos(2 * np.pi * k[0] * u + rng.uniform(0, 2 * np.pi)) + amp[1] * np.sin(
        2 * np.pi * k[1] * u
    )
    # alternate the base table of the sampled-curve path between rounds
    ops.append(_normal_perturbation_op(None if r % 2 == 0 else oval_spec(rng), f))
    return ops


# ---------------------------------------------------------------------------
# explore: hb requests through cli.main
# ---------------------------------------------------------------------------


def _request(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reply(result):
    code, out, err = result
    require(code == 0, f"exit code {code}: {err.strip()[:200]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError) as exc:
        raise OracleError(f"stdout is not JSON: {exc}") from exc


def _check_orbit_file(table, spec, n, path, actions):
    orbits = json.loads(Path(path).read_text())
    require(len(orbits) == len(actions) and len(orbits) >= 1, "orbit file and reply disagree")
    widths = None if spec is None else critical_widths(spec)
    for orb in orbits:
        qs = np.asarray(orb["qs"], dtype=float)
        require(qs.size == n, "orbit tuple has the wrong period")
        pos = (curves.disc_table() if table is None else table).position(qs)
        action = float(np.linalg.norm(np.roll(pos, -1, axis=0) - pos, axis=-1).sum())
        require(abs(action - orb["action"]) < 1e-12, "action is not the orbit's perimeter")
        if table is None:
            # regular polygons inscribed in the circle of radius 1/(2 pi)
            closed = n * np.sin(np.pi * orb["winding"] / n) / np.pi
            require(abs(orb["action"] - closed) < 1e-9, f"disc action {orb['action']!r} != {closed!r}")
            continue
        # reflection law at every bounce: equal tangential momenta in and out
        u = np.roll(pos, -1, axis=0) - pos
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        tan = table.tangent(qs)
        defect = np.abs(np.sum(np.roll(u, 1, axis=0) * tan, axis=-1) - np.sum(u * tan, axis=-1)).max()
        require(defect < 1e-9, f"reflection law violated by {defect:.3e}")
        if n == 2:
            require(min(abs(orb["action"] - 2.0 * w) for w in widths) < 1e-9,
                    "2-orbit action is not twice a critical width")


def _map_ops(slot_dir, tf, spec, table, rng, seed, repeats, periods):
    def request(kind, argv, check, expect=None):
        out = str(slot_dir / kind)
        return Op(kind, lambda: _request(argv + ["--table", tf, "--out", out]), check,
                  expect or {}, {"table": spec_json(spec), "argv": argv})

    def check_orbits(n):
        def check(result, expect):
            rep = _reply(result)
            _check_orbit_file(table, spec, n, rep["file"], rep["actions"])

        return check

    q0, p0 = float(rng.uniform()), float(rng.uniform(-0.9, 0.9))
    q, p, s = repr(q0), repr(p0), str(seed)

    def check_eval(result, expect):
        rep = _reply(result)
        check_bounces(table, q0, p0, rep["Q"], rep["P"])

    ops = [request("map_eval", ["map", "eval", "--q", q, "--p", p], check_eval)]
    # request sizes vary continuously, so latencies fill a smooth distribution
    for i in range(repeats):
        qi, pi = float(rng.uniform()), float(rng.uniform(-0.9, 0.9))
        steps = int(rng.integers(30, 51))
        ops.append(request(f"map_iterate{i}", ["map", "iterate", "--q", repr(qi), "--p", repr(pi),
                                               "--steps", str(steps)],
                           _check_iterate(table, qi, pi), {"steps": steps}))
        seeds, portrait_steps = 4, int(rng.integers(15, 26))
        ops.append(request(f"map_portrait{i}", ["map", "portrait", "--seeds", str(seeds), "--steps",
                                                str(portrait_steps), "--seed", f"{s}{i}"],
                           _check_portrait(table), {"seeds": seeds, "steps": portrait_steps}))
    for n in periods:
        ops.append(request(f"orbits_n{n}", ["orbits", "find", "--period", str(n), "--seeds", "6",
                                            "--seed", s], check_orbits(n)))
    return ops


def _check_iterate(table, q0, p0):
    def check(result, expect):
        rep = _reply(result)
        rows = read_csv_rows(rep["file"])
        require(len(rows) == expect["steps"] + 1, f"trajectory has {len(rows)} rows")
        require(rows[0, 1] == q0 and rows[0, 2] == p0, "trajectory start moved")
        check_bounces(table, rows[:-1, 1], rows[:-1, 2], rows[1:, 1], rows[1:, 2])
        require(list(rep["final"]) == [rows[-1, 1], rows[-1, 2]], "final point differs from the file")

    return check


def _check_portrait(table):
    def check(result, expect):
        rep = _reply(result)
        rows = read_csv_rows(rep["file"])
        seeds, steps = expect["seeds"], expect["steps"]
        require(len(rows) == seeds * (steps + 1), f"portrait has {len(rows)} rows")
        rows = rows.reshape(seeds, steps + 1, 4)
        a, b = rows[:, :-1].reshape(-1, 4), rows[:, 1:].reshape(-1, 4)
        check_bounces(table, a[:, 2], a[:, 3], b[:, 2], b[:, 3])

    return check


def explore_round(rng, r, workdir: Path):
    """Requests on a disc, an oval and a random 4-harmonic table.

    The disc's five requests are cheap.  Two iterate and two portrait
    requests on each of the other tables fill the middle of the latency
    distribution, where the median falls.  Period-3 orbit searches run on the
    disc only: on the other tables their mean cost per seed ranged from
    0.45 s to 0.97 s, which made throughput differ by up to 18% between seeds.
    """
    ops = []
    for name, spec, repeats, periods in (("disc", None, 1, (2, 3)),
                                         ("oval", oval_spec(rng), 2, (2,)),
                                         ("random4", random_support_spec(rng), 2, (2,))):
        slot = workdir / f"r{r}-{name}"
        slot.mkdir(parents=True, exist_ok=True)
        tf = slot / "table.json"
        tf.write_text(json.dumps(spec_json(spec)))
        table = None if spec is None else curves.build_fourier_table(spec)
        seed = int(rng.integers(1 << 30))
        for op in _map_ops(slot, str(tf), spec, table, rng, seed, repeats, periods):
            op.kind = f"{op.kind}.{name}"
            ops.append(op)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# landscape: barcodes, functional gaps, smoothing and reconstruction
# ---------------------------------------------------------------------------


def _check_betti(bar, expect):
    betti = [len(bar.infinite_births(d)) for d in range(bar.dim + 1)]
    require(betti == expect["betti"], f"Betti numbers {betti} != {expect['betti']}")
    for d in range(bar.dim + 1):
        require(all(b < e for b, e in bar.degree(d)), "bar with death <= birth")


def _barcode_op(table, n, m):
    def run():
        return persistence.sublevel_barcode(persistence.sample_orbit_functional(table, n, m))

    return Op(f"barcode_n{n}", run, _check_betti, {"betti": [math.comb(n, d) for d in range(n + 1)]})


def random_barcode(rng, finite=3):
    """Small barcode in degrees 0 and 1: ``finite`` finite bars each plus essential bars."""
    bars = {}
    for d, essential in ((0, 1), (1, 2)):
        births = rng.uniform(0.0, 1.0, finite)
        bars[d] = [(float(b), float(b + rng.uniform(0.01, 0.5))) for b in births]
        bars[d] += [(float(rng.uniform(0.0, 1.0)), math.inf) for _ in range(essential)]
    return persistence.Barcode(2, bars)


def _bottleneck_op(a, b):
    def run():
        return [persistence.bottleneck_distance(a, b, d) for d in (0, 1)]

    def check(result, expect):
        for d, value in zip((0, 1), result):
            ref = persistence.bottleneck_brute_force(a, b, d)
            require(abs(value - ref) < 1e-12, f"degree {d}: bottleneck {value!r} != brute force {ref!r}")

    return Op("bottleneck", run, check)


def _stability_op(ta, tb, m):
    def check(rep, expect):
        require(rep.passed, "stability certificate failed")
        require(all(v <= rep.gap.gap + rep.slack + 1e-12 for v in rep.bottlenecks.values()),
                "bottleneck above gap + slack")

    return Op("stability", lambda: persistence.stability_check(ta, tb, 2, m=m), check)


def _functional_gap_op(ta, tb, m, rng):
    probes = rng.integers(0, m, (64, 3))

    def check(rep, expect):
        require(rep.gap <= rep.bound, "functional gap above 2 n C0")
        # chord sums at grid tuples with distinct consecutive entries
        distinct = np.all(probes != np.roll(probes, -1, axis=1), axis=1)
        q = probes[distinct] / m

        def chord_sum(table):
            pos = table.position(q)
            return np.linalg.norm(np.roll(pos, -1, axis=1) - pos, axis=-1).sum(axis=1)

        gap = np.abs(chord_sum(ta) - chord_sum(tb)).max()
        require(gap <= rep.gap + 1e-12, "grid tuple exceeds the reported gap")

    return Op("functional_gap", lambda: dynamics.functional_gap(ta, tb, 3, m=m), check)


def _cauchy_op(poly, q_nodes):
    def run():
        return smoothing.cauchy_tail(smoothing.family_from_polygon(poly), 1.0, q_nodes=q_nodes)

    def check(tail, expect):
        require(bool(np.all(np.diff(tail.increments) < 0)), "Cauchy increments do not decrease")

    return Op("cauchy_tail", run, check)


def _independence_op(poly, w1, w2):
    def run():
        fa = smoothing.family_from_polygon(poly, width=w1)
        fb = smoothing.family_from_polygon(poly, width=w2)
        return smoothing.independence_slope(fa, fb, q_nodes=2048)

    def check(result, expect):
        slope, gaps = result
        require(0.9 <= slope <= 1.1, f"independence slope {slope!r} outside [0.9, 1.1]")

    return Op("independence", run, check)


def _lift_op(poly, s, eps):
    def run():
        fam = smoothing.family_from_polygon(poly)
        return fam, smoothing.positive_curvature_lift(fam, s, eps)

    def check(result, expect):
        fam, lift = result
        require(lift.strictly_convex, "lift is not strictly convex")
        q = np.arange(4096) / 4096
        gap = float(np.linalg.norm(lift.position(q) - fam.curve(s).position(q), axis=-1).max())
        require(gap < 2.0 * eps, f"lift moved the slice by {gap!r} >= 2 eps")

    return Op("curvature_lift", run, check)


def _reconstruction_op(table, samples):
    def run():
        return dynamics.reconstruct_table(dynamics.table_chord_data(table, samples))

    def check(result, expect):
        t, pts = result
        # rigid motion taking the reconstructed anchors onto gamma(0), gamma(1/2)
        true = table.position(t)
        half = int(np.flatnonzero(t == 0.5)[0])
        src = pts[half] - pts[0]
        dst = true[half] - true[0]
        ang = np.arctan2(dst[1], dst[0]) - np.arctan2(src[1], src[0])
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        err = float(np.linalg.norm((pts - pts[0]) @ rot.T + true[0] - true, axis=-1).max())
        require(err < 1e-6, f"reconstruction error {err:.3e}")

    return Op("reconstruction", run, check)


def landscape_round(rng, r):
    specs = {k: random_support_spec(rng) for k in ("n2", "n3", "a", "recon")}
    specs["b"] = oval_spec(rng)
    t = {k: curves.build_fourier_table(v) for k, v in specs.items()}
    bars = (random_barcode(rng), random_barcode(rng))
    polys = {n: rotated_polygon(rng, n) for n in (4, 5, 6)}
    s_lift, eps = rng.uniform(0.4, 0.6), rng.uniform(0.015, 0.03)
    # Four kinds cost less than the two stability checks and four cost more,
    # so the median falls inside the stability block and the tail inside the
    # independence block; both keep narrow sizes so those two stay steady.
    sizes = {"n2": int(rng.integers(56, 81)), "n3": int(rng.integers(12, 15)),
             "stability": [int(m) for m in rng.integers(30, 35, 2)], "gap": int(rng.integers(16, 33)),
             "cauchy": int(rng.integers(1024, 2049)), "recon": int(rng.integers(128, 385))}
    w1, w2 = 0.01, 0.005
    ops = [
        _barcode_op(t["n2"], 2, sizes["n2"]),
        _barcode_op(t["n3"], 3, sizes["n3"]),
        _bottleneck_op(*bars),
        _stability_op(t["a"], t["b"], sizes["stability"][0]),
        _stability_op(t["n2"], t["n3"], sizes["stability"][1]),
        _functional_gap_op(t["a"], t["b"], sizes["gap"], rng),
        _cauchy_op(polys[5], sizes["cauchy"]),
        _independence_op(polys[4], w1, w2),
        _lift_op(polys[6], s_lift, eps),
        _reconstruction_op(t["recon"], sizes["recon"]),
    ]
    inputs = {k: spec_json(v) for k, v in specs.items()}
    inputs.update({f"polygon{n}": [poly.vertices.tolist(), poly.mark] for n, poly in polys.items()})
    inputs.update(bars=[b.to_json() for b in bars], widths=[w1, w2], lift=[s_lift, eps], sizes=sizes)
    for op in ops:
        op.inputs = inputs
    return ops


# ---------------------------------------------------------------------------


def make_rounds(workload, seed, rounds, workdir: Path):
    """The first ``rounds`` rounds of a workload; same seed, same operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, r])
        if workload == "certify":
            out.append(certify_round(rng, r))
        elif workload == "explore":
            out.append(explore_round(rng, r, workdir))
        else:
            out.append(landscape_round(rng, r))
    return out
