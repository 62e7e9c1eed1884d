#!/usr/bin/env python3
"""Closed-loop benchmark of hoferbilliards.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One client thread issues each operation after the previous one finished.
Every operation is checked by its oracle outside the timed interval.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of bench/tracer.py with ``--trace 1``.  See
bench/README.md for the workloads and every metric.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"

# one client thread per process, and BLAS kept to one thread as well
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# rounds of inputs built at set-up; a longer run cycles through them
ROUNDS_CAP = 24
# set-up runs measured per run: this process plus fresh child processes
SETUP_PROBES = 2
# the tail percentile is the highest one with at least this many samples beyond it
TAIL_BEYOND = 10
# seconds per round at the seed commit; the traced run does a fixed number
# of rounds derived from them, so its counts depend only on seed and --seconds
NOMINAL_ROUND_S = {"certify": 12.0, "explore": 2.2, "landscape": 1.9}
# the operation run once at set-up, so lazy caches fill before timing
WARMUP_KIND = {"certify": "support_interp", "explore": "map_iterate0.random4", "landscape": "cauchy_tail"}
PACKAGE_MODULES = ("_solve", "curves", "billiard", "homotopy", "dynamics", "smoothing",
                   "persistence", "specio", "cli")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "explore", "landscape"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_sha(root: Path):
    """HEAD commit read from .git without running git (None outside a checkout)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def package_modules():
    return {name: sys.modules[f"hoferbilliards.{name}"] for name in PACKAGE_MODULES}


def setup(workload, seed, workdir: Path):
    """Import the package, build the workload's inputs and run one warm-up operation."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    origin = Path(sys.modules["hoferbilliards"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"bench: imported hoferbilliards from {origin}, not from {SRC}")
    rounds = workloads.make_rounds(workload, seed, ROUNDS_CAP, workdir)
    warm = next(op for op in rounds[0] if op.kind == WARMUP_KIND[workload])
    warm_outcome = (warm.kind, *execute(warm))
    return rounds, warm_outcome, time.perf_counter() - t0


def execute(op, call=None):
    """Run one operation (timed), then its oracle (untimed); returns (seconds, error)."""
    t0 = time.perf_counter()
    try:
        result = op.run() if call is None else call(op.run)
        error = None
    except Exception as exc:  # a raising operation is a failed operation
        result, error = None, exc
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            op.check(result, op.expect)
        except Exception as exc:  # an oracle that rejects or cannot read the result
            error = exc
    if error is not None:
        line = "".join(traceback.format_exception_only(type(error), error)).strip()
        sys.stderr.write(f"bench: {op.kind} failed: {line}\n")
    return elapsed, error


def probe_setup(args):
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    srt = sorted(latencies)
    n = len(srt)
    k = max(n - TAIL_BEYOND - 1, 0)
    return srt[k], 100.0 * (k + 1) / n


def measure(rounds, seconds):
    """Closed loop over whole rounds until ``seconds`` have passed.

    Returns (kind, latency, error) of every operation.  The loop stops only
    at a round boundary, so every run holds the full mix of its workload,
    and only once more than TAIL_BEYOND operations have run.
    """
    outcomes = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            outcomes.append((op.kind, *execute(op)))
        r += 1
        if time.perf_counter() - start >= seconds and len(outcomes) > TAIL_BEYOND:
            return outcomes


def end_to_end(outcomes, setups, warmup=()):
    """End-to-end metrics, name -> (value, unit), and the details behind them.

    Latencies come from the timed ``outcomes``; failures are counted over
    them and the ``warmup`` outcomes together.
    """
    latencies = [elapsed for _, elapsed, _ in outcomes]
    checked = list(warmup) + list(outcomes)
    failed = sum(err is not None for _, _, err in checked)
    by_kind = {}
    for kind, elapsed, _ in outcomes:
        by_kind.setdefault(kind, []).append(elapsed * 1e3)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": (1.0 - failed / len(checked), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "ops": len(latencies),
        "attempted": len(checked),
        "failed": failed,
        "fail_ratio": failed / len(checked),
        "setup_runs_s": setups,
        "tail_percentile": tail_pct,
        "tail_samples": len(latencies),
        "tail_beyond": TAIL_BEYOND,
        "p50_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    return metrics, detail


def timed_run(args, rounds, warm_outcome, setup_s):
    import tracer

    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    leftover = list(tracer.traced_objects(package_modules()))
    if leftover:
        raise SystemExit(f"bench: untraced run carries wrappers: {leftover}")
    start = time.perf_counter()
    outcomes = measure(rounds, args.seconds)
    wall = time.perf_counter() - start
    metrics, detail = end_to_end(outcomes, setups, warmup=[warm_outcome])
    detail["wall_s"] = wall
    return detail["attempted"], detail["failed"], metrics, detail


def traced_run(args, rounds, warm_outcome):
    """Every operation once untraced and once traced: per-layer metrics and the overhead.

    The number of rounds depends only on --seconds, so count metrics repeat
    exactly at a given seed.
    """
    import tracer as tracing

    pkg = package_modules()
    tracer = tracing.Tracer()
    n_rounds = max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload] // 2))
    outcomes = [warm_outcome]
    untraced = traced = 0.0
    op_wall = {}
    ops = [op for r in range(n_rounds) for op in rounds[r % len(rounds)]]
    for op_id, op in enumerate(ops):
        # alternate which copy runs first, so warm-up effects cancel in the overhead
        for traced_copy in (op_id % 2 == 1, op_id % 2 == 0):
            if traced_copy:
                tracer.install(pkg)
                try:
                    elapsed, error = execute(op, call=lambda fn: tracer.run_op(op_id, op.kind, fn))
                finally:
                    tracer.uninstall()
                traced += elapsed
                op_wall[op_id] = elapsed
            else:
                elapsed, error = execute(op)
                untraced += elapsed
            outcomes.append((op.kind, elapsed, error))
    leftover = list(tracing.traced_objects(pkg))
    if leftover:
        raise SystemExit(f"bench: wrappers left after the traced run: {leftover}")
    metrics = {k: (v["value"], v["unit"]) for k, v in tracer.per_layer(traced / untraced - 1.0).items()}
    by_op = tracer.self_by_op()
    fc = tracer.counts["billiard.forward_chord"]
    fc_incl = sum(s[4] - s[3] for s in tracer.spans if s[0] == "billiard.forward_chord")
    theta_by_kind, wall_by_kind = {}, {}
    for s in tracer.spans:
        if s[0] == "curves.FourierTable.theta_of_q":
            kind = tracer.op_kinds[s[2]]
            theta_by_kind[kind] = theta_by_kind.get(kind, 0.0) + s[4] - s[3]
    for op_id, wall in op_wall.items():
        kind = tracer.op_kinds[op_id]
        wall_by_kind[kind] = wall_by_kind.get(kind, 0.0) + wall
    detail = {
        "rounds": n_rounds,
        "ops": len(ops),
        "untraced_s": untraced,
        "traced_s": traced,
        "spans": len(tracer.spans),
        # largest gap between an operation's summed span self times and its wall time
        "self_time_gap_s": max(abs(by_op[k] - w) for k, w in op_wall.items()),
        "self_time_gap_ratio": max(abs(by_op[k] - w) / w for k, w in op_wall.items()),
        # inclusive figures for comparison with the ROADMAP baseline
        "forward_chord_us_per_point": 1e6 * fc_incl / max(fc["points"], 1),
        "forward_chord_ms_per_call": 1e3 * fc_incl / max(fc["calls"], 1),
        "theta_of_q_share_by_kind": {k: theta_by_kind.get(k, 0.0) / w for k, w in wall_by_kind.items()},
    }
    tracer.write(OUT / f"trace-{args.workload}.jsonl")
    attempted = len(outcomes)
    failed = sum(err is not None for _, _, err in outcomes)
    return attempted, failed, metrics, detail


def metadata():
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "client_threads": 1,
    }


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (SRC / "hoferbilliards" / "__init__.py").is_file():
        sys.stderr.write(f"bench: package source not found under {SRC}\n")
        return 1
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        rounds, warm_outcome, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            attempted, failed, metrics, detail = traced_run(args, rounds, warm_outcome)
        else:
            attempted, failed, metrics, detail = timed_run(args, rounds, warm_outcome, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(),
        "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"meta": record["meta"], "detail": detail}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"op_tail_ms is p{detail['tail_percentile']:.1f} of {detail['tail_samples']} samples "
              f"({TAIL_BEYOND} beyond); fail_ratio = {detail['fail_ratio']:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
