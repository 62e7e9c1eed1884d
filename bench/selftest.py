"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest bench/selftest.py -q

The traced-run tests start the benchmark twice per workload in fresh
processes and take about a minute and a half on two cores.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# |sum of span self times - operation wall time| may not exceed this share of
# the wall time plus a fixed allowance for the tracer's own bookkeeping
SELF_TIME_REL_TOL = 0.01
SELF_TIME_ABS_TOL = 2e-4


def _inputs(workload, seed, workdir):
    rounds = workloads.make_rounds(workload, seed, 2, workdir)
    return [[(op.kind, json.dumps(op.inputs, sort_keys=True)) for op in rnd] for rnd in rounds]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_operations(workload, tmp_path):
    assert _inputs(workload, 5, tmp_path / "a") == _inputs(workload, 5, tmp_path / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_gives_different_inputs(workload, tmp_path):
    a = _inputs(workload, 5, tmp_path / "a")
    b = _inputs(workload, 6, tmp_path / "b")
    for ra, rb in zip(a, b):
        # the same mix of operation kinds, drawn on other inputs
        assert sorted(k for k, _ in ra) == sorted(k for k, _ in rb)
        assert set(ra).isdisjoint(rb)


@pytest.mark.parametrize(
    "workload, kind, key, wrong",
    [
        ("certify", "disc_translation", "l_B", lambda v: v + 1e-3),
        ("explore", "map_portrait0.disc", "seeds", lambda v: v + 1),
        ("landscape", "barcode_n2", "betti", lambda v: [1, 2, 2]),
    ],
)
def test_wrong_expected_value_counts_in_fail_ratio(workload, kind, key, wrong, tmp_path):
    ops = workloads.make_rounds(workload, 1, 1, tmp_path)[0]
    good = next(op for op in ops if op.kind == kind)
    bad = copy.copy(good)
    bad.expect = dict(good.expect, **{key: wrong(good.expect[key])})
    outcomes = run.measure([[good, bad]], seconds=0)
    metrics, detail = run.end_to_end(outcomes, setups=[1.0])
    assert detail["fail_ratio"] == 0.5
    assert metrics["ok_ratio"][0] == 0.5


def test_self_times_add_up_to_operation_wall_time(tmp_path):
    ops = workloads.make_rounds("landscape", 2, 1, tmp_path)[0]
    ops += workloads.make_rounds("explore", 2, 1, tmp_path)[0][:5]
    pkg = run.package_modules()
    tr = tracer.Tracer()
    wall = {}
    tr.install(pkg)
    try:
        for op_id, op in enumerate(ops):
            wall[op_id], error = run.execute(op, call=lambda fn: tr.run_op(op_id, op.kind, fn))
            assert error is None
    finally:
        tr.uninstall()
    assert list(tracer.traced_objects(pkg)) == []
    # the oracles ran with the wrappers installed but recorded nothing
    assert {span[2] for span in tr.spans} == set(wall)
    by_op = tr.self_by_op()
    for op_id, w in wall.items():
        assert abs(by_op[op_id] - w) <= SELF_TIME_REL_TOL * w + SELF_TIME_ABS_TOL
    assert all(v >= -1e-9 for v in tr.self_times())


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_at_the_same_seed(workload):
    a, b = _traced_run(workload, 3), _traced_run(workload, 3)
    assert a["correct"] and b["correct"]
    assert list(a["metrics"]) == [name for name, _, _ in tracer.PER_LAYER]
    counts_a = {k: v["value"] for k, v in a["metrics"].items() if v["unit"] == "count"}
    counts_b = {k: v["value"] for k, v in b["metrics"].items() if v["unit"] == "count"}
    assert counts_a == counts_b
    assert any(counts_a.values())


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER
    ]
    metrics, _ = run.end_to_end([("op", 0.1, None)] * 12, setups=[1.0])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
