import argparse
import json
import time
from itertools import count

import numpy as np
import pytest

from hoferbilliards import dynamics as dy
from hoferbilliards import persistence as pe
from hoferbilliards.cli import main
from hoferbilliards.errors import SolverDidNotConverge
from hoferbilliards.specio import SpecError, load_path, load_table


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_load_table_kinds(tmp_path):
    assert load_table({"type": "disc"}).kind == "disc"
    t = load_table({"type": "fourier_support", "c0": 1.0, "cos": [0.0, 0.05]})
    assert t.kind == "fourier_support"
    sqv = [[0.125, -0.125], [0.125, 0.125], [-0.125, 0.125], [-0.125, -0.125]]
    t = load_table({"type": "smoothed_polygon", "vertices": sqv,
                    "profile_width": 0.01, "scale": 0.5, "mark": 0.125})
    assert t.kind == "smoothed_polygon"
    with pytest.raises(SpecError):
        load_table({"type": "hyperbola"})
    with pytest.raises(SpecError):
        load_table({"no_type": 1})


def test_load_path_kinds():
    p = load_path({"type": "translation", "table": {"type": "disc"}, "v": [0.1, 0.0]})
    assert p.tag == "translation"
    p = load_path({"type": "support_interp", "a": {"c0": 1.0}, "b": {"c0": 1.0, "cos": [0.0, 0.04]}})
    assert p.tag == "support_interp"
    p = load_path({"type": "normal_perturbation", "table": {"type": "disc"},
                   "f": {"cos": [0.005]}})
    assert p.tag == "normal_perturbation"
    with pytest.raises(SpecError):
        load_path({"type": "support_interp", "a": {"c0": 1.0}})


def test_map_eval_output(tmp_path, capsys):
    table = _write(tmp_path, "disc.json", {"type": "disc"})
    code = main(["map", "eval", "--table", table, "--q", "0", "--p", "0.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["Q"] == pytest.approx(1 / 3, abs=1e-9)
    assert out["P"] == pytest.approx(0.5, abs=1e-9)


def test_input_error_exit_code(tmp_path, capsys):
    code = main(["map", "eval", "--table", str(tmp_path / "nope.json"), "--q", "0", "--p", "0.5"])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_malformed_spec_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"type": "fourier_support", "cos": [0.1]})
    code = main(["table", "inspect", "--table", bad])
    assert code == 1
    assert "c0" in json.loads(capsys.readouterr().out)["error"]


def test_hofer_compare_certificate(tmp_path, capsys):
    path = _write(tmp_path, "path.json",
                  {"type": "translation", "table": {"type": "disc"}, "v": [0.05, 0.0]})
    code = main(["hofer", "compare", "--path", path, "--out", str(tmp_path / "out")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["pass"] is True and out["ratio"] == 0.0


@pytest.mark.parametrize("s", ["40", "1", "-0.5"])
def test_hjresidual_rejects_s_outside_the_path(tmp_path, capsys, s):
    # the residual differences the slices at s -+ 1e-4; beyond [0, 1] a
    # support interpolation extrapolates to a slice that need not be convex
    path = _write(tmp_path, "si.json",
                  {"type": "support_interp", "a": {"c0": 1.0}, "b": {"c0": 1.0, "cos": [0.0, 0.08]}})
    code = main(["hofer", "hjresidual", "--path", path, "--s", s, "--points", "8"])
    assert code == 1
    assert "s must lie in" in json.loads(capsys.readouterr().out)["error"]


def test_hjresidual_inside_the_path(tmp_path, capsys):
    path = _write(tmp_path, "si.json",
                  {"type": "support_interp", "a": {"c0": 1.0}, "b": {"c0": 1.0, "cos": [0.0, 0.08]}})
    code = main(["hofer", "hjresidual", "--path", path, "--s", "0.5", "--points", "8"])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and out["s"] == 0.5 and out["max_residual"] < 1e-5


def test_orbits_find_artifact(tmp_path, capsys):
    table = _write(tmp_path, "disc.json", {"type": "disc"})
    code = main(["orbits", "find", "--table", table, "--period", "2",
                 "--seeds", "6", "--seed", "0", "--out", str(tmp_path / "out")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["actions"][0] == pytest.approx(2 / np.pi, abs=1e-9)
    data = json.loads((tmp_path / "out" / "orbits_n2.json").read_text())
    assert data[0]["accepted"] is True


def test_barcode_roundtrip_via_files(tmp_path, capsys):
    table = _write(tmp_path, "disc.json", {"type": "disc"})
    code = main(["barcode", "compute", "--table", table, "--period", "2",
                 "--resolution", "16", "--dump-grid", "--out", str(tmp_path / "out")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["betti"] == [1, 2, 1]
    bc = tmp_path / "out" / "barcode_n2_m16.json"
    code = main(["barcode", "bottleneck", "--barcode", str(bc), "--barcode2", str(bc),
                 "--degree", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["bottleneck"] == 0.0
    grid = pe.load_grid(tmp_path / "out" / "grid_n2_m16.bin")
    assert grid.resolution == 16 and grid.dim == 2
    assert grid.values.max() == pytest.approx(2 / np.pi, abs=1e-12)


def test_reconstruct_subcommand(tmp_path, capsys):
    table = _write(tmp_path, "disc.json", {"type": "disc"})
    code = main(["reconstruct", "--table", table, "--samples", "64",
                 "--out", str(tmp_path / "out")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["max_aligned_error"] < 1e-8
    lines = (tmp_path / "out" / "reconstructed.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,y" and len(lines) == 65


def test_reconstruct_requires_input(capsys):
    assert main(["reconstruct"]) == 1
    assert "one of the arguments --table --chords is required" in json.loads(capsys.readouterr().out)["error"]


GOOD_BAR = {"degree": 0, "birth": 0.0, "death": 1.0}


@pytest.mark.parametrize(
    "bars, message",
    [
        ([{"birth": 0.0, "death": 1.0}], "barcode[0].degree: missing field"),
        ([GOOD_BAR, {"degree": 0, "death": 1.0}], "barcode[1].birth: missing field"),
        ([{"degree": 0, "birth": 0.0}], "barcode[0].death: missing field"),
        ([{"degree": 0, "birth": None, "death": 1.0}], "barcode[0].birth: malformed field"),
        ([["degree", 0]], "barcode[0].degree: missing field"),
        (GOOD_BAR, "barcode: expected a list of bars"),
        ([dict(GOOD_BAR, birth="nan")], "barcode[0].birth: malformed field (expected a finite number, got 'nan')"),
        ([dict(GOOD_BAR, death="nan")], "barcode[0].death: malformed field (expected a finite number, got 'nan')"),
        ([dict(GOOD_BAR, birth="inf", death=1)], "barcode[0].birth: malformed field"),
        ([dict(GOOD_BAR, birth=2.0, death=1.0)], "barcode[0].death: 1.0 is not above the birth 2.0"),
        ([dict(GOOD_BAR, degree=1.7)], "barcode[0].degree: malformed field (expected an integer >= 0, got 1.7)"),
        ([dict(GOOD_BAR, degree=True)], "barcode[0].degree: malformed field (expected an integer >= 0, got True)"),
        ([dict(GOOD_BAR, degree=-1)], "barcode[0].degree: malformed field (expected an integer >= 0, got -1)"),
    ],
    ids=["no-degree", "no-birth", "no-death", "null-birth", "bar-not-object", "not-a-list", "nan-birth",
         "nan-death", "inf-birth", "inverted", "fractional-degree", "boolean-degree", "negative-degree"],
)
def test_bottleneck_malformed_barcode_is_input_error(tmp_path, capsys, bars, message):
    # the string NaNs read 0.5 against a (0, 1) bar, the inverted bar and the
    # infinite birth 0.0, and the degrees 1.7 and true were read as 1
    bad = _write(tmp_path, "bad.json", bars)
    good = _write(tmp_path, "good.json", [GOOD_BAR])
    assert main(["barcode", "bottleneck", "--barcode", bad, "--barcode2", good]) == 1
    assert message in json.loads(capsys.readouterr().out)["error"]


GOOD_CHORDS = {"t": [0.25, 0.75], "from_start": [1.0, 1.0], "from_half": [1.0, 1.0], "anchor": 1.4}


@pytest.mark.parametrize("field", ["t", "from_start", "from_half", "anchor"])
def test_reconstruct_chords_missing_field_is_input_error(tmp_path, capsys, field):
    chords = _write(tmp_path, "chords.json", {k: v for k, v in GOOD_CHORDS.items() if k != field})
    assert main(["reconstruct", "--chords", chords, "--out", str(tmp_path / "out")]) == 1
    assert f"chords.{field}: missing field" in json.loads(capsys.readouterr().out)["error"]


def test_reconstruct_chords_not_an_object_is_input_error(tmp_path, capsys):
    chords = _write(tmp_path, "chords.json", [GOOD_CHORDS])
    assert main(["reconstruct", "--chords", chords, "--out", str(tmp_path / "out")]) == 1
    assert "chords.t: missing field" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"from_start": [1.0]}, "chords.from_start: 1 samples, chords.t has 2"),
        ({"from_half": [1.0, 1.0, 1.0]}, "chords.from_half: 3 samples, chords.t has 2"),
        ({"t": [0.25, 0.5, 0.75]}, "chords.from_start: 2 samples, chords.t has 3"),
        ({"t": [], "from_start": [], "from_half": []}, "chords.t: malformed field (expected a non-empty list"),
        ({"from_half": []}, "chords.from_half: malformed field (expected a non-empty list"),
        ({"t": [[0.25, 0.75]]}, "chords.t: malformed field (expected a finite number, got [0.25, 0.75])"),
        ({"t": [0.75, 0.25]}, "t must increase strictly inside (0, 1) and skip 1/2"),
        ({"t": [1.25, 1.75]}, "t must increase strictly inside (0, 1) and skip 1/2"),
        ({"t": [0.0, 0.75]}, "t must increase strictly inside (0, 1) and skip 1/2"),
        ({"t": [0.25, 0.5, 0.75], "from_start": [1.0] * 3, "from_half": [1.0] * 3},
         "t must increase strictly inside (0, 1) and skip 1/2"),
        ({"anchor": -1}, "anchor distance F(0, 1/2) must be positive"),
    ],
    ids=["short-from-start", "long-from-half", "long-t", "all-empty", "empty-from-half", "nested-t",
         "reversed-t", "t-above-1", "t-at-0", "t-at-half", "negative-anchor"],
)
def test_reconstruct_chords_of_unequal_or_empty_lengths_are_input_errors(tmp_path, capsys, patch, message):
    # numpy would otherwise fail on the broadcast or on a zero-size maximum;
    # unchecked, reversed t writes its rows out of order, t = 1.25 is read as
    # t > 1/2, t = 0 writes a second row at 0, and a sample at 1/2 is dropped
    chords = _write(tmp_path, "chords.json", {**GOOD_CHORDS, **patch})
    assert main(["reconstruct", "--chords", chords, "--out", str(tmp_path / "out")]) == 1
    assert message in json.loads(capsys.readouterr().out)["error"]


def test_reconstruct_chords_roundtrip(tmp_path, capsys):
    chords = _write(tmp_path, "chords.json", GOOD_CHORDS)
    assert main(["reconstruct", "--chords", chords, "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == 4


@pytest.mark.parametrize(
    "argv, message",
    [
        (["map", "eval", "--table", "x.json"], "the following arguments are required: --q, --p"),
        (["map", "eval", "--table", "x.json", "--q", "abc", "--p", "0"], "invalid float value"),
        (["reconstruct", "--table", "a.json", "--chords", "b.json"], "not allowed with argument"),
        (["nosuch"], "invalid choice"),
    ],
    ids=["missing", "type", "both-sources", "command"],
)
def test_usage_errors_are_input_errors(capsys, argv, message):
    # argparse alone would raise SystemExit(2), the certificate-failure code
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert "usage: hb" in captured.err and "input error" in captured.err


_ELLIPSE_PATH = {"type": "support_interp", "a": {"c0": 1.0}, "b": {"c0": 1.0, "cos": [0.0, 0.04]}}


@pytest.mark.parametrize(
    "flag, low, bad",
    [("--grid-q", 4, ["3", "0", "-8"]), ("--grid-p", 1, ["0", "-3"])],
    ids=["grid-q", "grid-p"],
)
def test_hofer_length_grid_below_its_minimum_is_a_usage_error(tmp_path, capsys, flag, low, bad):
    # numpy would otherwise fail on a zero-size max or a negative sample count
    path = _write(tmp_path, "p.json", _ELLIPSE_PATH)
    for value in bad:
        assert main(["hofer", "length", "--path", path, flag, value]) == 1
        error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
        assert f"argument {flag}: must be at least {low}, got {value}" in error
    # the smallest accepted grids run: one Q column of grid-p momenta, or one momentum
    small = {"--grid-q": ["--grid-q", "4", "--grid-p", "3"], "--grid-p": ["--grid-q", "16", "--grid-p", "1"]}
    argv = ["hofer", "length", "--path", path, "--grid-s", "3", "--out", str(tmp_path / "o")]
    assert main(argv + small[flag]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["l_B"] > 0.0 and result["l_H"] > 0.0


@pytest.mark.parametrize("value", ["4", "1", "2", "0", "-5"])
def test_hofer_length_grid_s_not_a_simpson_count_is_a_usage_error(tmp_path, capsys, value):
    # the l_B Simpson rule needs an odd node count >= 3; the error names the flag
    path = _write(tmp_path, "p.json", _ELLIPSE_PATH)
    assert main(["hofer", "length", "--path", path, "--grid-s", value]) == 1
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert f"argument --grid-s: must be an odd integer >= 3, got {value}" in error


def test_hofer_length_smallest_simpson_count_runs(tmp_path, capsys):
    path = _write(tmp_path, "p.json", _ELLIPSE_PATH)
    argv = ["hofer", "length", "--path", path, "--grid-s", "3", "--grid-q", "16", "--grid-p", "3"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["l_B"] > 0.0


def _dumped_field(tmp_path, capsys, spec):
    path = _write(tmp_path, "p.json", spec)
    out = tmp_path / "o"
    argv = ["hofer", "length", "--path", path, "--grid-s", "3", "--grid-q", "16", "--grid-p", "3", "--dump-field"]
    assert main(argv + ["--out", str(out)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["field_file"] == str(out / "hamiltonian_field.csv")
    lines = (out / "hamiltonian_field.csv").read_text().splitlines()
    assert lines[0] == "s,Q,P,H"
    # 9 s-slices of a 32 x 17 (Q, P) grid
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows.shape == (9 * 32 * 17, 4)
    return load_path(spec), rows


def test_hofer_length_dump_field_of_a_translation_is_zero(tmp_path, capsys):
    # a constant velocity cancels in v(q_s) - v(Q) exactly
    _, rows = _dumped_field(tmp_path, capsys, {"type": "translation", "table": {"type": "disc"}, "v": [0.05, 0.02]})
    assert np.all(rows[:, 3] == 0.0)


def test_hofer_length_dump_field_matches_value_arrays(tmp_path, capsys):
    from hoferbilliards.homotopy import HamiltonianField

    path, rows = _dumped_field(tmp_path, capsys, _ELLIPSE_PATH)
    hf = HamiltonianField(path)
    Qg, Pg = np.arange(32) / 32, np.linspace(-0.9, 0.9, 17)
    for k, block in enumerate(rows.reshape(9, 32 * 17, 4)):
        s = k / 8
        assert np.all(block[:, 0] == s)
        assert np.array_equal(block[:, 1:3].reshape(32, 17, 2), np.stack(np.meshgrid(Qg, Pg, indexing="ij"), -1))
        # value_arrays broadcasts a column of Q against a row of P
        H = hf.value_arrays(s, Qg[:, None], Pg[None, :])
        assert H.shape == (32, 17) and H.ravel().tobytes() == block[:, 3].tobytes()
        assert np.ptp(H) > 0.0


# count flags with their smallest value that runs; numpy used to take a
# smaller one silently (a header-only CSV, torus Betti numbers [0, 0, 0])
# or fail with a message that named no flag, or a traceback
_COUNT_FLAGS = {
    "table-sample-grid-q": (["table", "sample", "--table", "{disc}"], "--grid-q", 1),
    "map-portrait-seeds": (["map", "portrait", "--table", "{disc}", "--steps", "2"], "--seeds", 1),
    "hofer-hjresidual-points": (["hofer", "hjresidual", "--path", "{translation}"], "--points", 1),
    "orbits-find-seeds": (["orbits", "find", "--table", "{disc}", "--period", "2"], "--seeds", 0),
    "orbits-gap-grid-q": (
        ["orbits", "gap", "--table", "{disc}", "--table2", "{ellipse}", "--period", "2"], "--grid-q", 1),
    "orbits-experiment-samples": (
        ["orbits", "experiment", "--table", "{disc}", "--table2", "{ellipse}", "--period", "2",
         "--seeds", "0"], "--samples", 1),
    "orbits-experiment-seeds": (
        ["orbits", "experiment", "--table", "{disc}", "--table2", "{ellipse}", "--period", "2",
         "--samples", "4"], "--seeds", 0),
    "barcode-compute-resolution": (["barcode", "compute", "--table", "{disc}"], "--resolution", 1),
    "barcode-stability-resolution": (
        ["barcode", "stability", "--table", "{disc}", "--table2", "{ellipse}"], "--resolution", 1),
    "reconstruct-samples": (["reconstruct", "--table", "{ellipse}"], "--samples", 3),
    "barcode-bottleneck-degree": (["barcode", "bottleneck", "--barcode", "{bars}", "--barcode2", "{bars}"],
                                  "--degree", 0),
}


def _input_files(tmp_path):
    """Input files of every command, by the placeholder names of the flag tables."""
    return {
        "disc": _write(tmp_path, "disc.json", {"type": "disc"}),
        "ellipse": _write(tmp_path, "ellipse.json", {"type": "fourier_support", "c0": 1.0, "cos": [0.0, 0.03]}),
        "translation": _write(tmp_path, "path.json", {"type": "translation", "table": {"type": "disc"}, "v": [0.05, 0.0]}),
        "bars": _write(tmp_path, "bars.json", [GOOD_BAR]),
        "square": _write(tmp_path, "square.json", _SQUARE),
    }


@pytest.mark.parametrize("case", list(_COUNT_FLAGS))
def test_count_flag_below_its_minimum_is_a_usage_error(tmp_path, capsys, case):
    argv, flag, low = _COUNT_FLAGS[case]
    out = tmp_path / "out"
    argv = [a.format(**_input_files(tmp_path)) for a in argv] + ["--out", str(out)]
    for value in sorted(v for v in {low - 1, 0, -3} if v < low):
        assert main(argv + [flag, str(value)]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.out.strip().splitlines()[-1])["error"]
        assert f"argument {flag}: must be at least {low}, got {value}" in error
        assert "Traceback" not in captured.err and not out.exists()
    assert main(argv + [flag, str(low)]) == 0


@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_all_without_a_random_path_is_a_usage_error(tmp_path, capsys, value):
    # with no random path, verify all used to certify the two translation
    # paths alone and print PASS
    out = tmp_path / "va"
    assert main(["verify", "all", "--seed", "7", "--paths", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert f"argument --paths: must be at least 1, got {value}" in error
    assert "PASS" not in captured.out + captured.err and not out.exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_verify_all_threads_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, value):
    # --threads 0 and -2 used to run with one worker and print PASS
    import hoferbilliards.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "va"
    assert main(["verify", "all", "--seed", "7", "--threads", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert f"argument --threads: must be at least 1, got {value}" in error
    assert "PASS" not in captured.out + captured.err and not out.exists()


def test_barcode_grid_over_the_cell_budget_is_an_input_error(tmp_path, capsys):
    # the user chose the grid; 300^3 points used to exit 2 as a certificate failure
    disc = _write(tmp_path, "disc.json", {"type": "disc"})
    argv = ["barcode", "compute", "--table", disc, "--period", "3", "--resolution", "300"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert "300^3 grid exceeds the configured budget" in result["error"] and "kind" not in result
    assert "input error" in captured.err


def test_help_returns_0(capsys):
    assert main(["map", "eval", "--help"]) == 0
    assert "--table" in capsys.readouterr().out


def test_usage_error_process_exit_code(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hoferbilliards

    env = dict(os.environ, PYTHONPATH=str(Path(hoferbilliards.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "hoferbilliards.cli", "map", "eval", "--table", "x.json"],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert run.returncode == 1 and "error" in json.loads(run.stdout)


# every subcommand with its required arguments (values are never read: the
# removed flags fail at parsing, the kept ones are checked by parsing alone)
_COMMANDS = {
    "table inspect": ["--table", "t.json"],
    "table sample": ["--table", "t.json"],
    "map eval": ["--table", "t.json", "--q", "0", "--p", "0"],
    "map iterate": ["--table", "t.json", "--q", "0", "--p", "0"],
    "map portrait": ["--table", "t.json"],
    "hofer length": ["--path", "p.json"],
    "hofer compare": ["--path", "p.json"],
    "hofer hjresidual": ["--path", "p.json"],
    "polygon family": ["--polygon", "g.json"],
    "polygon cauchy": ["--polygon", "g.json"],
    "polygon independence": ["--polygon", "g.json"],
    "orbits find": ["--table", "t.json", "--period", "2"],
    "orbits gap": ["--table", "t.json", "--table2", "t.json", "--period", "2"],
    "orbits experiment": ["--table", "t.json", "--table2", "t.json", "--period", "2"],
    "barcode compute": ["--table", "t.json"],
    "barcode bottleneck": ["--barcode", "b.json", "--barcode2", "b.json"],
    "barcode stability": ["--table", "t.json", "--table2", "t.json"],
    "reconstruct": ["--table", "t.json"],
    "verify all": [],
}
# flag -> (a value, its parsed form, the commands that read it)
_FLAGS = {
    "--seed": ("5", 5, {"map portrait", "hofer hjresidual", "orbits find", "orbits experiment", "verify all"}),
    "--tol": ("0.25", 0.25, {"hofer compare", "polygon cauchy"}),
    "--threads": ("3", 3, {"verify all"}),
    "--out": ("o", "o", set(_COMMANDS)),
}


def _leaf_parsers(parser, prefix=()):
    """{"group cmd": parser} of every subcommand, walking the argparse tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(prefix): parser}
    return {c: p for name, sp in subs[0].choices.items() for c, p in _leaf_parsers(sp, prefix + (name,)).items()}


def test_flag_table_covers_every_command():
    from hoferbilliards.cli import build_parser

    leaves = _leaf_parsers(build_parser())
    assert sorted(leaves) == sorted(_COMMANDS)
    # instances of the four shared flags over the 19 subcommands
    flags = [o for sp in leaves.values() for a in sp._actions for o in a.option_strings if o in _FLAGS]
    assert len(flags) == 27


@pytest.mark.parametrize("flag", sorted(_FLAGS))
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_flags_only_where_read(capsys, command, flag):
    from hoferbilliards.cli import _parser

    value, parsed, readers = _FLAGS[flag]
    argv = command.split() + _COMMANDS[command] + [flag, value]
    if command in readers:
        assert getattr(_parser().parse_args(argv), flag[2:]) == parsed
    else:
        assert main(argv) == 1
        assert "unrecognized arguments" in json.loads(capsys.readouterr().out)["error"]


@pytest.fixture
def inflated_gap(monkeypatch):
    """Every other ``sample_functional_values`` call, through ``dynamics`` or
    through ``persistence`` (whose stability check hands its grids to the
    gap), returns its values times 1.5, so each functional gap compares F_a
    with 1.5 F_b and reports a gap above its bound."""
    original = dy.sample_functional_values
    calls = count()

    def inflated(*args):
        values = original(*args)
        return values * 1.5 if next(calls) % 2 else values

    monkeypatch.setattr(dy, "sample_functional_values", inflated)
    monkeypatch.setattr(pe, "sample_functional_values", inflated)


def test_verify_all_records_a_failed_bound_and_runs_every_check(tmp_path, capsys, inflated_gap):
    # the gap bound used to raise out of the battery: exit 2 with only
    # cauchy.csv, comparison.json and independence.csv written
    out = tmp_path / "va"
    assert main(["verify", "all", "--seed", "7", "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False and len(summary["checks"]) == 10
    # the stability report carries its functional gap, so it fails with it
    failed = sorted(c["name"] for c in summary["checks"] if not c["pass"])
    assert failed == ["functional_gap", "persistence"]
    assert sorted(p.name for p in out.iterdir()) == [
        "cauchy.csv", "comparison.json", "independence.csv", "orbits.json", "persistence.json", "summary.json"]
    assert "[FAIL] functional_gap" in capsys.readouterr().err


def test_orbits_gap_reports_its_verdict(tmp_path, capsys):
    disc = _write(tmp_path, "disc.json", {"type": "disc"})
    ellipse = _write(tmp_path, "ellipse.json", {"type": "fourier_support", "c0": 1.0, "cos": [0.0, 0.03]})
    assert main(["orbits", "gap", "--table", disc, "--table2", ellipse, "--period", "2", "--grid-q", "16"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["pass"] is True and result["gap"] <= result["bound"]


def test_orbits_gap_above_its_bound_exits_2(tmp_path, capsys, inflated_gap):
    disc = _write(tmp_path, "disc.json", {"type": "disc"})
    ellipse = _write(tmp_path, "ellipse.json", {"type": "fourier_support", "c0": 1.0, "cos": [0.0, 0.03]})
    assert main(["orbits", "gap", "--table", disc, "--table2", ellipse, "--period", "2", "--grid-q", "16"]) == 2
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["pass"] is False and result["gap"] > result["bound"]


def test_orbit_search_over_the_cell_budget_is_an_input_error(tmp_path, capsys, monkeypatch):
    # --period 2000 asked numpy for a (5013, 2000, 2000) Hessian stack, 149 GiB,
    # and ended in a traceback; period 3 tries 8 rotational seeds for each of
    # k = 1, 2 and the 2 random ones, a stack of 18 x 3 x 3 cells
    disc = _write(tmp_path, "disc.json", {"type": "disc"})
    out = tmp_path / "out"
    argv = ["orbits", "find", "--table", disc, "--period", "3", "--seeds", "2", "--out", str(out)]
    monkeypatch.setattr(dy, "CELL_BUDGET", 18 * 3 * 3 - 1)
    assert main(argv) == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert "18 seeds x 3 x 3 Hessian stack exceeds the configured budget" in result["error"]
    assert "kind" not in result and "input error" in captured.err and not out.exists()
    monkeypatch.setattr(dy, "CELL_BUDGET", 18 * 3 * 3)
    assert main(argv) == 0


# each budgeted count with the cells it asks for: orbits gap and the barcode
# commands through one m^n check in dynamics, which barcode compute and
# barcode stability used to skip for a copy of the budget bound at import;
# orbits find checks 8 n^2 before its coprime scan; hofer length checks
# each of its node counts and the one Hamiltonian grid it solves at a time
_BUDGETS = {
    "table-sample": (["table", "sample", "--table", "{disc}", "--grid-q", "16"], 16,
                     "--grid-q 16 exceeds the configured budget"),
    "map-iterate": (["map", "iterate", "--table", "{disc}", "--q", "0.1", "--p", "0.3", "--steps", "9"], 10,
                    "10 steps x 1 starts"),
    "map-portrait": (["map", "portrait", "--table", "{disc}", "--seeds", "3", "--steps", "-4"], 15,
                     "5 steps x 3 starts"),
    "reconstruct": (["reconstruct", "--table", "{disc}", "--samples", "64"], 64,
                    "64 chord samples exceed the configured budget"),
    "hofer-length-nodes": (
        ["hofer", "length", "--path", "{translation}", "--grid-q", "8", "--grid-p", "1", "--grid-s", "9"], 9,
        "--grid-s 9 exceeds the configured budget"),
    "hofer-length-speed": (
        ["hofer", "length", "--path", "{translation}", "--grid-q", "8", "--grid-p", "3", "--grid-s", "5"], 8,
        "--grid-q 8 exceeds the configured budget"),
    "hofer-length-hamiltonian": (
        ["hofer", "length", "--path", "{translation}", "--grid-q", "8", "--grid-p", "31", "--grid-s", "3"], 62,
        "2 x --grid-p 31 Hamiltonian grid exceeds the configured budget"),
    "hofer-hjresidual": (["hofer", "hjresidual", "--path", "{translation}", "--points", "5"], 5,
                         "--points 5 exceeds the configured budget"),
    "polygon-cauchy": (["polygon", "cauchy", "--polygon", "{square}", "--levels", "2", "--tol", "1"], 3 * 4096,
                       "3 levels x 4096 nodes rate grid exceeds the configured budget"),
    "orbits-find": (["orbits", "find", "--table", "{disc}", "--period", "2", "--seeds", "0"], 8 * 2 * 2,
                    "at least 8 seeds x 2 x 2 Hessian stack exceeds the configured budget"),
    "orbits-gap": (["orbits", "gap", "--table", "{disc}", "--table2", "{disc}", "--period", "2", "--grid-q", "16"],
                   16 * 16, "16^2 grid exceeds the configured budget"),
    "orbits-experiment": (
        ["orbits", "experiment", "--table", "{disc}", "--table2", "{disc}", "--period", "2", "--seeds", "0",
         "--samples", "8"], 8 * 8, "8 x 8 distance matrix exceeds the configured budget"),
    "barcode-compute": (["barcode", "compute", "--table", "{disc}", "--resolution", "16"], 16 * 16,
                        "16^2 grid exceeds the configured budget"),
    "barcode-stability": (["barcode", "stability", "--table", "{disc}", "--table2", "{disc}", "--resolution", "16"],
                          16 * 16, "16^2 grid exceeds the configured budget"),
}


@pytest.mark.parametrize("case", list(_BUDGETS))
def test_count_flags_over_the_cell_budget_are_input_errors(tmp_path, capsys, monkeypatch, case):
    # under a per-process 3 GB address-space limit, --grid-q 2000000000,
    # --steps 1000000000, --samples 2000000000, the hofer length grids,
    # --points and --levels asked numpy for 7.45-298 GiB and ended in an
    # _ArrayMemoryError traceback
    argv, cells, message = _BUDGETS[case]
    out = tmp_path / "out"
    argv = [a.format(**_input_files(tmp_path)) for a in argv] + ["--out", str(out)]
    monkeypatch.setattr(dy, "CELL_BUDGET", cells - 1)
    assert main(argv) == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert message in result["error"] and "kind" not in result
    assert "input error" in captured.err and not out.exists()
    monkeypatch.setattr(dy, "CELL_BUDGET", cells)
    assert main(argv) == 0


class _PastTheBudget(Exception):
    pass


def test_verify_all_paths_over_the_cell_budget_is_an_input_error(tmp_path, capsys, monkeypatch):
    # verify all --paths 100000000 drew paths for minutes.  The drawn paths
    # are held together, while each one's Hamiltonian grids are solved on
    # their own, so the count alone is checked.  The certificates of the
    # run check larger grids, so the boundary is seen at the output folder
    # made right after the check.
    import hoferbilliards.cli as cli

    out = tmp_path / "out"
    argv = ["verify", "all", "--paths", "5", "--out", str(out)]
    monkeypatch.setattr(dy, "CELL_BUDGET", 4)
    assert main(argv) == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert "--paths 5 exceeds the configured budget" in result["error"] and "kind" not in result
    assert "input error" in captured.err and not out.exists()
    monkeypatch.setattr(dy, "CELL_BUDGET", 5)

    def reached(args):
        raise _PastTheBudget

    monkeypatch.setattr(cli, "_outdir", reached)
    with pytest.raises(_PastTheBudget):
        main(argv)


# integer flags that take any value: --seed only seeds the draws, and
# barcode bottleneck --degree reads only the degrees present in the bars
_FREE_INT_FLAGS = {"--seed", "--degree"}
# every other integer flag, found by walking the parser; the placeholders of
# the input files follow _COUNT_FLAGS
_INPUTS = {"t.json": "{disc}", "p.json": "{translation}", "g.json": "{square}", "b.json": "{bars}"}


def _int_flags():
    from hoferbilliards.cli import build_parser

    return sorted(
        (command, a.option_strings[0])
        for command, sp in _leaf_parsers(build_parser()).items()
        for a in sp._actions
        if getattr(a.type, "__name__", None) == "int" and a.option_strings[0] not in _FREE_INT_FLAGS
    )


def _huge_values(flag):
    # --steps iterates the inverse map when negative, and an even --grid-s is
    # a usage error, so the odd count reaches the budget
    return {"--steps": ["2000000000", "-2000000000"], "--grid-s": ["2000000000", "2000000001"]}.get(
        flag, ["2000000000"])


@pytest.mark.parametrize("command, flag, value",
                         [(c, f, v) for c, f in _int_flags() for v in _huge_values(f)],
                         ids=lambda v: v.replace(" ", "-") if isinstance(v, str) else v)
def test_every_count_flag_at_two_billion_is_an_input_error(tmp_path, capsys, command, flag, value):
    # a count flag without a budget hangs or asks numpy for gigabytes: barcode
    # compute and stability at --period 2000000000 computed 64**2000000000,
    # orbits find made 2e9 gcd calls, the grids ended in a traceback
    files = _input_files(tmp_path)
    # the flag comes last, so it overrides a required value (--period 2)
    argv = command.split() + [_INPUTS.get(a, a).format(**files) for a in _COMMANDS[command]]
    if flag == "--threads":
        # the certificate pool is never started at this size
        from hoferbilliards.cli import _parser

        assert _parser().parse_args(argv + [flag, value]).threads == int(value)
        return
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(argv + [f"{flag}={value}", "--out", str(out)]) == 1
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert set(result) == {"error"} and "Traceback" not in captured.err and not out.exists()


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_exit_code_mapping_certificate_failure(tmp_path, capsys, monkeypatch):
    # force a failing certificate through the public path
    import hoferbilliards.cli as cli

    class FailCert:
        ratio = 9.0
        passed = False

        def to_json(self):
            return {"ratio": self.ratio, "pass": False}

    monkeypatch.setattr(cli.ho, "verify_comparison", lambda *a, **k: FailCert())
    path = _write(tmp_path, "p.json",
                  {"type": "translation", "table": {"type": "disc"}, "v": [0.0, 0.0]})
    assert main(["hofer", "compare", "--path", path]) == 2


@pytest.mark.parametrize(
    "error",
    [SolverDidNotConverge("newton_bisect: no convergence"), FloatingPointError("batch left the annulus")],
)
def test_solver_failures_exit_with_typed_json(tmp_path, capsys, monkeypatch, error):
    import hoferbilliards.cli as cli

    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_map_eval", failing)
    table = _write(tmp_path, "disc.json", {"type": "disc"})
    code = main(["map", "eval", "--table", table, "--q", "0", "--p", "0.5"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2
    assert out == {"error": str(error), "kind": type(error).__name__}


def test_newton_bisect_failure_is_typed():
    from hoferbilliards._solve import newton_bisect

    def flat(x, idx):
        return np.ones_like(x), np.ones_like(x)

    with pytest.raises(SolverDidNotConverge) as info:
        newton_bisect(flat, lo=0.0, hi=1.0, seed=np.array([0.5]), increasing=True)
    assert isinstance(info.value, ArithmeticError)


_SQUARE = {"vertices": [[0.125, -0.125], [0.125, 0.125], [-0.125, 0.125], [-0.125, -0.125]], "mark": 0.125}


@pytest.mark.parametrize(
    "extra, polygon, message",
    [
        (["--width", "0"], _SQUARE, "profile width must be positive, got 0.0"),
        (["--width", "0.2"], _SQUARE, "width 0.2 exceeds half the shortest edge"),
        ([], dict(_SQUARE, mark=0.25), "marked point lies inside a corner neighborhood"),
        (["--width", "0.01", "--width2", "0.01"], _SQUARE, "same profile at every corner"),
    ],
)
def test_polygon_input_errors_exit_1(tmp_path, capsys, extra, polygon, message):
    poly = _write(tmp_path, "poly.json", polygon)
    code = main(["polygon", "independence", "--polygon", poly, "--out", str(tmp_path / "out")] + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert message in json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert "input error" in captured.err and "np.float64" not in captured.err


def test_smoothed_polygon_spec_errors_are_spec_errors(tmp_path, capsys):
    spec = dict(_SQUARE, type="smoothed_polygon", profile_width=0.2, scale=0.5)
    with pytest.raises(SpecError, match="profile_width"):
        load_table(spec)
    with pytest.raises(SpecError, match="mark"):
        load_table(dict(spec, profile_width=0.01, mark=0.25))
    assert main(["table", "inspect", "--table", _write(tmp_path, "t.json", spec)]) == 1


def test_independence_certificate_failure_exits_2(tmp_path, capsys, monkeypatch):
    import hoferbilliards.cli as cli

    monkeypatch.setattr(cli.sm, "independence_slope", lambda *a, **k: (0.5, np.ones(6)))
    poly = _write(tmp_path, "poly.json", _SQUARE)
    assert main(["polygon", "independence", "--polygon", poly, "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().out)["pass"] is False


@pytest.mark.parametrize("value", ["0", "-1", "1"])
def test_polygon_cauchy_levels_below_two_is_a_usage_error(tmp_path, capsys, value):
    # below one level the closure check indexed past the tail; at one the
    # increment check compared nothing and passed
    poly = _write(tmp_path, "poly.json", _SQUARE)
    assert main(["polygon", "cauchy", "--polygon", poly, "--levels", value, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert f"argument --levels: must be at least 2, got {value}" in error
    assert "Traceback" not in captured.err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1.5", "0", "-1", "nan"])
def test_polygon_cauchy_scale_outside_the_unit_interval_is_an_input_error(tmp_path, capsys, value):
    poly = _write(tmp_path, "poly.json", _SQUARE)
    assert main(["polygon", "cauchy", "--polygon", poly, "--s0", value, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    # NaN fails at parsing, as every non-finite float flag does; the range is the family's check
    expected = "argument --s0: must be a finite number, got nan" if value == "nan" else "scale must lie in (0, 1]"
    assert expected in json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert "input error" in captured.err and not (tmp_path / "out" / "cauchy.csv").exists()


def test_parser_is_built_once_and_requests_share_no_state(tmp_path, capsys, monkeypatch):
    import hoferbilliards.cli as cli

    seen = []
    with monkeypatch.context() as patch:
        for name in ("cmd_polygon_family", "cmd_map_eval"):
            patch.setattr(cli, name, lambda args: seen.append(vars(args).copy()) or 0)
        # the shared parser is built here, while the commands are patched
        cli._parser.cache_clear()
        patch.setattr(cli, "build_parser", lambda real=cli.build_parser: seen.append("built") or real())
        poly = _write(tmp_path, "poly.json", _SQUARE)
        table = _write(tmp_path, "disc.json", {"type": "disc"})
        out = str(tmp_path / "out")
        assert main(["polygon", "family", "--polygon", poly, "--width", "0.003", "--out", out]) == 0
        assert main(["map", "eval", "--table", table, "--q", "0", "--p", "0.5"]) == 0
        assert main(["polygon", "family", "--polygon", poly]) == 0
    built, first, second, third = seen
    assert built == "built"
    assert (first["width"], first["out"]) == (0.003, out)
    assert second["out"] is None and "width" not in second and "polygon" not in second
    assert (third["width"], third["out"]) == (None, None) and "q" not in third
    # the parser outlives the patch and dispatches to the restored command
    capsys.readouterr()
    assert main(["map", "eval", "--table", table, "--q", "0", "--p", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["Q"] == pytest.approx(1 / 3, abs=1e-9)


_HALF_SQUARE = [[0.25, -0.25], [0.25, 0.25], [-0.25, 0.25], [-0.25, -0.25]]


@pytest.mark.parametrize(
    "command, flag, spec, field, cause",
    [
        (["table", "inspect"], "--table", {"type": "fourier_support", "c0": 1, "cos": [0, 0.5]},
         "table.c0/cos/sin", "CurvatureNotPositive"),
        (["table", "inspect"], "--table", dict(_SQUARE, type="smoothed_polygon", scale=1.5),
         "table.scale", "ValueError"),
        (["table", "inspect"], "--table",
         {"type": "smoothed_polygon", "vertices": _HALF_SQUARE, "scale": 0.5, "mark": 0.125},
         "table.vertices", "ValueError"),
        (["hofer", "compare"], "--path", {"type": "normal_perturbation", "f": {"cos": [0.5]}},
         "path.f", "PerturbationTooLarge"),
    ],
    ids=["curvature", "scale", "perimeter", "perturbation"],
)
def test_inadmissible_specs_are_input_errors(tmp_path, capsys, command, flag, spec, field, cause):
    load = load_path if flag == "--path" else load_table
    with pytest.raises(SpecError, match=field) as info:
        load(spec)
    assert type(info.value.__cause__).__name__ == cause
    code = main(command + [flag, _write(tmp_path, "spec.json", spec), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert field in json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert "input error" in captured.err


@pytest.mark.parametrize("k", [255, 256, 300])
def test_normal_perturbation_harmonics_below_256(tmp_path, capsys, k):
    # f is sampled at 512 points: k = 300 would alias to the sup|f'| of k = 212
    spec = {"type": "normal_perturbation", "f": {"cos": [0.0] * (k - 1) + [1e-6]}}
    if k < 256:
        assert load_path(spec).tag == "normal_perturbation"
        return
    with pytest.raises(SpecError, match="path.f"):
        load_path(spec)
    code = main(["hofer", "compare", "--path", _write(tmp_path, "spec.json", spec), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "path.f" in json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]


# JSON inputs holding NaN, Infinity or a literal that overflows a double;
# Python's json reads all three, and they used to pass every check (NaN
# curvature reported "strictly_convex", NaN deltas, certificates that fail
# with exit 2). Each file is written as raw text: json.dumps would spell
# 1e999 as Infinity
_NAN_SQUARE = '{"vertices": [[0.125, -0.125], [0.125, 0.125], [-0.125, 0.125], [-0.125, NaN]], "mark": 0.125}'
_NON_FINITE_INPUTS = {
    "table-cos-nan": (["table", "inspect", "--table"], '{"type": "fourier_support", "c0": 1.0, "cos": [NaN]}', "NaN"),
    "table-c0-overflow": (["table", "inspect", "--table"], '{"type": "fourier_support", "c0": 1e999}', "1e999"),
    "table-c0-infinity": (["map", "eval", "--q", "0", "--p", "0", "--table"],
                          '{"type": "fourier_support", "c0": -Infinity}', "-Infinity"),
    "table-huge-int": (["table", "inspect", "--table"], '{"type": "fourier_support", "c0": 1' + "0" * 400 + "}",
                       "not a finite number"),
    "support-interp-nan": (["hofer", "compare", "--path"],
                           '{"type": "support_interp", "a": {"c0": 1.0}, "b": {"c0": 1.0, "cos": [0, NaN]}}', "NaN"),
    "translation-nan": (["hofer", "compare", "--path"], '{"type": "translation", "v": [NaN, 0.0]}', "NaN"),
    "polygon-nan": (["polygon", "family", "--polygon"], _NAN_SQUARE, "NaN"),
    "barcode-nan": (["barcode", "bottleneck", "--barcode2", "{good}", "--barcode"],
                    '[{"degree": 0, "birth": NaN, "death": 1.0}]', "NaN"),
    "chords-infinity": (["reconstruct", "--chords"],
                        '{"t": [0.25, 0.75], "from_start": [1.0, Infinity], "from_half": [1.0, 1.0], "anchor": 1.4}',
                        "Infinity"),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_INPUTS))
def test_non_finite_json_numbers_are_input_errors(tmp_path, capsys, case):
    argv, text, named = _NON_FINITE_INPUTS[case]
    good = _write(tmp_path, "good.json", [GOOD_BAR])
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "out"
    assert main([a.format(good=good) for a in argv] + [str(spec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert f"invalid JSON in {spec}" in error and named in error
    assert "input error" in captured.err and "Traceback" not in captured.err and not out.exists()


# fields that are not JSON numbers or flat lists of them; float() and numpy
# used to convert the strings and booleans (an NP spec with a string NaN
# exited 2 with "l_H": NaN, a string-NaN anchor exited 0 with NaN rows), and
# the other cases failed with a message that named no field
_MALFORMED_FIELDS = {
    "np-cos-nan-string": (["hofer", "compare", "--path"],
                          {"type": "normal_perturbation", "f": {"cos": [0, 0, "nan"]}}, "path.f.cos: malformed field"),
    "np-const-nan-string": (["hofer", "compare", "--path"],
                            {"type": "normal_perturbation", "f": {"const": "nan"}}, "path.f.const: malformed field"),
    "translation-string-v": (["hofer", "compare", "--path"], {"type": "translation", "v": ["0.1", 0.0]},
                             "path.v: malformed field"),
    "chords-anchor-nan-string": (["reconstruct", "--chords"], dict(GOOD_CHORDS, anchor="nan"),
                                 "chords.anchor: malformed field"),
    "chords-from-start-nan-string": (["reconstruct", "--chords"], dict(GOOD_CHORDS, from_start=["nan", 1.0]),
                                     "chords.from_start: malformed field"),
    "polygon-mark-string": (["polygon", "family", "--polygon"], dict(_SQUARE, mark="x"),
                            "polygon.mark: malformed field (expected a finite number, got 'x')"),
    "polygon-no-vertices": (["polygon", "family", "--polygon"], {"mark": 0.125}, "polygon.vertices: missing field"),
    "table-nested-cos": (["table", "inspect", "--table"], {"type": "fourier_support", "c0": 1.0, "cos": [[0.1, 0.2]]},
                         "table.cos: malformed field"),
    "table-boolean-c0": (["table", "inspect", "--table"], {"type": "fourier_support", "c0": True},
                         "table.c0: malformed field (expected a finite number, got True)"),
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("case", list(_MALFORMED_FIELDS))
def test_malformed_json_fields_are_input_errors_naming_the_field(tmp_path, capsys, case):
    argv, spec, message = _MALFORMED_FIELDS[case]
    out = tmp_path / "out"
    assert main(argv + [_write(tmp_path, "spec.json", spec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert message in result["error"]
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("v", ["1e308", "1e7"])
def test_translation_offset_above_1e4_is_an_input_error(tmp_path, capsys, v):
    # 1e308 exited 2 and printed "l_H": NaN, which is not JSON; 1e7 exited 2
    # with SolverDidNotConverge
    spec = tmp_path / "path.json"
    spec.write_text(f'{{"type": "translation", "v": [{v}, {v}]}}')
    out = tmp_path / "out"
    assert main(["hofer", "compare", "--path", str(spec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    assert "|v| <= 1e4" in json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("command", [["map", "eval"], ["map", "iterate", "--steps", "3"]], ids=["eval", "iterate"])
def test_non_finite_position_is_an_input_error(tmp_path, capsys, command):
    # map eval used to blame the momentum, map iterate to exit 2 with "grazing";
    # the parser now rejects it, and AnnulusPoint's own check is tested below
    table = _write(tmp_path, "disc.json", {"type": "disc"})
    out = tmp_path / "out"
    assert main(command + ["--table", table, "--q", "nan", "--p", "0.1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "argument --q: must be a finite number, got nan" in json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert "Traceback" not in captured.err and not out.exists()


def test_library_guards_reject_non_finite_inputs():
    from hoferbilliards import AnnulusPoint, FourierSupportSpec, PolygonSpec, build_fourier_table, support_interp_path
    from hoferbilliards.errors import CurvatureNotPositive

    for spec in (FourierSupportSpec(1.0, [np.nan]), FourierSupportSpec(np.inf), FourierSupportSpec(np.nan)):
        with pytest.raises(CurvatureNotPositive):
            build_fourier_table(spec)
    for spec in (FourierSupportSpec(1.0, [np.nan]), FourierSupportSpec(np.nan)):
        with pytest.raises(CurvatureNotPositive):
            support_interp_path(FourierSupportSpec(1.0), spec)
    square = np.array(_SQUARE["vertices"])
    for vertices, mark in ((np.where(square == -0.125, np.nan, square), 0.125), (square, np.nan), (square, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            PolygonSpec(vertices, mark)
    for q in (np.nan, np.inf):
        with pytest.raises(ValueError, match="position must be finite"):
            AnnulusPoint(q, 0.0)


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-0.001"])
@pytest.mark.parametrize("command", [["hofer", "compare", "--path"], ["polygon", "cauchy", "--polygon"]],
                         ids=["hofer-compare", "polygon-cauchy"])
def test_tol_not_a_finite_nonnegative_number_is_a_usage_error(tmp_path, capsys, command, value):
    # a NaN slack computed the whole certificate and then exited 2; -1 set the bound to 0
    spec = _write(tmp_path, "spec.json", {"type": "translation", "v": [0.05, 0.0]} if "--path" in command else _SQUARE)
    out = tmp_path / "out"
    assert main(command + [spec, "--tol", value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert f"argument --tol: must be a finite number >= 0, got {value}" in error
    assert "Traceback" not in captured.err and not out.exists()


def test_tol_zero_is_accepted():
    from hoferbilliards.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["hofer", "compare", "--path", "p.json", "--tol", "0"]).tol == 0.0
    assert parser.parse_args(["polygon", "cauchy", "--polygon", "p.json", "--tol", "0"]).tol == 0.0


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # json's decoder raised RecursionError out of main, a traceback
    spec = tmp_path / "deep.json"
    spec.write_text("[" * 100000 + "]" * 100000)
    out = tmp_path / "out"
    assert main(["table", "inspect", "--table", str(spec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert f"invalid JSON in {spec}: nested too deeply" in error
    assert "Traceback" not in captured.err and not out.exists()


# every float flag, with the required arguments of its command (never read:
# the flag fails at parsing)
_FLOAT_FLAGS = {
    "map-eval-q": (["map", "eval", "--table", "t.json", "--p", "0"], "--q"),
    "map-eval-p": (["map", "eval", "--table", "t.json", "--q", "0"], "--p"),
    "map-iterate-q": (["map", "iterate", "--table", "t.json", "--p", "0"], "--q"),
    "map-iterate-p": (["map", "iterate", "--table", "t.json", "--q", "0"], "--p"),
    "hofer-hjresidual-s": (["hofer", "hjresidual", "--path", "p.json"], "--s"),
    "polygon-family-width": (["polygon", "family", "--polygon", "g.json"], "--width"),
    "polygon-cauchy-width": (["polygon", "cauchy", "--polygon", "g.json"], "--width"),
    "polygon-cauchy-s0": (["polygon", "cauchy", "--polygon", "g.json"], "--s0"),
    "polygon-independence-width": (["polygon", "independence", "--polygon", "g.json"], "--width"),
    "polygon-independence-width2": (["polygon", "independence", "--polygon", "g.json"], "--width2"),
    "orbits-experiment-radius": (
        ["orbits", "experiment", "--table", "t.json", "--table2", "t.json", "--period", "2"], "--radius"),
}


def test_float_flag_table_covers_every_float_flag():
    from hoferbilliards.cli import build_parser

    # argparse names a flag's type by __name__; the finite type keeps "float"
    floats = [(command, a) for command, sp in _leaf_parsers(build_parser()).items() for a in sp._actions
              if getattr(a.type, "__name__", None) == "float"]
    assert all(a.type is not float for _, a in floats)
    # --tol has its own test below; a new float flag needs a row here
    table = sorted((" ".join(argv[:2]), flag) for argv, flag in _FLOAT_FLAGS.values())
    assert table == sorted((c, a.option_strings[0]) for c, a in floats if a.option_strings[0] != "--tol")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(_FLOAT_FLAGS))
def test_non_finite_float_flag_is_a_usage_error(tmp_path, capsys, case, value):
    # polygon family --width nan exited 0 with "sum delta = nan", and
    # orbits experiment --radius nan exited 2 as a grazing certificate failure
    argv, flag = _FLOAT_FLAGS[case]
    out = tmp_path / "out"
    # "--flag=-inf": argparse reads a separate "-inf" as an option
    assert main(argv + [f"{flag}={value}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert f"argument {flag}: must be a finite number" in error and f"got {value}" in error
    assert "Traceback" not in captured.err and not out.exists()


def test_polygon_family_nan_width_is_a_usage_error(tmp_path, capsys):
    polygon = _write(tmp_path, "square.json", _SQUARE)
    out = tmp_path / "out"
    assert main(["polygon", "family", "--polygon", polygon, "--width", "nan", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "argument --width: must be a finite number, got nan" in json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert "sum delta" not in captured.err and not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_orbits_experiment_radius_not_positive_is_a_usage_error(tmp_path, capsys, value):
    # --radius nan exited 2 ("grazing"), --radius -1 exited 0
    disc = _write(tmp_path, "disc.json", {"type": "disc"})
    ellipse = _write(tmp_path, "ellipse.json", {"type": "fourier_support", "c0": 1.0, "cos": [0.0, 0.03]})
    out = tmp_path / "out"
    argv = ["orbits", "experiment", "--table", disc, "--table2", ellipse, "--period", "2",
            "--samples", "4", "--seeds", "0", f"--radius={value}", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert f"argument --radius: must be a finite number > 0, got {value}" in error
    assert "Traceback" not in captured.err and not out.exists()


def test_float_flags_take_finite_values():
    from hoferbilliards.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["orbits", "experiment", "--table", "t.json", "--table2", "t.json", "--period", "2",
                              "--radius", "1e-3"])
    assert args.radius == 1e-3
    assert parser.parse_args(["map", "eval", "--table", "t.json", "--q", "-0.25", "--p", "-0.5"]).p == -0.5
