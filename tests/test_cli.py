import argparse
import json

import numpy as np
import pytest

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
    ],
    ids=["no-degree", "no-birth", "no-death", "null-birth", "bar-not-object", "not-a-list"],
)
def test_bottleneck_malformed_barcode_is_input_error(tmp_path, capsys, bars, message):
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
        ({"t": [[0.25, 0.75]]}, "chords.t: malformed field (expected a non-empty list"),
    ],
    ids=["short-from-start", "long-from-half", "long-t", "all-empty", "empty-from-half", "nested-t"],
)
def test_reconstruct_chords_of_unequal_or_empty_lengths_are_input_errors(tmp_path, capsys, patch, message):
    # numpy would otherwise fail on the broadcast or on a zero-size maximum
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
        newton_bisect(flat, lo=0.0, hi=1.0, seed=np.array([0.5]), increasing=True, maxiter=5)
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
