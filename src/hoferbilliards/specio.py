"""JSON input specs for tables, polygons and table paths.

Table spec (one object):
    {"type": "disc"}
    {"type": "fourier_support", "c0": x, "cos": [...], "sin": [...]}
    {"type": "smoothed_polygon", "vertices": [[x, y], ...],
     "profile_width": w, "scale": s, "mark": t0}

Path spec:
    {"type": "translation", "table": <table spec>, "v": [x, y]}
    {"type": "support_interp", "a": <fourier fields>, "b": <fourier fields>}
    {"type": "normal_perturbation", "table": <table spec>,
     "f": {"const": c, "cos": [...], "sin": [...]}}

f is sampled at 512 points, so its cos and sin lists hold at most 255
harmonics each; a longer list would alias and is rejected.

All numbers are finite IEEE doubles, coordinates in plane units: every
JSON input of ``hb`` is read by ``load_json``, which rejects ``NaN``,
``Infinity`` and literals that overflow a double.  ``load_table``
and ``load_path`` raise only ``SpecError`` (an input error, exit code 1 of
``hb``), naming the offending field: a malformed field, a table outside
the admissible class (a support function whose radius of curvature is not
positive, a polygon that is not convex or whose perimeter is not 1, a
scale outside (0, 1]), and a path that leaves it (a nonconvex
interpolated support, a normal perturbation that is not C^2-small).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .curves import TWO_PI, FourierSupportSpec, PolygonSpec, TableCurve, disc_table, build_fourier_table
from .errors import CurvatureNotPositive, InvalidWidth, MarkInCorner, PerturbationTooLarge
from .homotopy import TablePath, normal_perturbation_path, support_interp_path, translation_path


class SpecError(ValueError):
    """Malformed input spec; reported with the offending field."""


def _finite(text, convert=float):
    """A JSON number or constant as ``convert(text)``; a ValueError unless it is a finite double."""
    if not np.isfinite(float(text)):
        raise ValueError(f"{text[:40]} is not a finite number")
    return convert(text)


def load_json(source):
    """The JSON value in file ``source``, a path; any other object is returned as it is.

    Raises SpecError on a missing file, invalid JSON, non-finite numbers and
    nesting deeper than the parser's recursion limit.
    """
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
            return json.loads(text, parse_float=_finite, parse_int=lambda t: _finite(t, int), parse_constant=_finite)
        except FileNotFoundError as exc:
            raise SpecError(f"spec file not found: {source}") from exc
        except ValueError as exc:  # a JSONDecodeError, or a number that is not a finite double
            raise SpecError(f"invalid JSON in {source}: {exc}") from exc
        except RecursionError as exc:
            raise SpecError(f"invalid JSON in {source}: nested too deeply") from exc
    return source


def _fourier_spec(obj, where):
    try:
        return FourierSupportSpec(
            float(obj["c0"]),
            np.asarray(obj.get("cos", []), dtype=float),
            np.asarray(obj.get("sin", []), dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{where}: bad fourier support fields ({exc})") from exc


def load_table(source) -> TableCurve:
    obj = load_json(source)
    if not isinstance(obj, dict) or "type" not in obj:
        raise SpecError("table: expected an object with a 'type' field")
    kind = obj["type"]
    if kind == "disc":
        return disc_table()
    if kind == "fourier_support":
        spec = _fourier_spec(obj, "table")
        try:
            return build_fourier_table(spec)
        except CurvatureNotPositive as exc:
            raise SpecError(f"table.c0/cos/sin: inadmissible support function, {exc}") from exc
    if kind == "smoothed_polygon":
        from .smoothing import family_from_polygon

        try:
            vertices = obj["vertices"]
            mark = float(obj.get("mark", 0.0))
            scale = float(obj["scale"])
        except KeyError as exc:
            raise SpecError(f"table.{exc.args[0]}: missing field") from exc
        except (TypeError, ValueError) as exc:
            raise SpecError(f"table.mark/scale: expected numbers ({exc})") from exc
        try:
            poly = PolygonSpec(np.asarray(vertices, dtype=float), mark)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"table.vertices: {exc}") from exc
        try:
            fam = family_from_polygon(poly, width=obj.get("profile_width"))
        except InvalidWidth as exc:
            raise SpecError(f"table.profile_width: {exc}") from exc
        except MarkInCorner as exc:
            raise SpecError(f"table.mark: {exc}") from exc
        except TypeError as exc:
            raise SpecError(f"table.profile_width: malformed field ({exc})") from exc
        try:
            return fam.curve(scale)
        except ValueError as exc:
            raise SpecError(f"table.scale: {exc}, got {scale!r}") from exc
    raise SpecError(f"table.type: unknown kind {kind!r}")


def load_polygon(source) -> PolygonSpec:
    obj = load_json(source)
    try:
        return PolygonSpec(np.asarray(obj["vertices"], dtype=float), float(obj.get("mark", 0.0)))
    except (KeyError, TypeError) as exc:
        raise SpecError(f"polygon.{exc}: missing or malformed field") from exc


def _periodic_samples(obj, where):
    """f at 512 uniform points; a harmonic k >= 256 would alias, so it is rejected."""
    samples = 512
    try:
        const = float(obj.get("const", 0.0))
        cos, sin = ([float(c) for c in obj.get(name, [])] for name in ("cos", "sin"))
    except (AttributeError, TypeError, ValueError) as exc:
        raise SpecError(f"{where}: bad harmonic coefficients ({exc})") from exc
    top = max(len(cos), len(sin))
    if top >= samples // 2:
        raise SpecError(
            f"{where}: harmonic k = {top} aliases on the {samples} samples of f; k must be below {samples // 2}"
        )
    # f has the form of a support function, so the one trigonometric kernel sums it
    return FourierSupportSpec(const, cos, sin).h(TWO_PI * np.arange(samples) / samples)


def load_path(source) -> TablePath:
    obj = load_json(source)
    if not isinstance(obj, dict) or "type" not in obj:
        raise SpecError("path: expected an object with a 'type' field")
    kind = obj["type"]
    if kind == "translation":
        try:
            v = np.asarray(obj["v"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError("path.v: expected a plane vector") from exc
        return translation_path(load_table(obj.get("table", {"type": "disc"})), v)
    if kind == "support_interp":
        if "a" not in obj or "b" not in obj:
            raise SpecError("path: support_interp needs 'a' and 'b' fourier specs")
        a, b = _fourier_spec(obj["a"], "path.a"), _fourier_spec(obj["b"], "path.b")
        try:
            return support_interp_path(a, b)
        except CurvatureNotPositive as exc:
            raise SpecError(f"path.a/b: {exc}") from exc
    if kind == "normal_perturbation":
        table = load_table(obj.get("table", {"type": "disc"}))
        f = _periodic_samples(obj.get("f", {}), "path.f")
        try:
            return normal_perturbation_path(table, f).path
        except (PerturbationTooLarge, CurvatureNotPositive) as exc:
            raise SpecError(f"path.f: {exc}") from exc
    raise SpecError(f"path.type: unknown kind {kind!r}")
