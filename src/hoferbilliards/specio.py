"""JSON input specs for tables, polygons and table paths, and their field reader.

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
``Infinity`` and literals that overflow a double, and each of its fields
by ``json_field``, which rejects strings and booleans for numbers.  ``load_table``
and ``load_path`` raise only ``SpecError`` (an input error, exit code 1 of
``hb``), naming the offending field: a malformed field, a table outside
the admissible class (a support function whose radius of curvature is not
positive, a polygon that is not convex or whose perimeter is not 1, a
scale outside (0, 1]), and a path that leaves it (a nonconvex
interpolated support, a normal perturbation that is not C^2-small).
"""

from __future__ import annotations

import json
import math
import numbers
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


_REQUIRED = object()


def number(value) -> float:
    """A finite JSON number as a float; a string, a boolean or anything else is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r:.40}")
    return float(value)


def number_list(value) -> np.ndarray:
    """A flat JSON list of finite numbers as a float array."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of numbers, got {value!r:.40}")
    return np.array([number(v) for v in value], dtype=float)


def json_field(obj, key, where, read=number, default=_REQUIRED):
    """``read(obj[key])``, or ``default`` when one is given and ``key`` is absent;
    a missing or rejected field is a SpecError named ``where.key``."""
    if not isinstance(obj, dict) or (key not in obj and default is _REQUIRED):
        raise SpecError(f"{where}.{key}: missing field")
    if key not in obj:
        return default
    try:
        return read(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{where}.{key}: malformed field ({exc})") from exc


def _vertices(value) -> np.ndarray:
    """A JSON list of [x, y] pairs as a float array; PolygonSpec checks its shape."""
    if not isinstance(value, list) or not all(isinstance(v, list) and len(v) == 2 for v in value):
        raise ValueError(f"expected a list of [x, y] pairs, got {value!r:.40}")
    return np.array([number_list(v) for v in value])


def _fourier_spec(obj, where, c0="c0", default=_REQUIRED):
    mean = json_field(obj, c0, where, default=default)
    cos, sin = (json_field(obj, name, where, number_list, default=()) for name in ("cos", "sin"))
    return FourierSupportSpec(mean, cos, sin)


def _polygon(obj, where) -> PolygonSpec:
    vertices = json_field(obj, "vertices", where, _vertices)
    mark = json_field(obj, "mark", where, default=0.0)
    try:
        return PolygonSpec(vertices, mark)
    except ValueError as exc:
        raise SpecError(f"{where}.vertices: {exc}") from exc


def load_table(source) -> TableCurve:
    obj = load_json(source)
    kind = json_field(obj, "type", "table", str)
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

        poly = _polygon(obj, "table")
        scale = json_field(obj, "scale", "table")
        try:
            fam = family_from_polygon(poly, width=json_field(obj, "profile_width", "table", default=None))
        except InvalidWidth as exc:
            raise SpecError(f"table.profile_width: {exc}") from exc
        except MarkInCorner as exc:
            raise SpecError(f"table.mark: {exc}") from exc
        try:
            return fam.curve(scale)
        except ValueError as exc:
            raise SpecError(f"table.scale: {exc}, got {scale!r}") from exc
    raise SpecError(f"table.type: unknown kind {kind!r}")


def load_polygon(source) -> PolygonSpec:
    return _polygon(load_json(source), "polygon")


def _periodic_samples(obj, where):
    """f at 512 uniform points; a harmonic k >= 256 would alias, so it is rejected."""
    samples = 512
    # f has the form of a support function, so the one trigonometric kernel sums it
    f = _fourier_spec(obj, where, "const", 0.0)
    if f.cos.size >= samples // 2:
        raise SpecError(
            f"{where}: harmonic k = {f.cos.size} aliases on the {samples} samples of f; k must be below {samples // 2}"
        )
    return f.h(TWO_PI * np.arange(samples) / samples)


def load_path(source) -> TablePath:
    obj = load_json(source)
    kind = json_field(obj, "type", "path", str)
    if kind == "translation":
        v = json_field(obj, "v", "path", number_list)
        table = load_table(obj.get("table", {"type": "disc"}))
        try:
            return translation_path(table, v)
        except ValueError as exc:
            raise SpecError(f"path.v: {exc}") from exc
    if kind == "support_interp":
        a, b = _fourier_spec(obj.get("a"), "path.a"), _fourier_spec(obj.get("b"), "path.b")
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
