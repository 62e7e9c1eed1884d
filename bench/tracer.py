"""Outside-in tracer: spans and counters recorded around calls into the package.

Wrappers are installed on the names the package modules bind, so a call is
seen whichever module makes it (``newton_bisect`` is bound in both
``billiard`` and ``curves``; ``forward_chord`` in ``billiard`` and
``homotopy``).  The package itself carries no tracing code, and
``uninstall`` puts every original object back.

A span is ``[name, parent, op, start, end]`` with ``parent`` the index of the
enclosing span (-1 for none) and ``op`` the id of the benchmark operation it
belongs to.  Spans stay in memory until ``write`` is called.  A span's self
time is its duration minus the durations of its direct children; calls are
strictly nested on the single client thread, so children never overlap.

The residual callback handed to ``newton_bisect`` runs as a span named
``<caller>.residual`` under the solver span.  Its self time is the caller's
own work, so ``<caller>.self_s`` includes it, and ``solve.newton_bisect``
self time covers only the solver's bracket and update steps.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

MARK = "__bench_traced__"

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = [
    ("solve.newton_bisect.calls", "count", "lower"),
    ("solve.newton_bisect.iters", "count", "lower"),
    ("solve.newton_bisect.evals", "count", "lower"),
    ("solve.newton_bisect.evals_per_point", "evals/point", "lower"),
    ("solve.newton_bisect.self_s", "s", "lower"),
    ("solve.newton_bisect.failures", "count", "lower"),
    ("curves.FourierTable.theta_of_q.points", "count", "lower"),
    ("curves.FourierTable.theta_of_q.self_s", "s", "lower"),
    ("curves.inversions_per_bounce", "inv/bounce", "lower"),
    ("curves.SampledCurve.u_of_q.points", "count", "lower"),
    ("curves.SampledCurve.u_of_q.self_s", "s", "lower"),
    ("curves.frame.calls", "count", "lower"),
    ("curves.frame.points", "count", "lower"),
    ("curves.frame.self_s", "s", "lower"),
    ("curves.position.points", "count", "lower"),
    ("curves.position.self_s", "s", "lower"),
    ("curves.build_fourier_table.calls", "count", "lower"),
    ("curves.build_fourier_table.self_s", "s", "lower"),
    ("billiard.forward_chord.calls", "count", "lower"),
    ("billiard.forward_chord.points", "count", "lower"),
    ("billiard.forward_chord.points_per_call", "points/call", "higher"),
    ("billiard.forward_chord.self_s", "s", "lower"),
    ("billiard.forward_chord.residual_s", "s", "lower"),
    ("billiard.iterate.calls", "count", "lower"),
    ("billiard.iterate.self_s", "s", "lower"),
    ("homotopy.TablePath.table.calls", "count", "lower"),
    ("homotopy.TablePath.table.self_s", "s", "lower"),
    ("homotopy.TablePath.velocity.points", "count", "lower"),
    ("homotopy.TablePath.velocity.self_s", "s", "lower"),
    ("homotopy.HamiltonianField.value_arrays.points", "count", "lower"),
    ("homotopy.HamiltonianField.value_arrays.self_s", "s", "lower"),
    ("homotopy.verify_comparison.self_s", "s", "lower"),
    ("homotopy.hofer_oscillation.self_s", "s", "lower"),
    ("homotopy.path_geometric_length.self_s", "s", "lower"),
    ("dynamics.find_periodic_orbits.calls", "count", "lower"),
    ("dynamics.find_periodic_orbits.self_s", "s", "lower"),
    ("dynamics.find_periodic_orbits.yield", "classes/seed", "higher"),
    ("dynamics.functional_gap.self_s", "s", "lower"),
    ("dynamics.reconstruct_table.self_s", "s", "lower"),
    ("smoothing.family_from_polygon.self_s", "s", "lower"),
    ("smoothing.cauchy_tail.self_s", "s", "lower"),
    ("smoothing.independence_slope.self_s", "s", "lower"),
    ("smoothing.positive_curvature_lift.self_s", "s", "lower"),
    ("smoothing.family_speed.calls", "count", "lower"),
    ("smoothing.family_speed.self_s", "s", "lower"),
    ("persistence.sample_orbit_functional.self_s", "s", "lower"),
    ("persistence.stability_check.self_s", "s", "lower"),
    ("persistence.sublevel_barcode.calls", "count", "lower"),
    ("persistence.sublevel_barcode.cells", "count", "lower"),
    ("persistence.sublevel_barcode.self_s", "s", "lower"),
    ("persistence.bottleneck_distance.calls", "count", "lower"),
    ("persistence.bottleneck_distance.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("specio.load_table.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _points(index, key):
    return lambda args, kwargs: int(np.size(_arg(args, kwargs, index, key)))


def _bounce_points(args, kwargs):
    q = _arg(args, kwargs, 1, "q")
    p = _arg(args, kwargs, 2, "p")
    return int(np.broadcast(np.asarray(q), np.asarray(p)).size)


def _cells(args, kwargs):
    g = _arg(args, kwargs, 0, "g")
    return int((2 * g.resolution) ** g.dim)


class _Target:
    """One traced function: its span name, binding sites and counters."""

    def __init__(self, name, sites, points=None, cells=None, nested=False, result=None):
        self.name = name
        self.sites = sites  # (owner, attribute) pairs binding the same function
        self.points = points
        self.cells = cells
        self.nested = nested  # count only calls not made from a span of the same name
        self.result = result  # counter fed by the return value


def _curve_classes(*modules):
    base = modules[0].TableCurve
    return [
        v
        for m in modules
        for v in vars(m).values()
        if isinstance(v, type) and issubclass(v, base) and v.__module__ == m.__name__
    ]


def targets(pkg):
    """Traced functions of the package; ``pkg`` maps module name to module."""
    cu, bi, ho, dy = pkg["curves"], pkg["billiard"], pkg["homotopy"], pkg["dynamics"]
    pe, sm, cl, sp = pkg["persistence"], pkg["smoothing"], pkg["cli"], pkg["specio"]
    curve_classes = _curve_classes(cu, sm)

    def own(attr):
        return [(c, attr) for c in curve_classes if attr in vars(c)]

    def single(module, attr):
        return [(module, attr)]

    return [
        _Target("billiard.forward_chord", [(bi, "forward_chord"), (ho, "forward_chord")],
                points=_bounce_points),
        _Target("billiard.iterate", [(bi, "iterate"), (cl, "iterate")]),
        _Target("curves.FourierTable.theta_of_q", [(cu.FourierTable, "theta_of_q")],
                points=_points(1, "q")),
        _Target("curves.SampledCurve.u_of_q", [(cu.SampledCurve, "u_of_q")],
                points=_points(1, "q")),
        _Target("curves.frame", own("frame"), points=_points(1, "q"), nested=True),
        _Target("curves.position", own("position"), points=_points(1, "q"), nested=True),
        _Target("curves.build_fourier_table",
                [(cu, "build_fourier_table"), (sp, "build_fourier_table"),
                 (sm, "build_fourier_table"), (cl, "build_fourier_table")]),
        _Target("homotopy.TablePath.table", [(ho.TablePath, "table")]),
        _Target("homotopy.TablePath.velocity", [(ho.TablePath, "velocity")],
                points=_points(2, "q")),
        _Target("homotopy.HamiltonianField.value_arrays",
                [(ho.HamiltonianField, "value_arrays")], points=_points(2, "Q")),
        _Target("homotopy.verify_comparison", single(ho, "verify_comparison")),
        _Target("homotopy.hofer_oscillation", single(ho, "hofer_oscillation")),
        _Target("homotopy.path_geometric_length", single(ho, "path_geometric_length")),
        _Target("dynamics.find_periodic_orbits", single(dy, "find_periodic_orbits"),
                result=("classes", len)),
        # one call per seed tried by find_periodic_orbits
        _Target("dynamics._newton_orbit", single(dy, "_newton_orbit")),
        _Target("dynamics.functional_gap", [(dy, "functional_gap"), (pe, "functional_gap")]),
        _Target("dynamics.reconstruct_table", single(dy, "reconstruct_table")),
        _Target("smoothing.family_from_polygon", single(sm, "family_from_polygon")),
        _Target("smoothing.cauchy_tail", single(sm, "cauchy_tail")),
        _Target("smoothing.family_speed", single(sm, "family_speed")),
        _Target("smoothing.independence_slope", single(sm, "independence_slope")),
        _Target("smoothing.positive_curvature_lift", single(sm, "positive_curvature_lift")),
        _Target("persistence.sample_orbit_functional", single(pe, "sample_orbit_functional")),
        _Target("persistence.sublevel_barcode", single(pe, "sublevel_barcode"), cells=_cells),
        _Target("persistence.bottleneck_distance", single(pe, "bottleneck_distance")),
        _Target("persistence.stability_check", single(pe, "stability_check")),
        _Target("cli.main", single(cl, "main")),
        _Target("specio.load_table", [(sp, "load_table"), (cl, "load_table")]),
    ]


def solver_sites(pkg):
    """Binding sites of the bracketed Newton solver."""
    return [(pkg["billiard"], "newton_bisect"), (pkg["curves"], "newton_bisect")]


def traced_objects(pkg):
    """Every wrapper-carrying object reachable from the package modules."""
    for module in pkg.values():
        for value in vars(module).values():
            if getattr(value, MARK, False):
                yield f"{module.__name__}.{getattr(value, '__name__', '?')}"
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        yield f"{module.__name__}.{value.__name__}.{attr}"


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_kinds: dict[int, str] = {}
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, self.op, self.clock(), 0.0])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][4] = self.clock()
        self.stack.pop()

    def _current(self):
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def run_op(self, op_id, kind, fn):
        """Run ``fn`` as the root span of operation ``op_id``.

        Outside ``run_op`` the wrappers call straight through, so an oracle
        that runs while they are installed is neither traced nor counted.
        """
        self.op = op_id
        self.op_kinds[op_id] = kind
        idx = self._enter("op")
        try:
            return fn()
        finally:
            self._exit(idx)
            self.op = -1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, target: _Target, fn):
        tracer = self
        name = target.name
        counts = self.counts[name]

        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            if not (target.nested and tracer._current() == name):
                counts["calls"] += 1
                if target.points is not None:
                    counts["points"] += target.points(args, kwargs)
                if target.cells is not None:
                    counts["cells"] += target.cells(args, kwargs)
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if target.result is not None:
                key, measure = target.result
                counts[key] += measure(out)
            return out

        setattr(traced, MARK, True)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _wrap_solver(self, fn):
        tracer = self
        counts = self.counts["solve.newton_bisect"]

        def traced(fun, *args, **kwargs):
            if tracer.op < 0:
                return fn(fun, *args, **kwargs)
            residual_name = tracer._current() + ".residual"

            def residual(x, idx):
                counts["iters"] += 1
                counts["evals"] += int(np.size(x))
                i = tracer._enter(residual_name)
                try:
                    return fun(x, idx)
                finally:
                    tracer._exit(i)

            counts["calls"] += 1
            counts["points"] += int(np.size(_arg(args, kwargs, 2, "seed")))
            idx = tracer._enter("solve.newton_bisect")
            try:
                return fn(residual, *args, **kwargs)
            except ArithmeticError:
                counts["failures"] += 1
                raise
            finally:
                tracer._exit(idx)

        setattr(traced, MARK, True)
        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def install(self, pkg):
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = [(t, owner, attr) for t in targets(pkg) for owner, attr in t.sites]
        for target, owner, attr in plan:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(target, original))
        for owner, attr in solver_sites(pkg):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_solver(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        dur = np.array([s[4] - s[3] for s in self.spans])
        child = np.zeros(len(self.spans))
        parents = np.array([s[1] for s in self.spans], dtype=np.int64)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child

    def self_by_name(self):
        out: dict[str, float] = defaultdict(float)
        for span, st in zip(self.spans, self.self_times()):
            out[span[0]] += float(st)
        return out

    def self_by_op(self):
        out: dict[int, float] = defaultdict(float)
        for span, st in zip(self.spans, self.self_times()):
            out[span[2]] += float(st)
        return out

    def per_layer(self, overhead_ratio: float) -> dict:
        """Every metric of PER_LAYER, by name, from the recorded spans and counts."""
        st = self.self_by_name()
        c = self.counts

        def own(name):
            # a caller's own work includes the residual callbacks it hands the solver
            return st.get(name, 0.0) + st.get(name + ".residual", 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        fc = c["billiard.forward_chord"]
        nb = c["solve.newton_bisect"]
        inversions = c["curves.FourierTable.theta_of_q"]["points"] + c["curves.SampledCurve.u_of_q"]["points"]
        values = {
            "solve.newton_bisect.evals_per_point": ratio(nb["evals"], nb["points"]),
            "solve.newton_bisect.self_s": st.get("solve.newton_bisect", 0.0),
            "curves.inversions_per_bounce": ratio(inversions, fc["points"]),
            "billiard.forward_chord.points_per_call": ratio(fc["points"], fc["calls"]),
            "billiard.forward_chord.residual_s": st.get("billiard.forward_chord.residual", 0.0),
            "dynamics.find_periodic_orbits.yield": ratio(
                c["dynamics.find_periodic_orbits"]["classes"], c["dynamics._newton_orbit"]["calls"]
            ),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in values:
                value = values[name]
            else:
                base, _, quantity = name.rpartition(".")
                value = own(base) if quantity == "self_s" else c[base][quantity]
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Write the spans as JSON lines: a header, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "op", "start", "end"],
                                 "ops": {str(k): v for k, v in self.op_kinds.items()}}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
