"""Sublevel-set persistence of grid functions on the torus, and bottleneck
distances between the resulting barcodes.

The complex is cubical: a periodic n-grid of resolution m has (2m)^n cells,
a cell being a product of vertices (even coordinates) and edges (odd
coordinates).  The lower-star filtration assigns every cell the maximum of
its vertex values; ties are broken by dimension and then lexicographic cell
index, which fixes a total order of the cells.  The persistence pairing of a
total order is unique, so the barcode does not depend on how it is found.
Degrees 0 and n-1 are paired by union-find, over vertices and over top cells
(Kaji, Sudo, Ahara, arXiv:2005.12692); the middle degrees 1..n-2 use a GF(2)
boundary reduction with columns stored as Python integers (bitmasks over the
rows), with clearing and compression (Bauer, Kerber, Reininghaus, 2014).
The bottleneck distance searches the candidate radii; a radius is feasible
when augmenting paths cover the long bars of each side (see
``_matching_feasible``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
from itertools import permutations
from math import comb, inf
from numbers import Integral

import numpy as np

from .curves import TableCurve
# functional_gap is not called here, but stays bound: bench/tracer.py counts
# the calls made through this module's name
from .dynamics import FunctionalGap, _gap_of_samples, functional_gap, sample_functional_values  # noqa: F401
from .specio import SpecError, json_field, load_json, number


@dataclass
class GridFunction:
    """Values of a function on the uniform m^n grid of the n-torus."""

    dim: int
    resolution: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.resolution,) * self.dim:
            raise ValueError("value array must be an m^n cube")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    def shifted(self, c: float) -> "GridFunction":
        return GridFunction(self.dim, self.resolution, self.values + c)


def sample_orbit_functional(table: TableCurve, n: int, m: int) -> GridFunction:
    """Chord-length functional on the m^n torus grid.

    Chord terms of coinciding parameters evaluate to 0 (the continuous
    extension of the norm); ``sample_functional_values`` checks n and the
    cell budget.
    """
    return GridFunction(n, m, sample_functional_values(table, n, m))


@dataclass
class Barcode:
    """Per-degree multisets of (birth, death] intervals, death possibly inf."""

    dim: int
    bars: dict = field(default_factory=dict)

    def degree(self, d: int):
        return self.bars.get(d, [])

    def finite(self, d: int):
        return [(b, e) for (b, e) in self.degree(d) if e != inf]

    def infinite_births(self, d: int):
        return [b for (b, e) in self.degree(d) if e == inf]

    def shifted(self, c: float) -> "Barcode":
        out = {
            d: [(b + c, e + c if e != inf else inf) for (b, e) in bars]
            for d, bars in self.bars.items()
        }
        return Barcode(self.dim, out)

    def to_json(self):
        return [
            {"degree": d, "birth": b, "death": ("inf" if e == inf else e)}
            for d in sorted(self.bars)
            for (b, e) in self.bars[d]
        ]

    @classmethod
    def from_json(cls, source, where: str = "barcode") -> "Barcode":
        """The bars ``to_json`` writes, or a JSON file of them: an integer degree
        >= 0, a finite birth and a death above it or "inf", else a SpecError."""
        items = load_json(source)
        if not isinstance(items, list):
            raise SpecError(f"{where}: expected a list of bars")
        bars = {}
        for i, item in enumerate(items):
            at = f"{where}[{i}]"
            degree = json_field(item, "degree", at, _degree)
            birth = json_field(item, "birth", at)
            death = json_field(item, "death", at, lambda e: inf if e == "inf" else number(e))
            if not death > birth:
                raise SpecError(f"{at}.death: {death!r} is not above the birth {birth!r}")
            bars.setdefault(degree, []).append((birth, death))
        return cls(max(bars, default=0), bars)


def _degree(value) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ValueError(f"expected an integer >= 0, got {value!r:.40}")
    return int(value)


def _cell_values(values: np.ndarray):
    """Lower-star values on the doubled grid: max over each cell's vertices."""
    out = values
    for axis in range(values.ndim):
        nxt = np.roll(out, -1, axis=axis)
        out = np.stack([out, np.maximum(out, nxt)], axis=axis + 1)
        shape = list(out.shape)
        shape[axis : axis + 2] = [shape[axis] * shape[axis + 1]]
        out = out.reshape(shape)
    return out


def _adjacent(flat: np.ndarray, side: int, strides, parity: int, k: int) -> np.ndarray:
    """Neighbours of cells along their axes of one coordinate parity.

    Parity 1 gives the 2k facets of cells with k odd coordinates, parity 0
    the 2k cofacets of cells with k even ones; one numpy pass per axis, with
    steps wrapping round the torus.
    """
    out = np.empty((flat.size, 2 * k), dtype=np.int64)
    slot = np.zeros(flat.size, dtype=np.int64)
    for stride in strides:
        coord = (flat // stride) % side
        sel = np.flatnonzero(coord % 2 == parity)
        at, c = flat[sel], coord[sel]
        out[sel, slot[sel]] = np.where(c > 0, at - stride, at + (side - 1) * stride)
        out[sel, slot[sel] + 1] = np.where(c < side - 1, at + stride, at - (side - 1) * stride)
        slot[sel] += 2
    return out


def _elder_merges(cells, a, b, size):
    """Union-find by the elder rule over nodes 0..size-1.

    Each cell in turn joins nodes a and b; when their components differ,
    the one whose root (its smallest node) is larger dies, paired with the
    cell.  Returns the dead roots and their cells, as integer arrays.
    """
    parent = list(range(size))
    dead, killers = [], []
    for c, u, v in zip(cells.tolist(), a.tolist(), b.tolist()):
        while parent[u] != u:  # path halving
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u < v:
                u, v = v, u
            parent[u] = v
            dead.append(u)
            killers.append(c)
    return np.array(dead, dtype=np.int64), np.array(killers, dtype=np.int64)


def sublevel_barcode(g: GridFunction) -> Barcode:
    """Persistence barcode of the sublevel filtration of a torus grid function.

    Zero-length pairs are dropped; every essential class appears as an
    infinite bar, so degree-d infinite bars always number binomial(n, d).

    Degree 0 is paired by union-find over vertices, edges taken in rank
    order (elder rule: the root of higher rank dies with the edge that
    merges it).  Degree n-1 is paired by the same union-find over top cells,
    (n-1)-cells taken in decreasing rank: a component's root is its top cell
    of highest rank, and the component with the lower root dies with the
    (n-1)-cell that joins it.  Degrees 1..n-2 reduce GF(2) columns stored as
    Python integers, skipping the columns of cells already paired one degree
    up (clearing) and dropping the rows of edges that died in degree 0
    (compression).  The persistence pairing of a fixed total order is
    unique, so the bars do not depend on which of these computes them.
    """
    n, m = g.dim, g.resolution
    side = 2 * m
    values = _cell_values(g.values).ravel()
    total = side**n
    coords = np.unravel_index(np.arange(total), (side,) * n)
    dims = np.zeros(total, dtype=np.int8)
    for axis in range(n):
        dims += (coords[axis] % 2).astype(np.int8)
    order = np.lexsort((np.arange(total), dims, values))
    rank = np.empty(total, dtype=np.int64)
    rank[order] = np.arange(total)
    dim_by_rank = dims[order]
    strides = [side ** (n - 1 - a) for a in range(n)]

    def ranked(d):
        """Ranks of the d-cells in increasing order, and their flat indices."""
        r = np.flatnonzero(dim_by_rank == d)
        return r, order[r]

    pairs: dict[int, tuple] = {}  # degree -> (birth ranks, death ranks)

    # degree 0: edges in rank order merge vertex components
    edges, flat = ranked(1)
    ends = rank[_adjacent(flat, side, strides, 1, 1)]
    pairs[0] = _elder_merges(edges, ends[:, 0], ends[:, 1], total)

    # degree n-1: (n-1)-cells in decreasing rank merge top-cell components,
    # the same merges on reversed ranks; for n = 1 this is the pass above
    if n > 1:
        walls, flat = ranked(n - 1)
        sides = total - 1 - rank[_adjacent(flat, side, strides, 0, 1)]
        dead, cells = _elder_merges(walls[::-1], sides[::-1, 0], sides[::-1, 1], total)
        pairs[n - 1] = cells, total - 1 - dead
    paired = np.zeros(total, dtype=bool)
    for born, died in pairs.values():
        paired[born] = True
        paired[died] = True

    # middle degrees: reduce the (d+1)-cells that are not births one degree
    # up (clearing), over the d-cells not yet paired, which for d = 1 drops
    # the edges that died in degree 0 (compression)
    for d in range(n - 2, 0, -1):
        rows = np.flatnonzero((dim_by_rank == d) & ~paired)
        row_of = np.full(total, -1, dtype=np.int64)
        row_of[rows] = np.arange(rows.size)
        cols, flat = ranked(d + 1)
        keep = ~paired[cols]
        cols, flat = cols[keep], flat[keep]
        facets = row_of[rank[_adjacent(flat, side, strides, 1, d + 1)]]
        lows, deaths = [], []
        pivots: dict[int, int] = {}
        for c, faces in zip(cols.tolist(), facets.tolist()):
            col = 0
            for f in faces:
                if f >= 0:
                    col ^= 1 << f
            while col:
                low = col.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    lows.append(low)
                    deaths.append(c)
                    break
                col ^= other
        born, died = rows[np.array(lows, dtype=np.int64)], np.array(deaths, dtype=np.int64)
        pairs[d] = born, died
        paired[born] = True
        paired[died] = True

    value_by_rank = values[order]
    bars: dict[int, list] = {d: [] for d in range(n + 1)}
    for degree, (born, died) in pairs.items():
        b, e = value_by_rank[born], value_by_rank[died]
        live = e > b
        bars[degree] = list(zip(b[live].tolist(), e[live].tolist()))
    for r in np.flatnonzero(~paired).tolist():
        bars[int(dim_by_rank[r])].append((float(value_by_rank[r]), inf))
    for d in bars:
        bars[d].sort(key=lambda be: (be[0], be[1]))
    return Barcode(n, bars)


# ---------------------------------------------------------------------------
# bottleneck distance
# ---------------------------------------------------------------------------


def _covers(adj, rows):
    """True iff the bipartite graph ``adj`` (left vertex -> right neighbours)
    has a matching that covers every left vertex in ``rows``.

    Kuhn's augmenting paths, each searched depth first with an explicit
    stack, so no recursion limit applies.  A vertex first looks for a free
    neighbour, which ends the path at once.
    """
    owner = {}  # right vertex -> the left vertex matched to it
    for root in rows:
        seen = set()
        stack, edges, via = [], [], []  # via[k] leads from stack[k] to stack[k + 1]
        u = root
        while True:
            free = next((j for j in adj[u] if j not in owner), None)
            stack.append(u)
            if free is not None:
                via.append(free)
                for i, j in zip(stack, via):
                    owner[j] = i
                break
            # every neighbour is matched: follow an unseen one, backtracking
            edges.append(iter(adj[u]))
            while stack:
                j = next((j for j in edges[-1] if j not in seen), None)
                if j is not None:
                    break
                stack.pop()
                edges.pop()
                if via:
                    via.pop()
            else:
                return False
            seen.add(j)
            via.append(j)
            u = owner[j]
    return True


def _matching_feasible(cost, halfA, halfB, r):
    """True iff some matching of the bars, each bar also free to take the
    diagonal at its half-length, has every cost <= r.

    Let G_r pair A and B bars of cost <= r.  A bar of half-length > r must
    be matched in G_r; every other bar can take the diagonal, and diagonal
    slots pair freely with each other.  So r is feasible iff G_r has a
    matching covering the long A bars and one covering the long B bars:
    the Mendelsohn-Dulmage theorem merges the two into one matching that
    covers both sets.
    """
    close = cost <= r
    longA = np.flatnonzero(halfA > r).tolist()
    longB = np.flatnonzero(halfB > r).tolist()
    return (_covers([np.flatnonzero(row).tolist() for row in close], longA)
            and _covers([np.flatnonzero(col).tolist() for col in close.T], longB))


def bottleneck_distance(a: Barcode, b: Barcode, degree: int) -> float:
    """Optimal-matching bottleneck distance in one homological degree.

    Finite bars may match the diagonal at half their length; infinite bars
    must match infinite bars (sorted by birth), else the distance is +inf.
    The optimum is found by binary search over the exact candidate radii.
    """
    infA = sorted(a.infinite_births(degree))
    infB = sorted(b.infinite_births(degree))
    if len(infA) != len(infB):
        return inf
    base = max((abs(x - y) for x, y in zip(infA, infB)), default=0.0)

    A = np.array(a.finite(degree), dtype=float).reshape(-1, 2)
    B = np.array(b.finite(degree), dtype=float).reshape(-1, 2)
    halfA = (A[:, 1] - A[:, 0]) / 2
    halfB = (B[:, 1] - B[:, 0]) / 2
    cost = np.maximum(np.abs(A[:, None, 0] - B[None, :, 0]), np.abs(A[:, None, 1] - B[None, :, 1]))
    # a repeated radius only repeats a step of the search, and np.unique
    # would import numpy.ma (about 1 MB) on first use
    candidates = np.sort(np.concatenate([[0.0, base], halfA, halfB, cost.ravel()]))
    lo, hi = 0, candidates.size - 1
    # smallest feasible candidate >= base
    while lo < hi:
        mid = (lo + hi) // 2
        if candidates[mid] >= base and _matching_feasible(cost, halfA, halfB, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    r = candidates[lo]
    if r < base or not _matching_feasible(cost, halfA, halfB, r):
        return inf
    return float(r)


def bottleneck_brute_force(a: Barcode, b: Barcode, degree: int) -> float:
    """Exhaustive matching oracle for small barcodes (tests only)."""
    infA = sorted(a.infinite_births(degree))
    infB = sorted(b.infinite_births(degree))
    if len(infA) != len(infB):
        return inf
    base = max((abs(x - y) for x, y in zip(infA, infB)), default=0.0)
    A = a.finite(degree)
    B = b.finite(degree)
    if len(A) + len(B) > 8:
        raise ValueError("brute force oracle is for small barcodes")
    nA, nB = len(A), len(B)
    best = inf
    # pad with diagonal slots and try every assignment
    size = nA + nB
    targets = list(range(size))
    for perm in permutations(targets):
        worst = base
        for i in range(size):
            j = perm[i]
            if i < nA and j < nB:
                worst = max(worst, max(abs(A[i][0] - B[j][0]), abs(A[i][1] - B[j][1])))
            elif i < nA:
                worst = max(worst, (A[i][1] - A[i][0]) / 2)
            elif j < nB:
                worst = max(worst, (B[j][1] - B[j][0]) / 2)
        best = min(best, worst)
    return float(best)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


@dataclass
class StabilityReport:
    """Per-degree bottleneck distances against the functional-gap bound."""

    gap: FunctionalGap
    slack: float
    bottlenecks: dict
    passed: bool

    def to_json(self):
        return {
            "gap": self.gap.to_json(),
            "slack": self.slack,
            "bottlenecks": {str(k): v for k, v in self.bottlenecks.items()},
            "pass": bool(self.passed),
        }


def _cell_oscillation(values: np.ndarray) -> float:
    """Max over cells of the value spread across the cell's vertices."""
    spread_hi = values
    spread_lo = values
    for axis in range(values.ndim):
        spread_hi = np.maximum(spread_hi, np.roll(spread_hi, -1, axis=axis))
        spread_lo = np.minimum(spread_lo, np.roll(spread_lo, -1, axis=axis))
    return float((spread_hi - spread_lo).max())


def stability_check(ta: TableCurve, tb: TableCurve, n: int, m: int = 64) -> StabilityReport:
    """Per-degree bottleneck distances against sup-gap + one-cell oscillation slack.

    Discrete stability on a shared grid makes the bound a theorem, so a report
    that does not pass (the gap's own bound included) signals a numerics bug.
    """
    ga = sample_orbit_functional(ta, n, m)
    gb = sample_orbit_functional(tb, n, m)
    bar_a = sublevel_barcode(ga)
    bar_b = sublevel_barcode(gb)
    # the barcodes' grids are the functional gap's, bit for bit
    gap = _gap_of_samples(ta, tb, n, m, ga.values, gb.values)
    slack = _cell_oscillation(ga.values - gb.values)
    out = {d: bottleneck_distance(bar_a, bar_b, d) for d in range(n + 1)}
    passed = gap.passed and all(bd <= gap.gap + slack + 1e-12 for bd in out.values())
    return StabilityReport(gap=gap, slack=slack, bottlenecks=out, passed=passed)


def betti_numbers(bar: Barcode) -> list[int]:
    """Infinite-bar counts per degree; the n-torus expects binomial(n, d)."""
    return [len(bar.infinite_births(d)) for d in range(bar.dim + 1)]


def expected_torus_betti(n: int) -> list[int]:
    return [comb(n, d) for d in range(n + 1)]


def save_grid(path, g: GridFunction):
    """Write a grid as a one-line JSON header followed by raw row-major doubles."""
    header = json.dumps(
        {"dim": g.dim, "resolution": g.resolution, "dtype": "float64", "order": "C"},
        sort_keys=True,
    )
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(np.ascontiguousarray(g.values, dtype="<f8").tobytes())


def load_grid(path) -> GridFunction:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        data = np.frombuffer(fh.read(), dtype="<f8")
    n, m = int(header["dim"]), int(header["resolution"])
    return GridFunction(n, m, data.reshape((m,) * n))
