import json
from itertools import product
from math import comb, inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoferbilliards import FourierSupportSpec, build_fourier_table, rigid_motion
from hoferbilliards import persistence as pe
from hoferbilliards.errors import ResolutionTooLarge

from conftest import bottleneck_by_scipy_matching


def test_sampled_functional_closed_form(disc):
    g = pe.sample_orbit_functional(disc, 2, 64)
    q = np.arange(64) / 64
    expected = (2 / np.pi) * np.abs(np.sin(np.pi * np.subtract.outer(q, q)))
    assert np.abs(g.values - expected).max() < 1e-12
    assert g.values.max() == pytest.approx(2 / np.pi, abs=1e-12)


def test_resolution_budget(disc):
    with pytest.raises(ResolutionTooLarge):
        pe.sample_orbit_functional(disc, 3, 512)


def test_constant_function_barcode():
    g = pe.GridFunction(2, 8, np.full((8, 8), 3.0))
    bar = pe.sublevel_barcode(g)
    assert bar.degree(0) == [(3.0, inf)]
    assert bar.degree(1) == [(3.0, inf), (3.0, inf)]
    assert bar.degree(2) == [(3.0, inf)]


@pytest.mark.parametrize("n,m", [(2, 12), (3, 5)])
def test_torus_betti_numbers(disc, n, m):
    g = pe.sample_orbit_functional(disc, n, m)
    bar = pe.sublevel_barcode(g)
    assert pe.betti_numbers(bar) == pe.expected_torus_betti(n)


def test_disc_barcode_structure(disc):
    bar = pe.sublevel_barcode(pe.sample_orbit_functional(disc, 2, 64))
    h0 = bar.infinite_births(0)
    assert len(h0) == 1 and h0[0] == pytest.approx(0.0, abs=1e-15)
    assert bar.infinite_births(2)[0] == pytest.approx(2 / np.pi, abs=1e-12)


def test_disc_barcode_refinement_stability(disc):
    bar64 = pe.sublevel_barcode(pe.sample_orbit_functional(disc, 2, 64))
    bar128 = pe.sublevel_barcode(pe.sample_orbit_functional(disc, 2, 128))
    g64 = pe.sample_orbit_functional(disc, 2, 64)
    cell_gap = pe._cell_oscillation(g64.values)
    for d in range(3):
        ends64 = sorted(e for _, e in bar64.finite(d))
        ends128 = sorted(e for _, e in bar128.finite(d))
        if not ends64 and not ends128:
            continue
        hi64 = ends64[-1] if ends64 else 0.0
        hi128 = ends128[-1] if ends128 else 0.0
        assert abs(hi64 - hi128) <= cell_gap


def test_barcode_shift():
    rng = np.random.default_rng(1)
    g = pe.GridFunction(2, 10, rng.uniform(0, 1, (10, 10)))
    bar = pe.sublevel_barcode(g)
    barc = pe.sublevel_barcode(g.shifted(0.3))
    for d in range(3):
        got = barc.degree(d)
        want = bar.shifted(0.3).degree(d)
        assert len(got) == len(want)
        for (b1, e1), (b2, e2) in zip(sorted(got), sorted(want)):
            assert b1 == pytest.approx(b2, abs=1e-12)
            if e1 == inf or e2 == inf:
                assert e1 == e2
            else:
                assert e1 == pytest.approx(e2, abs=1e-12)


def test_tie_break_invariance():
    # the barcode (lex order) equals the full reduction in the reversed order
    rng = np.random.default_rng(2)
    vals = rng.integers(0, 4, (6, 6)).astype(float)  # many ties
    g = pe.GridFunction(2, 6, vals)
    assert pe.sublevel_barcode(g).bars == reference_barcode(g, "revlex")


@pytest.mark.parametrize("seed", range(6))
def test_barcode_json_round_trip(seed, tmp_path):
    # seeded grids of both dimensions, with ties on odd seeds
    rng = np.random.default_rng(seed)
    for n, m in ((2, int(rng.integers(1, 10))), (3, int(rng.integers(1, 6)))):
        shape = (m,) * n
        values = rng.integers(0, 4, shape).astype(float) if seed % 2 else rng.uniform(0, 1, shape)
        bar = pe.sublevel_barcode(pe.GridFunction(n, m, values))
        path = tmp_path / f"bars_n{n}.json"
        path.write_text(json.dumps(bar.to_json()))
        assert pe.Barcode.from_json(bar.to_json()) == bar
        assert pe.Barcode.from_json(str(path)) == bar


def test_barcode_from_json_lists_only_the_degrees_it_reads():
    # a huge degree costs nothing: no empty degree lists are filled in below it
    bar = pe.Barcode.from_json([{"degree": 10**9, "birth": 0.0, "death": "inf"}])
    assert bar.dim == 10**9 and bar.bars == {10**9: [(0.0, inf)]}


def test_stability_check_reports_a_failed_bound(disc, mild_ellipse, monkeypatch):
    # a bottleneck above gap + slack used to raise StabilityViolated
    monkeypatch.setattr(pe, "bottleneck_distance", lambda a, b, d: 1.0)
    rep = pe.stability_check(disc, mild_ellipse, 2, 16)
    assert rep.gap.passed and not rep.passed and rep.to_json()["pass"] is False


def test_bottleneck_identity_and_shift(disc):
    g = pe.sample_orbit_functional(disc, 2, 24)
    bar = pe.sublevel_barcode(g)
    for d in range(3):
        assert pe.bottleneck_distance(bar, bar, d) == 0.0
    barc = pe.sublevel_barcode(g.shifted(0.25))
    for d in range(3):
        assert pe.bottleneck_distance(bar, barc, d) == pytest.approx(0.25, abs=1e-12)


def test_bottleneck_infinite_mismatch():
    a = pe.Barcode(2, {0: [(0.0, inf)]})
    b = pe.Barcode(2, {0: [(0.0, inf), (0.1, inf)]})
    assert pe.bottleneck_distance(a, b, 0) == inf


def test_bottleneck_brute_force_agreement():
    rng = np.random.default_rng(3)
    for _ in range(30):
        def rand_bar():
            bars = []
            for _ in range(int(rng.integers(0, 4))):
                b = rng.uniform(0, 1)
                bars.append((b, b + rng.uniform(0.01, 1)))
            return pe.Barcode(2, {1: bars + [(rng.uniform(0, 1), inf)]})

        A, B = rand_bar(), rand_bar()
        assert pe.bottleneck_distance(A, B, 1) == pytest.approx(
            pe.bottleneck_brute_force(A, B, 1), abs=1e-12
        )


# bar ends on a coarse grid, so that costs and half-lengths tie often, next
# to free floats; a few infinite bars on both sides
_GRID_ENDS = st.integers(0, 12).map(lambda k: k / 8)
_ENDS = st.one_of(_GRID_ENDS, st.floats(0.0, 1.5, allow_nan=False))


@st.composite
def _bars(draw, max_finite):
    finite = []
    for _ in range(draw(st.integers(0, max_finite))):
        birth = draw(_ENDS)
        death = birth + draw(st.one_of(_GRID_ENDS.filter(lambda x: x > 0), st.floats(1e-6, 1.0)))
        finite.append((birth, death))
    infinite = [(draw(_ENDS), inf) for _ in range(draw(st.integers(0, 2)))]
    return finite + infinite


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_bars(40), _bars(40))
def test_bottleneck_matches_scipy_matching(bars_a, bars_b):
    # the two cover tests against one maximum matching of bars and diagonal
    # slots, on the same candidate radii: the same radius, bit for bit
    a, b = pe.Barcode(1, {0: bars_a}), pe.Barcode(1, {0: bars_b})
    assert pe.bottleneck_distance(a, b, 0) == bottleneck_by_scipy_matching(a, b, 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_bars(4), _bars(3))
def test_bottleneck_matches_brute_force(bars_a, bars_b):
    a, b = pe.Barcode(1, {0: bars_a}), pe.Barcode(1, {0: bars_b})
    assert pe.bottleneck_distance(a, b, 0) == pe.bottleneck_brute_force(a, b, 0)


def test_bottleneck_of_deep_augmenting_paths():
    # a chain B_0 - A_0 - B_1 - A_1 - ... - B_{n-1} - A_{n-1} of cost-1 pairs,
    # the B bars listed from the far end, so that every A_i first takes
    # B_{i+1}: the last long bar then needs an augmenting path through the
    # whole chain, deeper than Python's recursion limit
    n = 1500
    a = pe.Barcode(1, {0: [(2.0 * i, 2.0 * i + 10.0) for i in range(n)]})
    b = pe.Barcode(1, {0: [(2.0 * j - 1.0, 2.0 * j + 9.0) for j in reversed(range(n))]})
    assert pe.bottleneck_distance(a, b, 0) == 1.0


def test_discrete_stability_inequality():
    rng = np.random.default_rng(4)
    g = rng.uniform(0, 1, (12, 12))
    h = g + rng.uniform(-0.05, 0.05, (12, 12))
    bar_g = pe.sublevel_barcode(pe.GridFunction(2, 12, g))
    bar_h = pe.sublevel_barcode(pe.GridFunction(2, 12, h))
    sup = float(np.abs(g - h).max())
    for d in range(3):
        assert pe.bottleneck_distance(bar_g, bar_h, d) <= sup + 1e-12


def test_stability_check_trivial(disc):
    rep = pe.stability_check(disc, disc, 2, 24)
    assert all(v == 0.0 for v in rep.bottlenecks.values())


def test_stability_check_translated(disc):
    rep = pe.stability_check(disc, rigid_motion(disc, 0.0, (0.2, 0.0)), 2, 24)
    assert all(v < 1e-12 for v in rep.bottlenecks.values())


def test_stability_check_ellipse(disc, mild_ellipse):
    rep = pe.stability_check(disc, mild_ellipse, 2, 64)
    assert rep.passed
    for d, v in rep.bottlenecks.items():
        assert v <= rep.gap.gap + rep.slack + 1e-12


def test_stability_check_three_bounces(disc, mild_ellipse):
    rep = pe.stability_check(disc, mild_ellipse, 3, 8)
    assert rep.passed
    assert set(rep.bottlenecks) == {0, 1, 2, 3}


def test_grid_serialization_roundtrip(tmp_path, disc):
    g = pe.sample_orbit_functional(disc, 2, 16)
    path = tmp_path / "grid.bin"
    pe.save_grid(path, g)
    g2 = pe.load_grid(path)
    assert g2.dim == 2 and g2.resolution == 16
    assert np.array_equal(g.values, g2.values)


# ---------------------------------------------------------------------------
# reference reduction: every column of every degree, nothing skipped
# ---------------------------------------------------------------------------


def reference_barcode(g, tie_break):
    """Barcode by the plain GF(2) reduction of the whole boundary matrix.

    Cells of the doubled grid are ordered by (lower-star value, dimension,
    flat index ascending for "lex", descending for "revlex"); every column
    of every degree is reduced in that order, with no union-find, clearing
    or compression.
    """
    n, m = g.dim, g.resolution
    side = 2 * m
    cells = list(product(range(side), repeat=n))  # row-major, so flat index order

    def vertices(cell):
        spans = [(c // 2, (c // 2 + 1) % m) if c % 2 else (c // 2,) for c in cell]
        return product(*spans)

    value = [max(float(g.values[v]) for v in vertices(cell)) for cell in cells]
    dim = [sum(c % 2 for c in cell) for cell in cells]
    sign = 1 if tie_break == "lex" else -1
    order = sorted(range(len(cells)), key=lambda i: (value[i], dim[i], sign * i))
    rank = {cells[i]: r for r, i in enumerate(order)}

    def boundary(cell):
        col = 0
        for a, c in enumerate(cell):
            if c % 2:
                for step in (-1, 1):
                    face = cell[:a] + ((c + step) % side,) + cell[a + 1 :]
                    col ^= 1 << rank[face]
        return col

    pivots = {}
    pairs = []
    for r, i in enumerate(order):
        col = boundary(cells[i])
        while col:
            low = col.bit_length() - 1
            if low not in pivots:
                pivots[low] = col
                pairs.append((low, r))
                break
            col ^= pivots[low]
    paired = {r for pair in pairs for r in pair}
    bars = {d: [] for d in range(n + 1)}
    for birth, death in pairs:
        b, e = value[order[birth]], value[order[death]]
        if e > b:
            bars[dim[order[birth]]].append((b, e))
    for r, i in enumerate(order):
        if r not in paired:
            bars[dim[i]].append((value[i], inf))
    return {d: sorted(bars[d]) for d in bars}


# (n, m): resolutions up to 8 on the 3-torus and up to 16 below it
GRIDS = st.sampled_from([1, 2, 3]).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, 8 if n == 3 else 16))
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    grid=GRIDS,
    ties=st.booleans(),
    tie_break=st.sampled_from(["lex", "revlex"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_barcode_matches_full_reduction(grid, ties, tie_break, seed):
    # the bars do not depend on the tie order, so the lex-ordered barcode
    # matches the reference reduction in either order
    n, m = grid
    rng = np.random.default_rng(seed)
    shape = (m,) * n
    values = rng.integers(0, 4, shape).astype(float) if ties else rng.uniform(0, 1, shape)
    g = pe.GridFunction(n, m, values)
    bar = pe.sublevel_barcode(g)
    assert bar.bars == reference_barcode(g, tie_break)
    assert pe.betti_numbers(bar) == [comb(n, d) for d in range(n + 1)]


def test_full_reduction_on_landscape_functionals(mild_ellipse):
    for n, m in ((2, 12), (3, 6)):
        g = pe.sample_orbit_functional(mild_ellipse, n, m)
        bars = pe.sublevel_barcode(g).bars
        for tie_break in ("lex", "revlex"):
            assert bars == reference_barcode(g, tie_break)


# ---------------------------------------------------------------------------
# properties of the bottleneck distance and of the barcodes
# ---------------------------------------------------------------------------


def _random_barcode(rng, essential):
    bars = {}
    for d, count in enumerate(essential):
        births = rng.uniform(0, 1, int(rng.integers(0, 4)))
        bars[d] = [(float(b), float(b + rng.uniform(0.001, 0.6))) for b in births]
        bars[d] += [(float(b), inf) for b in rng.uniform(0, 1, count)]
    return pe.Barcode(len(essential) - 1, bars)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_bottleneck_is_a_metric(seed):
    rng = np.random.default_rng(seed)
    essential = (1, 2, 1)
    a, b, c = (_random_barcode(rng, essential) for _ in range(3))
    for d in range(3):
        same = pe.Barcode(2, {k: list(v) for k, v in a.bars.items()})
        assert pe.bottleneck_distance(a, same, d) == 0.0
        ab = pe.bottleneck_distance(a, b, d)
        assert ab == pe.bottleneck_distance(b, a, d)
        ac = pe.bottleneck_distance(a, c, d)
        cb = pe.bottleneck_distance(c, b, d)
        assert ab <= ac + cb + 1e-12


OVAL = build_fourier_table(FourierSupportSpec(1.0, cos=[0.0, 0.03, 0.01], sin=[0.0, 0.0, 0.012]))


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    n=st.sampled_from([2, 3]),
    angle=st.floats(-np.pi, np.pi),
    dx=st.floats(-2.0, 2.0),
    dy=st.floats(-2.0, 2.0),
)
def test_barcode_invariant_under_rigid_motion(n, angle, dx, dy):
    m = 16 if n == 2 else 6
    moved = pe.sublevel_barcode(pe.sample_orbit_functional(rigid_motion(OVAL, angle, (dx, dy)), n, m))
    still = pe.sublevel_barcode(pe.sample_orbit_functional(OVAL, n, m))
    for d in range(n + 1):
        assert pe.bottleneck_distance(moved, still, d) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(k=st.integers(-40, 40), table=st.sampled_from(["oval", "sampled"]))
def test_barcode_invariant_under_mark_shift(native_tables, k, table):
    # a mark shift by k grid steps permutes the n = 2 grid cyclically, which
    # leaves the sublevel barcode unchanged.  The shifted table reads its
    # base at j/m + k/m, the same node up to one roundoff where the sum
    # wraps past 1, so the bars agree to 1e-12
    from hoferbilliards import shift_mark

    base = OVAL if table == "oval" else native_tables["sampled"]
    m = 16
    still = pe.sublevel_barcode(pe.sample_orbit_functional(base, 2, m))
    moved = pe.sublevel_barcode(pe.sample_orbit_functional(shift_mark(base, k / m), 2, m))
    for d in range(3):
        assert len(moved.degree(d)) == len(still.degree(d))
        assert pe.bottleneck_distance(moved, still, d) <= 1e-12
