from math import inf

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from hoferbilliards import FourierSupportSpec, build_fourier_table, disc_table
from hoferbilliards.billiard import trajectory_arrays
from hoferbilliards.curves import TableCurve, circ_dist
from hoferbilliards.dynamics import DEDUP_TOL, _gradient, _hessian, _orbit_frame
from hoferbilliards.errors import DiagonalPoint, NearGrazing
from hoferbilliards.persistence import Barcode


@pytest.fixture(scope="session")
def disc():
    return disc_table()


@pytest.fixture(scope="session")
def mild_ellipse():
    # support bulge along the x-axis: major axis endpoints at q = 0, 1/2
    return build_fourier_table(FourierSupportSpec(1.0, cos=[0.0, 0.03]))


def random_support_spec(rng, harmonics=4, amplitude=0.03):
    """Admissible random support spec; rejection-samples until convex."""
    for _ in range(100):
        spec = FourierSupportSpec(
            1.0,
            cos=rng.uniform(-amplitude, amplitude, harmonics),
            sin=rng.uniform(-amplitude, amplitude, harmonics),
        )
        theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        if spec.rho(theta).min() > 0.02:
            return spec
    raise AssertionError("could not sample a convex support spec")


@pytest.fixture
def spec_factory():
    return random_support_spec


@pytest.fixture(scope="session")
def native_tables(disc, mild_ellipse):
    """One table per native parametrization: identity, theta, u and the two wrappers."""
    from hoferbilliards import SampledCurve, rigid_motion, shift_mark

    oval = build_fourier_table(
        FourierSupportSpec(1.0, cos=[0.0, 0.03, 0.01, -0.008], sin=[0.0, 0.0, 0.012])
    )

    def bumpy(u):
        return mild_ellipse.position(u) + 0.002 * np.cos(6 * np.pi * u)[:, None] * mild_ellipse.normal(u)

    return {
        "disc": disc,
        "mild_ellipse": mild_ellipse,
        "sampled": SampledCurve(bumpy(np.arange(129) / 129)),
        "mark_shifted": shift_mark(oval, 0.37),
        "rigid": rigid_motion(oval, 1.1, (0.4, -0.2)),
    }


# --- phase-space orbit oracle ------------------------------------------------
# Independent of the torus search of dynamics.find_periodic_orbits: a Newton
# iteration on the n-fold bounce map itself, its Jacobian by a 5-point
# finite-difference stencil.  Acceptance criterion 8 and test_dynamics read it.


def _iterate_batch(table: TableCurve, pts: np.ndarray, n: int):
    """n-fold lifted bounce map of a batch of (q, p) rows.

    Every forward bounce advances q by (Q - q) mod 1 in (0, 1), which
    restores the lift from the reduced trajectory.
    """
    try:
        qs, ps = trajectory_arrays(table, pts[:, 0], pts[:, 1], n)
    except NearGrazing as exc:
        raise FloatingPointError("batch leaves the solvable annulus") from exc
    if not np.all(np.abs(ps[-1]) < 1 - 1e-9):
        raise FloatingPointError("batch leaves the solvable annulus")
    Q = pts[:, 0] + np.mod(np.diff(qs, axis=0), 1.0).sum(axis=0)
    return np.stack([Q, ps[-1]], axis=-1)


def phase_fixed_points(table: TableCurve, n: int, seed_count: int = 24, rng=None) -> list[tuple]:
    """Fixed points of the n-fold bounce map by Newton in phase space.

    Independent of the torus search; used as its validation oracle.  A start
    converges when the fixed-point defect falls below 1e-11.  Returns
    deduplicated (q, p) pairs.
    """
    rng = np.random.default_rng(rng)
    starts = [np.array([rng.uniform(), rng.uniform(-0.8, 0.8)]) for _ in range(seed_count)]
    h = 1e-7
    stencil = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    out = []
    for x in starts:
        ok = False
        for _ in range(40):
            try:
                ys = _iterate_batch(table, x[None, :] + stencil, n)
            except (FloatingPointError, ArithmeticError):
                break
            G = ys[0] - (x + stencil[0])
            G[0] -= np.rint(G[0])
            if np.abs(G).max() < 1e-11:
                ok = True
                break
            J = np.empty((2, 2))
            J[:, 0] = (ys[1] - ys[2]) / (2 * h)
            J[:, 1] = (ys[3] - ys[4]) / (2 * h)
            J -= np.eye(2)
            step, *_ = np.linalg.lstsq(J, -G, rcond=None)
            norm = np.abs(step).max()
            if norm > 0.1:
                step *= 0.1 / norm
            x = x + step
            x[0] = np.mod(x[0], 1.0)
            x[1] = np.clip(x[1], -0.995, 0.995)
        if not ok:
            continue
        q, p = float(np.mod(x[0], 1.0)), float(x[1])
        if all(circ_dist(q, q2) + abs(p - p2) > 1e-6 for q2, p2 in out):
            out.append((q, p))
    return out


def tuple_from_phase_point(table: TableCurve, q: float, p: float, n: int):
    """Bounce parameters visited over n iterations from (q, p)."""
    return trajectory_arrays(table, q, p, n - 1)[0]


# --- per-seed torus Newton oracles ---------------------------------------------
# The one-seed-at-a-time damped Newton that dynamics._newton_orbit ran before
# it stacked the seeds of a search, kept unchanged: every iterate builds its
# own frame and takes its own ``np.linalg.lstsq`` step.  It steps in q and
# inverts arc length at every iterate; test_dynamics checks the search against
# it as the arc-length reference.  ``native_newton_orbit`` takes the same
# steps in the table's native parameter, the rule of the stacked search, and
# test_dynamics checks the stacked iterates seed by seed against it.


def scalar_newton_orbit(table: TableCurve, qs0):
    """Damped Newton on the torus from ``qs0``: (tuple mod 1, residual) or None.

    At most 60 steps.  Each iterate inverts arc length once; its gradient
    and Hessian share that geometry.
    """
    maxiter = 60
    qs = np.array(qs0, dtype=float)
    settled = False
    for it in range(maxiter + 1):
        try:
            u, dist, tan, kappa = _orbit_frame(table, qs)
        except DiagonalPoint:
            return None
        g = _gradient(u, tan)
        if settled or it == maxiter or np.abs(g).max() < 1e-13:
            return np.mod(qs, 1.0), float(np.abs(g).max())
        step, *_ = np.linalg.lstsq(_hessian(u, dist, tan, kappa), -g, rcond=None)
        norm = np.abs(step).max()
        if norm > 0.1:
            step *= 0.1 / norm
        qs = qs + step
        settled = norm < 1e-15


def native_newton_orbit(table: TableCurve, qs0):
    """Damped Newton from ``qs0`` in the native parameter t: (tuple mod 1, residual) or None.

    Arc length is inverted once, at the seed.  Each iterate builds its frame
    from ``native_frame(t)`` and ``native_curvature(t)`` and reads its tuple
    from ``q_of_native(t)``; the ``np.linalg.lstsq`` step in q, clipped to
    max-norm 0.1, moves t by step / (dq/dt).  Stops as ``scalar_newton_orbit``
    does.
    """
    maxiter = 60
    t = table.native_of_q(np.array(qs0, dtype=float))
    settled = False
    for it in range(maxiter + 1):
        qs = table.q_of_native(t)
        pos, tan, dq_dt = table.native_frame(t)
        d = np.roll(pos, -1, axis=0) - pos
        dist = np.linalg.norm(d, axis=-1)
        if np.any(dist < 1e-14) or np.any(circ_dist(qs, np.roll(qs, -1)) < 1e-12):
            return None
        u = d / dist[:, None]
        g = _gradient(u, tan)
        if settled or it == maxiter or np.abs(g).max() < 1e-13:
            return np.mod(qs, 1.0), float(np.abs(g).max())
        step, *_ = np.linalg.lstsq(_hessian(u, dist, tan, table.native_curvature(t)), -g, rcond=None)
        norm = np.abs(step).max()
        if norm > 0.1:
            step *= 0.1 / norm
        t = t + step / dq_dt
        settled = norm < 1e-15


# --- orbit deduplication oracle ----------------------------------------------
# The pairwise comparison that dynamics.find_periodic_orbits made before it
# compared each candidate with every accepted class in one stacked test: the
# validate-then-deduplicate oracle of test_dynamics reads it.


def canonical_images(qs):
    """The 2n cyclic shifts and reversals of a tuple mod 1, one array each."""
    qs = np.mod(np.asarray(qs, dtype=float), 1.0)
    n = qs.size
    images = []
    for arr in (qs, qs[::-1]):
        for k in range(n):
            images.append(np.roll(arr, k))
    return images


def same_orbit(a, b) -> bool:
    """Whether candidates ``a`` and ``b`` are one class: equal up to cyclic
    shift and reversal, or, for two degenerate families, after a common rotation."""
    qa = np.asarray(a.qs)
    for img in canonical_images(b.qs):
        if circ_dist(qa, img).max() < DEDUP_TOL:
            return True
    if a.degenerate_family and b.degenerate_family:
        # members of a rotational family match after a common rotation
        for img in canonical_images(b.qs):
            diff = np.mod(qa - img, 1.0)
            mean = np.angle(np.exp(2j * np.pi * diff).mean()) / (2 * np.pi)
            if circ_dist(diff, mean).max() < 1e-4:
                return True
    return False


# --- sampled support-function oracle -------------------------------------------
# The dense support function that smoothing.positive_curvature_lift read before
# it computed a slice's support function exactly, kept unchanged: an argmax of
# <e_theta, p - center> over 8192 boundary samples p at each of 2048 normal
# angles, refined by a parabola through the best sample and its neighbours.
# test_smoothing checks the exact support function against it and rebuilds the
# 96-mode lift spec of the theta-Newton stall from it.

SUPPORT_ANGLES = 2048
SUPPORT_POINTS = 8192


def sampled_support(curve: TableCurve, center):
    """(refined h, raw sample max) about ``center`` at theta_j = 2 pi j / 2048."""
    n_theta, n_q = SUPPORT_ANGLES, SUPPORT_POINTS
    q = np.arange(n_q) / n_q
    pts = curve.position(q) - center
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    h = np.empty(n_theta)
    top = np.empty(n_theta)
    block = 256
    for start in range(0, n_theta, block):
        e = np.stack([np.cos(theta[start : start + block]), np.sin(theta[start : start + block])], axis=-1)
        proj = e @ pts.T
        j = np.argmax(proj, axis=1)
        rows = np.arange(proj.shape[0])
        # parabolic refinement through the three neighboring samples
        y0 = proj[rows, (j - 1) % n_q]
        y1 = proj[rows, j]
        y2 = proj[rows, (j + 1) % n_q]
        denom = np.maximum(np.abs(y0 - 2 * y1 + y2), 1e-30)
        corr = np.where(denom > 1e-28, (y0 - y2) ** 2 / (8 * denom), 0.0)
        h[start : start + block] = y1 + corr
        top[start : start + block] = y1
    return h, top


# The bottleneck distance by a maximum bipartite matching on the complete
# (nA + nB) x (nA + nB) graph of bars and diagonal slots, found by scipy:
# the package's own matching (two augmenting-path cover tests) is checked
# against it, radius for radius.


def _matching_feasible(costA_B, halfA, halfB, r):
    nA, nB = len(halfA), len(halfB)
    size = nA + nB
    if size == 0:
        return True
    rows, cols = [], []
    for i in range(nA):
        for j in range(nB):
            if costA_B[i][j] <= r:
                rows.append(i)
                cols.append(j)
        if halfA[i] <= r:
            rows.append(i)
            cols.append(nB + i)
    for j in range(nB):
        if halfB[j] <= r:
            rows.append(nA + j)
            cols.append(j)
        for i in range(nA):
            rows.append(nA + j)
            cols.append(nB + i)
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(size, size))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int((match >= 0).sum()) == size


def bottleneck_by_scipy_matching(a: Barcode, b: Barcode, degree: int) -> float:
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

    A = a.finite(degree)
    B = b.finite(degree)
    halfA = [(e - bb) / 2 for (bb, e) in A]
    halfB = [(e - bb) / 2 for (bb, e) in B]
    cost = [
        [max(abs(b1 - b2), abs(e1 - e2)) for (b2, e2) in B]
        for (b1, e1) in A
    ]
    candidates = sorted(
        {0.0, base}
        | set(halfA)
        | set(halfB)
        | {c for row in cost for c in row}
    )
    lo, hi = 0, len(candidates) - 1
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
