"""Periodic orbits through the cyclic chord-length functional, and table
reconstruction from chord data.

The action of an n-tuple (q_1, ..., q_n) is the closed polygon length
sum_i ||gamma(q_{i+1}) - gamma(q_i)||; its critical points are exactly the
period-n billiard trajectories, searched here by a damped Newton method on
the torus and cross-validated as phase-space fixed points of the bounce
map.  Reconstruction inverts the two-point chord function: distances to the
two anchor points gamma(0) and gamma(1/2) pin every boundary point up to a
rigid motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .billiard import trajectory_arrays
from .curves import SampledCurve, TableCurve, c0_distance, circ_dist
from .errors import (
    CurvatureNotPositive,
    DiagonalPoint,
    InconsistentChords,
    NearGrazing,
    ResolutionTooLarge,
    SolverDidNotConverge,
)
from .specio import SpecError, json_field, load_json, number_list

ACCEPT_RESIDUAL = 1e-10
PHASE_TOL = 1e-8
DEDUP_TOL = 1e-6
# cells of an orbit search's Hessian stack, a barcode's functional grid, a
# batch of trajectories, a table's samples or its chord data
CELL_BUDGET = 1 << 24


def _action(dist) -> float:
    return float(dist.sum(axis=-1))


def _stack_frame(table: TableCurve, qs):
    """Frames of a stack of cyclic tuples, ``qs`` of shape (S, n).

    Returns ``(kept, frame)``: ``kept`` marks the tuples whose consecutive
    points are apart, and ``frame`` holds their unit chords, chord lengths,
    tangents and curvatures, shapes (K, n, 2), (K, n), (K, n, 2), (K, n).
    One arc-length inversion for every point: positions and tangents come
    from ``native_frame`` and curvatures from ``native_curvature`` at the
    native parameters, so the gradient, the Hessian, the action and the
    phase point can share them.  A tuple on the diagonal is dropped before
    anything divides by its chord lengths.
    """
    t = table.native_of_q(qs)
    pos, tan, _ = table.native_frame(t)
    d = np.roll(pos, -1, axis=-2) - pos
    dist = np.linalg.norm(d, axis=-1)
    close = circ_dist(qs, np.roll(qs, -1, axis=-1)) < 1e-12
    kept = ~np.any((dist < 1e-14) | close, axis=-1)
    dist = dist[kept]
    return kept, (d[kept] / dist[..., None], dist, tan[kept], table.native_curvature(t[kept]))


def _orbit_frame(table: TableCurve, qs):
    """Unit chords, chord lengths, tangents and curvatures of cyclic tuples.

    ``qs`` has shape (..., n); raises DiagonalPoint when any tuple has
    coinciding consecutive points.
    """
    qs = np.asarray(qs, dtype=float)
    kept, frame = _stack_frame(table, qs.reshape(-1, qs.shape[-1]))
    if not kept.all():
        raise DiagonalPoint("consecutive orbit points coincide")
    return tuple(a.reshape(qs.shape[:-1] + a.shape[1:]) for a in frame)


def orbit_functional(table: TableCurve, qs) -> float:
    """Total chord length of the closed tuple; cyclic-shift invariant."""
    return _action(_orbit_frame(table, qs)[1])


def _gradient(u, tan):
    outgoing = np.sum(u * tan, axis=-1)
    incoming = np.sum(np.roll(u, 1, axis=-2) * tan, axis=-1)
    return incoming - outgoing


def orbit_gradient(table: TableCurve, qs):
    """d/dq_i of the functional: incoming momentum minus outgoing momentum.

    Component i vanishes exactly when the reflection law holds at bounce i.
    """
    u, _, tan, _ = _orbit_frame(table, qs)
    return _gradient(u, tan)


def _hessian(u, dist, tan, kappa):
    """Analytic Hessian of the functional: each chord adds to two diagonal entries and one pair.

    Leading axes of the frame are a stack of tuples; the result has shape
    dist.shape + (n,).
    """
    # gamma'' = kappa * (tangent rotated by +90)
    gpp = kappa[..., None] * np.stack([-tan[..., 1], tan[..., 0]], axis=-1)
    # chord i joins bounce i to bounce j = i + 1 (mod n)
    tan_j, gpp_j = np.roll(tan, -1, axis=-2), np.roll(gpp, -1, axis=-2)
    p = np.vecdot(u, tan)
    P = np.vecdot(u, tan_j)
    own = (1 - p * p) / dist - np.vecdot(u, gpp)
    nxt = (1 - P * P) / dist + np.vecdot(u, gpp_j)
    cross = -(np.vecdot(tan, tan_j) - p * P) / dist
    n = dist.shape[-1]
    i = np.arange(n)
    j = np.roll(i, -1)
    H = np.zeros(dist.shape + (n,))
    H[..., i, i] = own + np.roll(nxt, 1, axis=-1)
    # two separate updates: at n = 2 both chords land on the same entries
    H[..., i, j] += cross
    H[..., j, i] += cross
    return H


@dataclass
class PeriodicOrbitCandidate:
    """A converged critical tuple with its validation data."""

    qs: tuple
    n: int
    action: float
    residual: float
    accepted: bool
    degenerate_family: bool
    phase_error: float
    winding: int = 0

    def to_json(self):
        return {
            "n": self.n,
            "qs": list(self.qs),
            "action": self.action,
            "residual": self.residual,
            "accepted": bool(self.accepted),
            "degenerate_family": bool(self.degenerate_family),
            "phase_error": self.phase_error,
            "winding": self.winding,
        }


def orbit_phase_point(table: TableCurve, qs):
    """Outgoing phase point (q_1, p) of the first bounce of the tuple."""
    qs = np.asarray(qs, dtype=float)
    u, _, tan, _ = _orbit_frame(table, qs)
    return float(np.mod(qs[0], 1.0)), _outgoing_momentum(u, tan)


def _outgoing_momentum(u, tan) -> float:
    """Tangential momentum u_1 . t_1 of the first chord leaving the first bounce."""
    return float(u[0] @ tan[0])


def _phase_validation(table: TableCurve, qs, p):
    """Max phase-space deviation of the tuple from a bounce trajectory.

    The n bounces from the tuple's phase point must visit q_2, ..., q_n and
    close up at q_1; a trajectory that grazes the boundary scores inf.
    """
    try:
        traj, _ = trajectory_arrays(table, np.mod(qs[0], 1.0), p, qs.size)
    except NearGrazing:
        return np.inf
    return float(circ_dist(traj[1:], np.roll(qs, -1)).max())


def _newton_orbit(table: TableCurve, seeds):
    """Damped Newton on the torus from every row of the (S, n) array ``seeds``.

    Returns, in seed order, (tuple mod 1, residual) or None for each seed.
    All active seeds advance together: each iteration inverts arc length
    once for all their points, builds the (A, n, n) Hessian stack from that
    frame and takes one stacked minimum-norm step.  The rules are per seed:
    a step is clipped to max-norm 0.1; a seed stops at |gradient| < 1e-13,
    one iterate after a step below 1e-15, or after 60 steps, and reports
    its last iterate; a seed whose tuple reaches the diagonal drops out
    alone and returns None.
    """
    maxiter = 60
    qs = np.array(seeds, dtype=float)
    eps_n = np.finfo(float).eps * qs.shape[-1]
    results = [None] * len(qs)
    active = np.arange(len(qs))
    settled = np.zeros(len(qs), dtype=bool)
    for it in range(maxiter + 1):
        kept, (u, dist, tan, kappa) = _stack_frame(table, qs)
        active, qs, settled = active[kept], qs[kept], settled[kept]
        g = _gradient(u, tan)
        residual = np.abs(g).max(axis=-1)
        done = settled | (residual < 1e-13) | (it == maxiter)
        for k in np.flatnonzero(done):
            results[active[k]] = np.mod(qs[k], 1.0), float(residual[k])
        go = ~done
        active, qs = active[go], qs[go]
        if not active.size:
            break
        # one stacked minimum-norm least-squares step with lstsq's rank cut:
        # singular values <= eps * n * s_max count as zero, so a rotational
        # family takes no step along itself
        hess = _hessian(u[go], dist[go], tan[go], kappa[go])
        step = (np.linalg.pinv(hess, rcond=eps_n) @ -g[go][..., None])[..., 0]
        norm = np.abs(step).max(axis=-1)
        clip = norm > 0.1
        step[clip] *= (0.1 / norm[clip])[:, None]
        qs = qs + step
        settled = norm < 1e-15
    return results


def _canonical_images(qs):
    qs = np.mod(np.asarray(qs, dtype=float), 1.0)
    n = qs.size
    images = []
    for arr in (qs, qs[::-1]):
        for k in range(n):
            images.append(np.roll(arr, k))
    return images


def _same_orbit(a: PeriodicOrbitCandidate, b: PeriodicOrbitCandidate) -> bool:
    qa = np.asarray(a.qs)
    for img in _canonical_images(b.qs):
        if circ_dist(qa, img).max() < DEDUP_TOL:
            return True
    if a.degenerate_family and b.degenerate_family:
        # members of a rotational family match after a common rotation
        for img in _canonical_images(b.qs):
            diff = np.mod(qa - img, 1.0)
            mean = np.angle(np.exp(2j * np.pi * diff).mean()) / (2 * np.pi)
            if circ_dist(diff, mean).max() < 1e-4:
                return True
    return False


def find_periodic_orbits(
    table: TableCurve, n: int, seed_count: int = 32, rng=None
) -> list[PeriodicOrbitCandidate]:
    """Multi-start Newton search for period-n orbits on the parameter torus.

    Seeds combine rotational tuples q_i = q0 + i k/n (k coprime to n) with
    uniform random tuples, and all of them run as one stacked damped Newton
    (``_newton_orbit``).  The converged candidates, in seed order, read their
    Hessian eigenvalues from one stacked frame.  Duplicates modulo cyclic
    shift and reversal (and common rotation for degenerate families) are
    rejected before the phase validation; each remaining candidate takes
    its action and the momentum of its first bounce from a frame of its own,
    and is accepted only when the critical residual is below 1e-10 and the
    tuple closes up as a phase-space trajectory within 1e-8.  Classes are
    returned sorted by action, then tuple.  A Hessian stack of more than
    ``CELL_BUDGET`` cells raises ResolutionTooLarge before it is allocated.
    """
    if n < 2:
        raise ValueError("period must be at least 2")
    coprime = [k for k in range(1, n) if np.gcd(k, n) == 1]
    tried = 8 * len(coprime) + seed_count
    if tried * n * n > CELL_BUDGET:
        raise ResolutionTooLarge(f"{tried} seeds x {n} x {n} Hessian stack exceeds the configured budget")
    rng = np.random.default_rng(rng)
    starts = np.linspace(0.0, 1.0 / n, 8, endpoint=False)
    seeds = [np.mod(q0 + np.arange(n) * k / n, 1.0) for k in coprime for q0 in starts]
    for _ in range(seed_count):
        cand = np.sort(rng.uniform(0.0, 1.0, n))
        if circ_dist(cand, np.roll(cand, -1)).min() > 0.05 / n:
            seeds.append(cand)

    results = [
        res
        for res in _newton_orbit(table, np.array(seeds))
        if res is not None
        and res[1] <= ACCEPT_RESIDUAL
        and circ_dist(res[0], np.roll(res[0], -1)).min() >= 1e-9
    ]
    found: list[PeriodicOrbitCandidate] = []
    if not results:
        return found
    eig = np.linalg.eigvalsh(_hessian(*_orbit_frame(table, np.array([qs for qs, _ in results]))))
    for (qs, residual), ev in zip(results, np.abs(eig)):
        winding = int(np.rint(np.sum(np.mod(np.diff(np.concatenate([qs, qs[:1]])), 1.0))))
        cand = PeriodicOrbitCandidate(
            qs=tuple(float(v) for v in qs),
            n=n,
            action=np.nan,
            residual=residual,
            accepted=False,
            degenerate_family=bool(ev.min() < 1e-6 * max(1.0, ev.max())),
            phase_error=np.inf,
            winding=winding,
        )
        if any(_same_orbit(cand, other) for other in found):
            continue
        u, dist, tan, _ = _orbit_frame(table, qs)
        phase_error = _phase_validation(table, qs, _outgoing_momentum(u, tan))
        if residual < ACCEPT_RESIDUAL and phase_error < PHASE_TOL:
            found.append(replace(cand, action=_action(dist), accepted=True, phase_error=phase_error))
    found.sort(key=lambda c: (c.action, c.qs))
    return found


# ---------------------------------------------------------------------------
# C^0 control of the functional
# ---------------------------------------------------------------------------


def sample_functional_values(table: TableCurve, n: int, m: int):
    """F on the uniform m^n torus grid; chords of equal parameters count 0."""
    q = np.arange(m) / m
    pos = table.position(q)
    diff = pos[None, :, :] - pos[:, None, :]
    D = np.linalg.norm(diff, axis=-1)
    if n == 2:
        return 2.0 * D
    if n == 3:
        return D[:, :, None] + D[None, :, :] + D[:, None, :]
    raise ValueError("torus grids are supported for n in {2, 3}")


def _adjacent_mask(n: int, m: int):
    """True where some cyclically consecutive coordinates coincide."""
    idx = np.arange(m)
    if n == 2:
        return idx[:, None] == idx[None, :]
    eq01 = idx[:, None, None] == idx[None, :, None]
    eq12 = idx[None, :, None] == idx[None, None, :]
    eq20 = idx[None, None, :] == idx[:, None, None]
    return eq01 | eq12 | eq20


@dataclass
class FunctionalGap:
    """sup |F_a - F_b| on a torus grid against its bound 2 n C^0(a, b)."""

    gap: float
    bound: float
    c0: float

    @property
    def passed(self) -> bool:
        """The gap is within its bound, up to 1e-9 relative rounding."""
        return self.gap <= self.bound * (1.0 + 1e-9)

    def to_json(self):
        return {"gap": self.gap, "bound": self.bound, "c0": self.c0}


def functional_gap(a: TableCurve, b: TableCurve, n: int, m: int = 64) -> FunctionalGap:
    """sup |F_a - F_b| over the torus grid, against 2 n C^0 distance.

    The bound is unconditional (triangle inequality chord by chord), so a
    report that does not pass signals a numerics bug.
    """
    return _gap_of_samples(a, b, n, m, sample_functional_values(a, n, m), sample_functional_values(b, n, m))


def _gap_of_samples(a: TableCurve, b: TableCurve, n: int, m: int, Fa, Fb) -> FunctionalGap:
    """`functional_gap` from the two tables' `sample_functional_values` on the m^n grid."""
    mask = _adjacent_mask(n, m)
    gap = float(np.abs(np.where(mask, 0.0, Fa - Fb)).max())
    q = np.arange(m) / m
    grid_c0 = float(np.linalg.norm(a.position(q) - b.position(q), axis=-1).max())
    c0 = max(c0_distance(a, b), grid_c0)
    return FunctionalGap(gap=gap, bound=2.0 * n * c0, c0=c0)


# ---------------------------------------------------------------------------
# almost periodicity
# ---------------------------------------------------------------------------


@dataclass
class AlmostPeriodicityReport:
    """Closeness of the perturbed-table trajectory cloud to the reference one."""

    min_distance: float
    argmin_start: tuple
    radius: float
    samples: int
    n: int
    geometric_upper_bound: float | None
    cloud_b: np.ndarray = field(repr=False, default=None)
    cloud_a: np.ndarray = field(repr=False, default=None)
    # why geometric_upper_bound is None, else None
    bound_missing: str | None = None

    def to_json(self):
        return {
            "min_distance": self.min_distance,
            "argmin_start": list(self.argmin_start),
            "radius": self.radius,
            "samples": self.samples,
            "n": self.n,
            "geometric_upper_bound": self.geometric_upper_bound,
            "bound_missing": self.bound_missing,
        }


def _phase_metric(a, b):
    dq = circ_dist(a[..., 0], b[..., 0])
    dp = a[..., 1] - b[..., 1]
    return np.hypot(dq, dp)


def almost_periodicity_experiment(
    a: TableCurve,
    b: TableCurve,
    orbit: PeriodicOrbitCandidate,
    n: int,
    radius: float = 0.05,
    samples: int = 200,
    rng=None,
) -> AlmostPeriodicityReport:
    """Sample a phase ball at a periodic point of ``a`` and iterate under ``b``.

    Reports min over sample starts x of the distance from the n-th iterate
    under b to the cloud of n-th iterates under a, together with the
    geometric path upper bound between the tables when both expose support
    specs (context for the displacement-energy threshold, which itself is
    not computable).  When there is no bound, ``bound_missing`` says why:
    a table without a support spec, or the typed error of an interpolation
    that leaves the convex class or a length sweep that did not converge.
    """
    rng = np.random.default_rng(rng)
    q0, p0 = orbit_phase_point(a, np.asarray(orbit.qs))
    ang = rng.uniform(0.0, 2 * np.pi, samples - 1)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, samples - 1))
    qs = np.concatenate([[q0], q0 + rad * np.cos(ang)])
    ps = np.concatenate([[p0], np.clip(p0 + rad * np.sin(ang), -0.999, 0.999)])

    def iterate_cloud(table):
        Q, P = trajectory_arrays(table, qs, ps, n)
        return np.stack([Q[-1], P[-1]], axis=-1)

    cloud_a = iterate_cloud(a)
    cloud_b = iterate_cloud(b)
    dists = _phase_metric(cloud_b[:, None, :], cloud_a[None, :, :]).min(axis=1)
    j = int(np.argmin(dists))

    upper = None
    spec_a = getattr(a, "spec", None)
    spec_b = getattr(b, "spec", None)
    if spec_a is None or spec_b is None:
        missing = "a table has no support spec"
    else:
        from .homotopy import path_geometric_length, support_interp_path

        missing = None
        try:
            upper = path_geometric_length(
                support_interp_path(spec_a, spec_b), s_nodes=17, q_nodes=512
            )
        except (CurvatureNotPositive, SolverDidNotConverge) as exc:
            missing = f"{type(exc).__name__}: {exc}"
    return AlmostPeriodicityReport(
        min_distance=float(dists[j]),
        argmin_start=(float(qs[j] % 1.0), float(ps[j])),
        radius=radius,
        samples=samples,
        n=n,
        geometric_upper_bound=upper,
        cloud_b=cloud_b,
        cloud_a=cloud_a,
        bound_missing=missing,
    )


# ---------------------------------------------------------------------------
# reconstruction from chord data
# ---------------------------------------------------------------------------


@dataclass
class ChordData:
    """Samples of F(0, t) and F(t, 1/2) plus the anchor distance F(0, 1/2).

    Raises InconsistentChords (a ValueError) unless the anchor distance is
    positive and t increases strictly inside (0, 1), skipping the anchor
    parameter 1/2: the reconstruction pins t = 0 and 1/2 itself and reads
    the side of the anchor line from t < 1/2.
    """

    t: np.ndarray
    from_start: np.ndarray
    from_half: np.ndarray
    anchor: float

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.from_start = np.asarray(self.from_start, dtype=float)
        self.from_half = np.asarray(self.from_half, dtype=float)
        if self.anchor <= 0:
            raise InconsistentChords("anchor distance F(0, 1/2) must be positive")
        t = self.t
        if not (np.all((t > 0.0) & (t < 1.0) & (t != 0.5)) and np.all(np.diff(t) > 0.0)):
            raise InconsistentChords("chord parameters t must increase strictly inside (0, 1) and skip 1/2")

    def to_json(self):
        return {
            "t": self.t.tolist(),
            "from_start": self.from_start.tolist(),
            "from_half": self.from_half.tolist(),
            "anchor": self.anchor,
        }

    @classmethod
    def from_json(cls, source) -> "ChordData":
        """The object ``to_json`` writes, or a JSON file of one; a malformed
        field, or sample lists of unequal lengths, is a SpecError."""
        obj = load_json(source)
        data = {key: json_field(obj, key, "chords", _samples) for key in ("t", "from_start", "from_half")}
        for key in ("from_start", "from_half"):
            if data[key].size != data["t"].size:
                raise SpecError(f"chords.{key}: {data[key].size} samples, chords.t has {data['t'].size}")
        return cls(anchor=json_field(obj, "anchor", "chords"), **data)


def _samples(value):
    """A non-empty flat list of numbers as a float array."""
    if not (arr := number_list(value)).size:
        raise ValueError("expected a non-empty list of numbers")
    return arr


def table_chord_data(table: TableCurve, samples: int = 256) -> ChordData:
    """Chord data of a table on the uniform grid (skipping t = 0, 1/2).

    More than ``CELL_BUDGET`` samples raises ResolutionTooLarge before any is taken.
    """
    if samples > CELL_BUDGET:
        raise ResolutionTooLarge(f"{samples} chord samples exceed the configured budget")
    t = np.arange(1, samples) / samples
    t = t[np.abs(t - 0.5) > 1e-12]
    pos = table.position(t)
    p0 = table.position(0.0)
    ph = table.position(0.5)
    return ChordData(
        t=t,
        from_start=np.linalg.norm(pos - p0, axis=-1),
        from_half=np.linalg.norm(pos - ph, axis=-1),
        anchor=float(np.linalg.norm(ph - p0)),
    )


def reconstruct_table(chords: ChordData):
    """Recover boundary points from two-anchor chord data, up to rigid motion.

    Anchors are placed at S = (0, 0) and R = (anchor, 0); each t determines
    the circle-circle intersection with the orientation convention that the
    basis (point - S, R - S) is negative for t < 1/2 and positive for
    t > 1/2 (counterclockwise traversal).  Returns (t, points) including the
    pinned anchor parameters 0 and 1/2.  Raises InconsistentChords when the
    circles fail to intersect by more than 1e-9 relative to the squared
    chord scale.
    """
    d = float(chords.anchor)
    r1 = chords.from_start
    r2 = chords.from_half
    t = chords.t
    if np.any(r1 <= 0) or np.any(r2 <= 0):
        raise InconsistentChords("chord lengths must be positive off the anchors")
    x = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    y2 = r1 * r1 - x * x
    if np.any(y2 < -1e-9 * max(1.0, float(np.abs(r1).max()) ** 2)):
        raise InconsistentChords("chord circles fail to intersect")
    y = np.sqrt(np.maximum(y2, 0.0))
    sign = np.where(t < 0.5, -1.0, 1.0)
    pts = np.stack([x, sign * y], axis=-1)
    t_full = np.concatenate([[0.0], t[t < 0.5], [0.5], t[t > 0.5]])
    pts_full = np.vstack(
        [[0.0, 0.0], pts[t < 0.5], [d, 0.0], pts[t > 0.5]]
    )
    return t_full, pts_full


def align_two_anchors(points, t, table: TableCurve):
    """Rigid motion taking the reconstructed anchors onto the table's anchors."""
    S = table.position(0.0)
    R = table.position(0.5)
    ang = np.arctan2(*(R - S)[::-1]) - np.arctan2(points[np.searchsorted(t, 0.5), 1] - points[0, 1], points[np.searchsorted(t, 0.5), 0] - points[0, 0])
    c, s = np.cos(ang), np.sin(ang)
    rot = np.array([[c, -s], [s, c]])
    return (points - points[0]) @ rot.T + S


def reconstruction_roundtrip_error(table: TableCurve, samples: int = 256) -> float:
    """Max aligned point error of the chord-data reconstruction."""
    data = table_chord_data(table, samples)
    t, pts = reconstruct_table(data)
    aligned = align_two_anchors(pts, t, table)
    true = table.position(t)
    return float(np.linalg.norm(aligned - true, axis=-1).max())


def reconstructed_table(chords: ChordData) -> TableCurve:
    """Spectral table built from reconstructed samples (uniform grids only)."""
    t, pts = reconstruct_table(chords)
    gaps = np.diff(np.concatenate([t, [1.0]]))
    if np.abs(gaps - gaps[0]).max() > 1e-9:
        raise ValueError("reconstructed_table needs a uniform parameter grid")
    return SampledCurve(pts, kind="reconstructed_samples")
