"""Paths of billiard tables, their geometric and Hofer lengths, and certificates.

A path of tables induces a path of annulus maps psi_s generated by the
time-dependent Hamiltonian

    H_s(Q, P) = -dF_s/ds (q_s(Q, P), Q),      F_s(q, Q) = ||gamma_s(q) - gamma_s(Q)||,

where (q_s, p_s) = psi_s^{-1}(Q, P).  With u the unit chord from gamma(q_s)
to gamma(Q) this evaluates to <u, dgamma/ds(q_s) - dgamma/ds(Q)>, which is
what this module computes; no differencing of F itself is involved.  The
module certifies the comparison l_H <= 4 l_B path by path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .billiard import forward_chord, native_start
from .curves import (
    CURVATURE_FLOOR,
    TWO_PI,
    FourierSupportSpec,
    FourierTable,
    SampledCurve,
    TableCurve,
    c0_distance,
)
from .errors import BracketInverted, CurvatureNotPositive, NearGrazing, PerturbationTooLarge

# s-step of the finite-difference velocity of a path without a velocity field
_VELOCITY_DS = 1e-4

# extrapolation weights of the s-predictor in hofer_length: the polynomial
# through the last 1, 2 or 3 equally spaced nodes, at the next node
_PREDICTOR = {1: (1.0,), 2: (2.0, -1.0), 3: (3.0, -3.0, 1.0)}


def simpson_nodes(n: int):
    """Nodes and weights of the composite Simpson rule on [0, 1]; n odd."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3")
    x = np.linspace(0.0, 1.0, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (x[1] - x[0]) / 3.0
    return x, w


class TablePath:
    """One-parameter family s in [0,1] of length-1 tables with s-derivative.

    ``table_of_s`` builds the slice at s (cached); ``velocity_fn(s, q, t)``,
    when given, evaluates dgamma_s/ds(q) analytically, where t is either None
    or the slice's native parameter at q (a field that is closed form in t
    then skips the arc-length inversion).  Without it, second-order finite
    differences in s with step 1e-4 are used (one-sided at the endpoints).
    """

    def __init__(self, table_of_s, velocity_fn=None, tag: str = "custom"):
        self._build = table_of_s
        self._velocity_fn = velocity_fn
        self.tag = tag
        self._cache: dict[float, TableCurve] = {}

    def table(self, s: float) -> TableCurve:
        s = float(s)
        hit = self._cache.get(s)
        if hit is None:
            hit = self._build(s)
            self._cache[s] = hit
        return hit

    def velocity(self, s: float, q, t=None):
        """dgamma_s/ds at fixed arc-length parameter q; shape q.shape + (2,).

        ``t``, when known, is the native parameter of ``table(s)`` at q.
        """
        if self._velocity_fn is not None:
            return self._velocity_fn(s, q, t)
        h = _VELOCITY_DS
        if s < h:
            a, b, c = self.table(s), self.table(s + h), self.table(s + 2 * h)
            return (-3.0 * a.position(q) + 4.0 * b.position(q) - c.position(q)) / (2.0 * h)
        if s > 1.0 - h:
            a, b, c = self.table(s), self.table(s - h), self.table(s - 2 * h)
            return (3.0 * a.position(q) - 4.0 * b.position(q) + c.position(q)) / (2.0 * h)
        return (self.table(s + h).position(q) - self.table(s - h).position(q)) / (2.0 * h)

    def speed_max(self, s: float, q_nodes: int = 1024) -> float:
        """Grid max of ||velocity|| over the slice, with three refinement passes.

        The max does not depend on how the boundary is parametrized, so it is
        sampled in the slice's native parameter t, where q(t) is closed form
        and no arc length is inverted: ``q_nodes`` nodes t_j = P j / q_nodes,
        P the native period.  Each pass samples 17 points across a window
        around the best point so far; the window starts at one grid spacing
        P / q_nodes on either side and shrinks 8x per pass, to the spacing
        of the pass before.  Where the native parameter is q (the disc,
        smoothed polygons) the nodes are q_j = j / q_nodes.  With a single
        pass, l_B at 512 nodes read up to 2e-7 (relative) below the endpoint
        C^0 distance on random 4-harmonic paths, which inverted
        ``bracket_dB``.
        """
        table = self.table(s)
        period = table.native_period
        t = period * (np.arange(q_nodes) / q_nodes)
        mag = np.linalg.norm(self.velocity(s, table.q_of_native(t), t), axis=-1)
        j = int(np.argmax(mag))
        best, center = float(mag[j]), t[j]
        half = period / q_nodes
        for _ in range(3):
            t = center + np.linspace(-1.0, 1.0, 17) * half
            mag2 = np.linalg.norm(self.velocity(s, table.q_of_native(t), t), axis=-1)
            k = int(np.argmax(mag2))
            best, center = max(best, float(mag2[k])), t[k]
            half /= 8.0
        return best


def translation_path(table: TableCurve, v) -> TablePath:
    """gamma_s = gamma + s*v; the velocity field is constantly v."""
    v = np.asarray(v, dtype=float)

    def build(s):
        from .curves import rigid_motion

        return rigid_motion(table, 0.0, s * v)

    def vel(s, q, t):
        q = np.asarray(q, dtype=float)
        return np.broadcast_to(v, q.shape + (2,)).copy()

    return TablePath(build, vel, tag="translation")


def rigid_motion_path(table: TableCurve, angle: float, v=(0.0, 0.0)) -> TablePath:
    """Isometry path g_s(gamma), g_s = rotation by s*angle plus s*v; Hofer-null."""
    v = np.asarray(v, dtype=float)
    angle = float(angle)

    def build(s):
        from .curves import rigid_motion

        return rigid_motion(table, s * angle, s * v)

    def vel(s, q, t):
        # the slices share the base table's native parameter
        pos = table.position(q) if t is None else table.native_frame(t)[0]
        c, sn = np.cos(s * angle), np.sin(s * angle)
        dr = angle * np.array([[-sn, -c], [c, -sn]])
        return pos @ dr.T + v

    return TablePath(build, vel, tag="rigid")


def support_interp_path(a: FourierSupportSpec, b: FourierSupportSpec) -> TablePath:
    """Linear interpolation of raw support functions, each slice renormalized.

    The renormalization factor tau(s) = 1/(2 pi c0(s)) is part of the path,
    and the velocity field is evaluated in closed form: with g the
    s-derivative of the normalized support function,

        dgamma_s/ds = g(theta) e_r + (g'(theta) - int_0^theta (g + g'')) e_t.

    Raises CurvatureNotPositive (with the failing s) when some slice leaves
    the positively curved class, checked at 64 slices on 1024 normal angles.
    """
    n = max(a.cos.size, b.cos.size)
    ca = np.pad(a.cos, (0, n - a.cos.size))
    sa = np.pad(a.sin, (0, n - a.sin.size))
    cb = np.pad(b.cos, (0, n - b.cos.size))
    sb = np.pad(b.sin, (0, n - b.sin.size))

    def raw(s):
        return FourierSupportSpec(
            (1 - s) * a.c0 + s * b.c0, (1 - s) * ca + s * cb, (1 - s) * sa + s * sb
        )

    # rho is linear in the spec, so every checked slice blends two evaluations
    theta = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    rho_a, rho_b = a.rho(theta), b.rho(theta)
    for s in np.linspace(0.0, 1.0, 64):
        c0s = (1 - s) * a.c0 + s * b.c0
        if c0s <= 0.0 or ((1 - s) * rho_a + s * rho_b).min() <= CURVATURE_FLOOR:
            raise CurvatureNotPositive(f"interpolated support not convex at s={s:.6f}", where=s)

    specs: dict[float, tuple[FourierSupportSpec, FourierSupportSpec]] = {}

    def slice_specs(s):
        """(normalized support, its s-derivative g) of the slice at s, cached."""
        s = float(s)
        hit = specs.get(s)
        if hit is None:
            spec = raw(s)
            c0s = spec.c0
            dc0 = b.c0 - a.c0
            tau = 1.0 / (TWO_PI * c0s)
            dtau = -dc0 / (TWO_PI * c0s * c0s)
            g = FourierSupportSpec(
                dtau * spec.c0 + tau * dc0,
                dtau * spec.cos + tau * (cb - ca),
                dtau * spec.sin + tau * (sb - sa),
            )
            hit = specs[s] = (spec.normalized(), g)
        return hit

    def build(s):
        return FourierTable(slice_specs(s)[0])

    def vel(s, q, t):
        norm, g = slice_specs(s)
        th = FourierTable(norm).theta_of_q(q) if t is None else np.asarray(t, dtype=float)
        # g, g' and int_0^theta (g + g'') from one kernel evaluation on g
        rows = g._terms(th)
        gv = g.c0 + rows[0]
        gt = rows[1] - (g.c0 * th + rows[3])
        c, sn = rows[4], rows[5]
        return np.stack([gv * c - gt * sn, gv * sn + gt * c], axis=-1)

    return TablePath(build, vel, tag="support_interp")


@dataclass
class NormalPerturbationPath:
    """Rescaled, arc-length reparametrized normal-perturbation path with its bound.

    ``bound`` is constant * (sup|f| + sup|f'|) where the constant is derived
    from the renormalization and reparametrization inequalities using only
    the curvature of the base table; it is recorded in ``constant``.
    """

    path: TablePath
    bound: float
    constant: float
    sup_f: float
    sup_df: float

    def __iter__(self):
        return iter((self.path, self.bound))


def normal_perturbation_path(table: TableCurve, f_samples) -> NormalPerturbationPath:
    """Path gamma_s = alpha + s f n, renormalized to length 1 and reparametrized.

    ``f_samples``: N >= 256 uniform samples of a smooth 1-periodic function,
    interpolated spectrally.  Requires sup|f| * max-curvature <= 1/2 (the
    C^2-smallness hypothesis that keeps the renormalization well posed),
    else PerturbationTooLarge.  Each slice is a ``SampledCurve`` of 513
    samples; positive curvature is checked on 9 slices, else
    CurvatureNotPositive.
    """
    from .curves import _TrigSeries

    f_samples = np.asarray(f_samples, dtype=float)
    if f_samples.size < 256:
        raise ValueError("need at least 256 samples of f")
    f = _TrigSeries(f_samples.astype(complex))
    dense = np.arange(4096) / 4096.0
    fv = np.real(f.on_grid(dense.size))
    dfv = np.real(f.on_grid(dense.size, deriv=1))
    sup_f = float(np.abs(fv).max())
    sup_df = float(np.abs(dfv).max())
    k_max = float(np.abs(table.curvature(dense[::2])).max())
    if sup_f * k_max > 0.5:
        raise PerturbationTooLarge(
            f"sup|f| * max curvature = {sup_f * k_max:.3f} exceeds 1/2; "
            "the renormalization estimates require a C^2-small perturbation"
        )

    def build(s):
        def raw(u):
            u = np.asarray(u, dtype=float)
            return table.position(u) + float(s) * np.real(f(u))[..., None] * table.normal(u)

        return SampledCurve.from_function(raw, samples=513, kind="reconstructed_samples")

    for s in np.linspace(0.0, 1.0, 9):
        slc = build(s)
        if slc.min_curvature <= 0.0:
            raise CurvatureNotPositive(
                f"perturbed slice loses convexity at s={s:.4f}", where=float(s)
            )

    constant = 2.0 + 6.4 * k_max
    bound = constant * (sup_f + sup_df)
    return NormalPerturbationPath(
        path=TablePath(build, tag="normal_perturbation"),
        bound=bound,
        constant=constant,
        sup_f=sup_f,
        sup_df=sup_df,
    )


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------


def path_geometric_length(
    path: TablePath, s_nodes: int = 65, q_nodes: int = 1024, with_error: bool = False
):
    """Simpson quadrature of max_q ||dgamma_s/ds|| over s in [0, 1].

    Each integrand value is ``TablePath.speed_max``: a grid max over
    ``q_nodes`` nodes of the slice's native parameter with three refinement
    passes.  A grid max never exceeds the true max, so the value
    approximates the path length from below up to quadrature error;
    ``with_error`` also returns the Simpson doubling estimate
    |I_n - I_(n//2+1)|.
    """
    x, w = simpson_nodes(s_nodes)
    vals = np.array([path.speed_max(float(s), q_nodes) for s in x])
    full = float(vals @ w)
    if not with_error:
        return full
    xc, wc = simpson_nodes(s_nodes // 2 + 1)
    coarse = float(vals[::2] @ wc)
    return full, abs(full - coarse)


class HamiltonianField:
    """Evaluator of the generating Hamiltonian H_s(Q, P) of a table path."""

    GRAZING = 1e-6

    def __init__(self, path: TablePath):
        self.path = path

    def solve(self, s: float, Q, P, seed=None, start=None, vel_Q=None):
        """H_s on arrays with the landing data, all in the slice's native parameter.

        Returns (H, q_s, t_s): the Hamiltonian, and where the backward chord
        from Q at momentum -P lands, in q and in native units.  ``seed`` is
        a native warm start (e.g. t_s from a nearby s); ``start``, a
        ``native_start`` at Q, and ``vel_Q`` let grid sweeps reuse the
        start data and the velocity at the Q samples.
        """
        Q, P = np.broadcast_arrays(np.asarray(Q, dtype=float), np.asarray(P, dtype=float))
        if np.any(np.abs(P) > 1.0 - self.GRAZING):
            raise NearGrazing("Hamiltonian evaluation too close to the annulus boundary")
        table = self.path.table(s)
        if start is None:
            start = native_start(table, np.atleast_1d(Q).ravel())
        # time reversal: the backward chord from Q at momentum -P lands on q_s
        qs, _, pos_Q, _, pos_qs, _, ts = forward_chord(table, Q, -P, seed=seed, start=start)
        d = pos_Q - pos_qs
        u = d / np.linalg.norm(d, axis=-1, keepdims=True)
        if vel_Q is None:
            vel_Q = self.path.velocity(s, Q, np.reshape(start[0], np.shape(Q)))
        dv = self.path.velocity(s, qs, ts) - vel_Q
        return np.sum(u * dv, axis=-1), qs, ts

    def value_arrays(self, s: float, Q, P):
        """Vectorized H_s on arrays; |P| <= 1 - 1e-6 required."""
        return self.solve(s, Q, P)[0]

    def value(self, s: float, Q: float, P: float) -> float:
        return float(self.value_arrays(s, np.asarray(Q), np.asarray(P)))


def hofer_oscillation(hf: HamiltonianField, s: float, q_grid: int = 256, p_grid: int = 127, seed=None):
    """(max H_s - min H_s over the (Q, P) grid, extremes locally refined, ts).

    The grid is Q = j / q_grid by ``p_grid`` momenta in [-pmax, pmax],
    pmax = 1 - 1/128.  Each extreme is refined on a 9x9 window spanning one
    grid step on either side of it (momenta clipped to pmax); both windows
    share one solve of 162 points, whose start data and velocities are
    computed once at their 18 Q values.  ``ts`` are the landing native
    parameters of the grid's inverse solves; ``hofer_length`` extrapolates
    them along s to seed the grid of the next s-node.
    """
    pmax = 1.0 - 1.0 / 128.0
    table = hf.path.table(s)
    Qg = np.arange(q_grid) / q_grid
    Pg = np.linspace(-pmax, pmax, p_grid)

    def sweep(Q, P, seed=None):
        # P holds one row of momenta per Q; the start data and the velocity
        # are computed once per Q and repeated along its row
        m = P.shape[1]
        t_Q, pos_Q, tan_Q = native_start(table, Q)
        start = tuple(np.repeat(x, m, axis=0) for x in (t_Q, pos_Q, tan_Q))
        vel_Q = np.repeat(hf.path.velocity(s, Q, t_Q), m, axis=0)
        return hf.solve(s, np.repeat(Q, m), P.ravel(), seed=seed, start=start, vel_Q=vel_Q)

    H, _, ts = sweep(Qg, np.broadcast_to(Pg, (q_grid, p_grid)), seed)
    H = H.reshape(q_grid, p_grid)
    dq = Qg[1] - Qg[0] if q_grid > 1 else 0.5
    dp = Pg[1] - Pg[0] if p_grid > 1 else 0.1
    step = np.linspace(-1.0, 1.0, 9)
    # the 9x9 windows around the max and the min, as 18 Q rows of 9 momenta
    ij = [np.unravel_index(int(np.argmax(H)), H.shape), np.unravel_index(int(np.argmin(H)), H.shape)]
    Ql = np.concatenate([Qg[i] + step * dq for i, _ in ij])
    Pl = np.stack([np.clip(Pg[j] + step * dp, -pmax, pmax) for _, j in ij])
    Hl = sweep(Ql, np.repeat(Pl, 9, axis=0))[0].reshape(2, 81)
    return max(float(H.max()), float(Hl[0].max())) - min(float(H.min()), float(Hl[1].min())), ts


def hofer_length(
    path: TablePath, s_nodes: int = 17, q_grid: int = 256, p_grid: int = 127
) -> float:
    """Simpson quadrature of the Hamiltonian oscillation along the path.

    Approximates the Hofer length of this particular path (an upper bound
    for the Hofer distance of its endpoints, up to grid error).  The grid
    solves of each s-node are seeded by a predictor along s (numerical
    continuation, Allgower & Georg 1990, ch. 2): the polynomial through the
    landing native parameters of the last 1, 2 or 3 nodes, evaluated at the
    next, equally spaced node.  ``newton_bisect`` clips each seed into its
    bracket, so a poor prediction costs iterations, not correctness.
    """
    hf = HamiltonianField(path)
    x, w = simpson_nodes(s_nodes)
    vals = np.empty(s_nodes)
    # landing ts of the last three nodes, the latest first
    last: list[np.ndarray] = []
    for i, s in enumerate(x):
        seed = sum(c * t for c, t in zip(_PREDICTOR[len(last)], last)) if last else None
        vals[i], ts = hofer_oscillation(hf, float(s), q_grid, p_grid, seed=seed)
        last = [ts] + last[:2]
    return float(vals @ w)


def generating_rate_integral(path: TablePath, s_nodes: int = 33, pair_grid: int = 256) -> float:
    """int_0^1 sup_(q,Q) |dF_s/ds| ds over an off-diagonal pair grid."""
    x, w = simpson_nodes(s_nodes)
    qg = np.arange(pair_grid) / pair_grid
    vals = []
    for s in x:
        table = path.table(float(s))
        pos = table.position(qg)
        vel = path.velocity(float(s), qg)
        d = pos[None, :, :] - pos[:, None, :]
        dist = np.linalg.norm(d, axis=-1)
        np.fill_diagonal(dist, 1.0)
        u = d / dist[..., None]
        dv = vel[None, :, :] - vel[:, None, :]
        rate = np.abs(np.sum(u * dv, axis=-1))
        np.fill_diagonal(rate, 0.0)
        vals.append(float(rate.max()))
    return float(np.asarray(vals) @ w)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class ComparisonCertificate:
    """Numerical witness for the Hofer-vs-geometric length comparison."""

    hofer: float
    geometric: float
    ratio: float
    passed: bool
    slack: float = 1e-2
    grids: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "l_H": self.hofer,
            "l_B": self.geometric,
            "ratio": self.ratio,
            "pass": bool(self.passed),
            "slack": self.slack,
            "grids": self.grids,
        }


def verify_comparison(
    path: TablePath,
    s_nodes: int = 17,
    q_grid: int = 256,
    p_grid: int = 127,
    lb_s_nodes: int = 65,
    lb_q_nodes: int = 1024,
    slack: float = 1e-2,
) -> ComparisonCertificate:
    """Check l_H <= 4 l_B (1 + slack) for the given path.

    What the check can detect: for every chord pair |<u, v(q) - v(Q)>| is
    at most 2 max|v|, so max H_s - min H_s <= 4 max_q ||dgamma_s/ds||
    holds whatever landing points the bounce solves return.  The ratio
    therefore exceeds 4 (1 + slack) only through discretization: when the
    l_B sweep or its Simpson rule reads low by more than the slack against
    the l_H nodes.  A wrong bounce solve does not show here; the checks
    that tie H to the billiard map are the Hamilton-Jacobi residual, the
    round-table closed form and symplecticity.
    """
    l_h = hofer_length(path, s_nodes, q_grid, p_grid)
    l_b = path_geometric_length(path, lb_s_nodes, lb_q_nodes)
    if l_b == 0.0:
        ratio = 0.0 if l_h <= 1e-12 else float("inf")
    else:
        ratio = l_h / l_b
    return ComparisonCertificate(
        hofer=l_h,
        geometric=l_b,
        ratio=ratio,
        passed=bool(ratio <= 4.0 * (1.0 + slack)),
        slack=slack,
        grids={"s_nodes": s_nodes, "q_grid": q_grid, "p_grid": p_grid, "lb_s_nodes": lb_s_nodes},
    )


def hamilton_jacobi_residual(path: TablePath, s: float, points, h: float = 1e-4) -> float:
    """Max residual of d psi_s/ds = (dH/dP, -dH/dQ) o psi_s over sample points.

    The left side is a central difference of the lifted bounce map in s, the
    right side the symplectic gradient of the Hamiltonian by central
    differences with step 1e-5; both are independent discretizations, so
    the residual certifies the Hamilton-Jacobi identity to O(h^2).
    """
    pts = np.asarray(
        [(pt.q, pt.p) if hasattr(pt, "q") else tuple(pt) for pt in points], dtype=float
    )
    q, p = pts[:, 0], pts[:, 1]
    hf = HamiltonianField(path)

    Qp, Pp = forward_chord(path.table(s + h), q, p)[:2]
    Qm, Pm = forward_chord(path.table(s - h), q, p)[:2]
    flow = np.stack([(Qp - Qm) / (2 * h), (Pp - Pm) / (2 * h)], axis=-1)

    Q0, P0 = forward_chord(path.table(s), q, p)[:2]
    grad_step = 1e-5
    dH_dQ = (
        hf.value_arrays(s, Q0 + grad_step, P0) - hf.value_arrays(s, Q0 - grad_step, P0)
    ) / (2 * grad_step)
    dH_dP = (
        hf.value_arrays(s, Q0, P0 + grad_step) - hf.value_arrays(s, Q0, P0 - grad_step)
    ) / (2 * grad_step)
    sym = np.stack([dH_dP, -dH_dQ], axis=-1)

    return float(np.linalg.norm(flow - sym, axis=-1).max())


@dataclass
class DistanceBracket:
    """Certified two-sided estimate: lower <= geometric distance <= upper."""

    lower: float
    upper: float

    def to_json(self):
        return {"lower": self.lower, "upper": self.upper}


def bracket_dB(path: TablePath, s_nodes: int = 65, q_nodes: int = 1024) -> DistanceBracket:
    """C^0 distance of the endpoints below, path length above."""
    lower = c0_distance(path.table(0.0), path.table(1.0))
    upper = path_geometric_length(path, s_nodes, q_nodes)
    if lower > upper * (1.0 + 1e-6) + 1e-15:
        raise BracketInverted(f"lower {lower!r} exceeds upper {upper!r}")
    return DistanceBracket(lower=lower, upper=upper)
