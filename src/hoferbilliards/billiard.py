"""The billiard ball map of a strictly convex table and its generating function.

Phase space is the open annulus: q in [0,1) the arc-length footpoint of a
chord, p in (-1,1) the tangential momentum <u, gamma'(q)> of the outgoing
unit chord direction u.  The chord length F(q, Q) generates the map:
dF/dq = -p and dF/dQ = P.

``forward_chord`` is the one bounce solve; it runs in the table's native
parameter t and returns the landing frame (t_Q, pos_Q, tan_Q) with Q and P.
``trajectory_arrays`` is the one multi-step kernel: it inverts arc length
once at the starts and hands each landing frame to the next bounce, so
trajectories, portraits and orbit validation cost one inversion however
many bounces they take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._solve import newton_bisect
from .curves import TableCurve, circ_dist
from .errors import DiagonalPoint, NearGrazing, NotStrictlyConvex

GRAZING_CUTOFF = 1e-9
DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class AnnulusPoint:
    """Phase point (q, p): q cyclic in [0,1), momentum |p| < 1."""

    q: float
    p: float

    def __post_init__(self):
        if not np.isfinite(self.q):
            raise ValueError(f"position must be finite, got {self.q!r}")
        object.__setattr__(self, "q", float(np.mod(self.q, 1.0)))
        object.__setattr__(self, "p", float(self.p))
        if not abs(self.p) < 1.0:
            raise ValueError(f"momentum must satisfy |p| < 1, got {self.p!r}")


def _check_offdiagonal(q, Q):
    if np.any(circ_dist(q, Q) < DIAGONAL_TOL):
        raise DiagonalPoint("chord endpoints coincide mod 1")


def chord_length(table: TableCurve, q, Q):
    """Euclidean distance between the boundary points at parameters q and Q."""
    _check_offdiagonal(q, Q)
    d = table.position(Q) - table.position(q)
    return np.linalg.norm(d, axis=-1)


def generating_partials(table: TableCurve, q, Q):
    """(dF/dq, dF/dQ) of the chord length; equals (-p, P) of the ball map."""
    _check_offdiagonal(q, Q)
    d = table.position(Q) - table.position(q)
    u = d / np.linalg.norm(d, axis=-1, keepdims=True)
    dq = -np.sum(u * table.tangent(q), axis=-1)
    dQ = np.sum(u * table.tangent(Q), axis=-1)
    return dq, dQ


def native_start(table: TableCurve, q):
    """(t_q, pos_q, tan_q): native parameter, position and tangent at q.

    The only arc-length inversion of a bounce solve; grid sweeps compute it
    once and pass it to ``forward_chord`` as ``start``.
    """
    t = table.native_of_q(q)
    pos, tan, _ = table.native_frame(t)
    return t, pos, tan


def forward_chord(table: TableCurve, q, p, seed=None, start=None):
    """Vectorized bounce solve returning the full chord data.

    The solve runs in the table's native parameter t (see
    :mod:`hoferbilliards.curves`), where position, tangent and dq/dt are
    closed form.  The residual r(t) = <u, gamma'(q)> - p decreases strictly
    from 1-p to -1-p on (t_q, t_q + period), so a bracketed Newton with
    dr/dt = dr/dQ * dq/dt and bisection fallback is well posed.  It is
    seeded with the round-table closed form t_q + period * arccos(p)/pi, or
    a caller-provided warm start ``seed`` in native units.  ``start`` lets
    callers reuse a precomputed ``native_start(table, q)``.

    Returns (Q, P, pos_q, tan_q, pos_Q, tan_Q, t_Q): Q is converted from the
    landing parameter t_Q once, at the end, and is unreduced in (q, q+1).
    Callers that need only the bounce take ``forward_chord(...)[:2]``, and
    the inverse bounce is the time reversal of ``forward_chord(table, Q, -P)``.
    No check of strict convexity or grazing is made here; ``iterate`` makes
    both.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    q, p = np.broadcast_arrays(q, p)
    shape = q.shape
    qf = np.atleast_1d(q).ravel()
    pf = np.atleast_1d(p).ravel()
    if start is None:
        start = native_start(table, qf)
    t_q = np.atleast_1d(np.asarray(start[0], dtype=float)).ravel()
    pos_q = np.atleast_2d(start[1]).reshape(-1, 2)
    tan_q = np.atleast_2d(start[2]).reshape(-1, 2)
    period = table.native_period
    # the residual runs on split x/y components: plain elementwise products,
    # no last-axis reductions inside the Newton loop
    qx, qy = pos_q[:, 0].copy(), pos_q[:, 1].copy()
    ax, ay = tan_q[:, 0].copy(), tan_q[:, 1].copy()
    # the landing frame: newton_bisect evaluates each component last at the
    # iterate it returns, so the residual's frame there is the landing one.
    # Rows are scattered as complex x + iy, about 7x cheaper than (x, y) rows
    pos_Q = np.empty((qf.size, 2))
    tan_Q = np.empty((qf.size, 2))
    pos_z, tan_z = pos_Q.view(complex)[:, 0], tan_Q.view(complex)[:, 0]

    def fun(t, idx):
        pos_t, tan_t, dq_dt = table.native_frame(t)
        pos_z[idx] = pos_t.view(complex)[:, 0]
        tan_z[idx] = tan_t.view(complex)[:, 0]
        tx, ty = tan_t[:, 0], tan_t[:, 1]
        dx = pos_t[:, 0] - qx[idx]
        dy = pos_t[:, 1] - qy[idx]
        dist = np.sqrt(dx * dx + dy * dy)
        ux, uy = dx / dist, dy / dist
        cx, cy = ax[idx], ay[idx]
        pc = ux * cx + uy * cy
        PQ = ux * tx + uy * ty
        dr = (tx * cx + ty * cy - PQ * pc) / dist
        return pc - pf[idx], dr * dq_dt

    delta = 1e-13 * period
    if seed is None:
        seed = t_q + period * np.arccos(np.clip(pf, -1.0, 1.0)) / np.pi
    else:
        seed = np.atleast_1d(np.asarray(seed, dtype=float)).ravel()
    t = newton_bisect(
        fun,
        lo=t_q + delta,
        hi=t_q + period - delta,
        seed=seed,
        increasing=False,
    )
    dx = pos_Q[:, 0] - qx
    dy = pos_Q[:, 1] - qy
    dist = np.sqrt(dx * dx + dy * dy)
    P = dx / dist * tan_Q[:, 0] + dy / dist * tan_Q[:, 1]
    Q = table.q_of_native(t)
    return (
        Q.reshape(shape),
        P.reshape(shape),
        pos_q.reshape(shape + (2,)),
        tan_q.reshape(shape + (2,)),
        pos_Q.reshape(shape + (2,)),
        tan_Q.reshape(shape + (2,)),
        t.reshape(shape),
    )


def trajectory_arrays(table: TableCurve, q, p, steps: int):
    """Batched trajectories of the ball map from the starts (q, p).

    Returns (qs, ps) of shape (|steps| + 1,) + broadcast shape, row k the
    k-th iterate with q reduced mod 1; negative ``steps`` iterates the
    inverse map by time reversal R o forward o R with R(q, p) = (q, -p).
    Arc length is inverted once, at the starts: every later bounce starts
    from the previous landing frame (t_Q mod native_period, pos_Q, tan_Q)
    returned by ``forward_chord``.

    Raises NearGrazing, with ``step`` the 1-based index of the bounce that
    could not be taken, when some |p| reaches 1 - GRAZING_CUTOFF, and
    ResolutionTooLarge, before anything is allocated, when the trajectories
    hold more than ``dynamics.CELL_BUDGET`` cells.
    """
    # the package's one cell budget; dynamics imports this module
    from .dynamics import check_budget

    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    n = abs(int(steps))
    check_budget((n + 1) * q.size, f"{n + 1} steps x {q.size} starts")
    sign = -1.0 if steps < 0 else 1.0
    qs = np.empty((n + 1,) + q.shape)
    ps = np.empty_like(qs)
    qs[0] = np.mod(q, 1.0)
    ps[0] = p
    if n == 0:
        return qs, ps
    Q = q.ravel()
    P = sign * p.ravel()
    start = native_start(table, Q)
    for k in range(1, n + 1):
        if not np.all(np.abs(P) < 1.0 - GRAZING_CUTOFF):
            raise NearGrazing(f"grazing at step {k}: |p| reaches {1.0 - GRAZING_CUTOFF!r}", step=k)
        Q, P, _, _, pos_Q, tan_Q, t_Q = forward_chord(table, Q, P, start=start)
        start = (np.mod(t_Q, table.native_period), pos_Q, tan_Q)
        qs[k] = np.mod(Q, 1.0).reshape(q.shape)
        ps[k] = sign * P.reshape(q.shape)
    return qs, ps


def iterate(table: TableCurve, x: AnnulusPoint, n: int):
    """Trajectory [x, psi(x), ..., psi^n(x)]; negative n uses the inverse map.

    One ``trajectory_arrays`` call, so arc length is inverted once whatever
    n is.  Raises NotStrictlyConvex for tables outside the billiard class;
    NearGrazing raised mid-flight carries the failing step index.
    """
    if n and not table.strictly_convex:
        raise NotStrictlyConvex(f"{table.kind} table is not strictly convex")
    qs, ps = trajectory_arrays(table, x.q, x.p, n)
    return [AnnulusPoint(q, p) for q, p in zip(qs.tolist(), ps.tolist())]


def forward_map(table: TableCurve, x: AnnulusPoint) -> AnnulusPoint:
    """One bounce of the billiard ball map."""
    return iterate(table, x, 1)[1]


def inverse_map(table: TableCurve, x: AnnulusPoint) -> AnnulusPoint:
    """Inverse bounce; forward_map(inverse_map(x)) == x to solver accuracy."""
    return iterate(table, x, -1)[1]


def map_jacobian(table: TableCurve, q, p):
    """Central-difference Jacobian (step 1e-5) of the ball map at (q, p), unreduced in Q."""
    step = 1e-5
    Qp, Pp = forward_chord(table, q + step, p)[:2]
    Qm, Pm = forward_chord(table, q - step, p)[:2]
    Qu, Pu = forward_chord(table, q, p + step)[:2]
    Qd, Pd = forward_chord(table, q, p - step)[:2]
    return np.array(
        [
            [(Qp - Qm) / (2 * step), (Qu - Qd) / (2 * step)],
            [(Pp - Pm) / (2 * step), (Pu - Pd) / (2 * step)],
        ]
    )
