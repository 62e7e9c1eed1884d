"""Smoothing convex polygons into families of convex tables.

A polygon corner locally reads as the graph of a|x| in corner coordinates.
Replacing it by a smooth convex profile f (equal to a|x| outside [-w, w])
at every corner, scaled by s, yields a family gamma_s of smooth convex
curves that coincide with the polygon boundary outside shrinking corner
neighborhoods.  gamma_s carries the constant-speed parametrization with
speed L(s) = length(gamma_s); the normalized family is the homothety
lambda(s) gamma_s with lambda = 1/L about the polygon centroid, which is
then arc-length parametrized by construction.

A corner profile is the corner graph convolved with the standard mollifier
rho.  It evaluates through rho and the cubic Hermite tables of Phi = int
rho and Psi = int t rho, whose node slopes are the exact rho and t rho.

L(s) is affine: L(s) = L_K - s * sum(delta_i), with delta_i the per-corner
length defect of the profile graph against the corner graph.  The
s-derivative of the normalized slice at fixed q is closed form piece by
piece (``SmoothingFamily.rate``); ``family_speed`` and ``restricted_path``
read it, so no slice is differenced in s.  The module also certifies the
Cauchy behaviour of the family as s -> 0 and the O(s) independence of the
profile choice.

Every slice quantity (position, tangent, curvature, s-rate) comes from one
gathered kernel, ``SmoothingFamily._eval``, which takes a 1-D array of
scales and a stack of k profile sets on the family's corners (`_Rows`).  At
corner i, row r of a stack is the profile sum_j w[r, j] parents[i][j]: a
family's own profiles are one row of one parent with weight 1, and the
blends of a Simpson node below are k rows of two parents with weights
(1 - t, t).  `_Rows` holds each corner's (k, 2049) arc table, built in one
pass from the parents' f' on the widest parent's grid (`_arc_grid`); its
``xi_of_arc`` is the one inversion of a profile's arc length and its
``profile`` the one mixer of the parents' f, f' and f''.  Each mix starts
from its first term, so a weight of 1 changes no bit.  The edge points of
all pieces and scales are one fancy-indexed expression per stack row; the
corner points of all rows take one call of each parent per corner that
holds any.  Each point sees the floating-point operations of a one-scale,
one-profile call in the same order, so batching changes no bit.
`cauchy_tail` reads all its levels from one call.

The independence certificate blends the two families' corner profiles at
the stencil points of a Simpson rule in the blend parameter t.  The blend
does not depend on the scale, so one sweep over the t nodes serves every
scale of `independence_slope`.  The sweep reads each parent's f' once, on
its corner's grid, and the 2 or 3 blends of a node are one stack, evaluated
by one kernel call blend by blend into one array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._solve import newton_bisect
from .curves import (
    TWO_PI,
    FourierSupportSpec,
    PolygonSpec,
    TableCurve,
    build_fourier_table,
    rigid_motion,
    rotate_cw,
    shift_mark,
)
from .dynamics import check_budget
from .errors import InvalidWidth, MarkInCorner
from .homotopy import TablePath, simpson_nodes

# ---------------------------------------------------------------------------
# the standard mollifier and its integrals
# ---------------------------------------------------------------------------

_MOLLIFIER_GRID = 16385


def _bump(x):
    """The unnormalized standard bump exp(-1/(1 - x^2)) on (-1, 1), 0 outside."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, np.exp(-1.0 / np.maximum(1.0 - x * x, 1e-300)), 0.0)


class _Mollifier:
    """Standard bump exp(-1/(1-x^2)) on (-1,1), normalized to unit mass.

    The density rho is the closed-form bump over its mass.  Phi(u) =
    int_-1^u rho and Psi(u) = int_-1^u t rho(t) dt, which enter the closed
    form of the convolution (a|.|) * rho_w, are cubic Hermite tables: their
    node values come from a fourth-order cumulative rule, and their node
    slopes are the exact derivatives Phi' = rho and Psi' = u rho.
    """

    def __init__(self, n=_MOLLIFIER_GRID):
        x = np.linspace(-1.0, 1.0, n)
        vals = _bump(x)
        phi = _cumulative(x, vals)
        self.mass = phi[-1]
        vals /= self.mass
        phi /= self.mass
        psi = _cumulative(x, x * vals)
        self.phi = _Hermite(x, phi, vals)
        self.psi = _Hermite(x, psi, x * vals)
        # first absolute moment; Psi(1) = 0 by symmetry
        self.abs_moment = float(-2.0 * self.psi(0.0))

    def density(self, u):
        return _bump(u) / self.mass


class _Hermite:
    """Piecewise cubic Hermite interpolant of y with the slopes dy on the nodes x.

    Points outside [x[0], x[-1]] extrapolate the end cubics.
    """

    def __init__(self, x, y, dy):
        h = x[1:] - x[:-1]
        m = (y[1:] - y[:-1]) / h
        t = (dy[:-1] + dy[1:] - 2 * m) / h
        self.x = x
        self.coef = (y[:-1], dy[:-1], (m - dy[:-1]) / h - t, t / h)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        # the interval with x[i] <= u < x[i + 1], the end ones extended outward
        i = np.searchsorted(self.x[1:-1], u, "right")
        s = u - self.x[i]
        c0, c1, c2, c3 = (c[i] for c in self.coef)
        s2 = s * s
        return ((c0 + c1 * s) + c2 * s2) + c3 * (s2 * s)


def _cumulative(x, y):
    """Fourth-order cumulative integral on a uniform grid, along the last axis of y."""
    h = x[1] - x[0]
    inc = h / 12.0 * (5.0 * y[..., :-1] + 8.0 * y[..., 1:] - np.append(y[..., 2:], y[..., -2:-1], axis=-1))
    inc[..., -1] = h / 12.0 * (-y[..., -3] + 8.0 * y[..., -2] + 5.0 * y[..., -1])
    out = np.zeros(y.shape)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


@functools.cache
def standard_mollifier() -> _Mollifier:
    return _Mollifier()


# ---------------------------------------------------------------------------
# corner profiles
# ---------------------------------------------------------------------------

_ARC_GRID = 2049


@dataclass
class CornerProfile:
    """Smooth convex even function equal to slope*|x| for |x| >= width."""

    slope: float
    width: float
    f: object
    df: object
    ddf: object


def _arc_grid(parents):
    """The arc-table nodes of a corner's parent profiles, 2049 over the widest
    parent's [-width, width], and every parent's f' there, one row each."""
    width = max(p.width for p in parents)
    xi = np.linspace(-width, width, _ARC_GRID)
    return xi, np.array([p.df(xi) for p in parents])


def make_profile(slope: float, width: float) -> CornerProfile:
    """Corner profile by mollification: f = (slope*|.|) convolved with rho_width.

    Convolving the corner graph with the standard compactly supported even
    mollifier gives a smooth convex function that matches slope*|x| exactly
    for |x| >= width, with f(0) = slope*width*m0 (m0 the mollifier's first
    absolute moment); everything evaluates in closed form through the
    tabulated mollifier integrals.
    """
    if width <= 0.0:
        raise InvalidWidth(f"profile width must be positive, got {float(width)!r}")
    a = float(slope)
    w = float(width)
    if a <= 0.0:
        raise ValueError("corner slope must be positive")
    m = standard_mollifier()

    def f(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        u = np.clip(ax / w, 0.0, 1.0)
        inner = a * (ax * (2.0 * m.phi(u) - 1.0) - 2.0 * w * m.psi(u))
        return np.where(ax >= w, a * ax, inner)

    def df(x):
        x = np.asarray(x, dtype=float)
        u = np.clip(np.abs(x) / w, 0.0, 1.0)
        inner = a * (2.0 * m.phi(u) - 1.0)
        return np.sign(x) * np.where(np.abs(x) >= w, a, inner)

    def ddf(x):
        x = np.asarray(x, dtype=float)
        u = np.abs(x) / w
        return np.where(u >= 1.0, 0.0, 2.0 * a * m.density(np.clip(u, 0.0, 1.0)) / w)

    return CornerProfile(slope=a, width=w, f=f, df=df, ddf=ddf)


def corner_slope(e_in, e_out) -> float:
    """Graph slope of a corner with incoming/outgoing unit edge directions.

    The interior angle theta satisfies slope = tan((pi - theta)/2).
    """
    num = np.linalg.norm(np.asarray(e_out) - np.asarray(e_in))
    den = np.linalg.norm(np.asarray(e_out) + np.asarray(e_in))
    return float(num / den)


# ---------------------------------------------------------------------------
# the smoothing family
# ---------------------------------------------------------------------------


class _FamilyCurve(TableCurve):
    """Normalized slice: homothety of the constant-speed gamma_s to length 1."""

    kind = "smoothed_polygon"
    strictly_convex = False

    def __init__(self, family: "SmoothingFamily", s: float):
        self.family = family
        self.s = float(s)

    def position(self, q):
        return self.family._positions([self.s], q)[0]

    def tangent(self, q):
        return self.family._eval([self.s], q, "tan")[0]

    def curvature(self, q):
        return self.family._eval([self.s], q, "kappa")[0] * self.family.length_at(self.s)

    def native_frame(self, t):
        return self.position(t), self.tangent(t), np.ones(np.shape(t))

    def native_curvature(self, t):
        return self.curvature(t)


def _mix(w, values):
    """sum_j w[..., j] values[j], started from its first term: a weight of 1
    changes no bit, and -0.0 stays -0.0."""
    out = w[..., 0] * values[0]
    for j in range(1, len(values)):
        out += w[..., j] * values[j]
    return out


class _Rows:
    """k sets of corner profiles on one family's corners: at corner i, row r
    is the profile sum_j weights[r, j] parents[i][j], and every layout value
    that depends on the profiles has a leading axis of k.

    A family's own profiles are one row of one parent with weight 1; the
    blends (1 - t) a + t b of two families at k values of t are k rows of
    two parents.  ``grids`` holds each corner's `_arc_grid` (built here when
    not given): one (k, 2049) pass there gives every row's arc table, from
    the parents' f' mixed as ``profile`` mixes them.  ``arcs`` (k, n) holds
    the profile arc lengths; the widths, and the geometry that depends on
    them, are the family's.
    """

    def __init__(self, fam: "SmoothingFamily", parents, weights, grids=None):
        self.parents = parents
        self.weights = weights
        self.tables = [
            (xi, _cumulative(xi, np.sqrt(1.0 + _mix(weights[:, None, :], dfs) ** 2)))
            for xi, dfs in grids or map(_arc_grid, parents)
        ]
        self.arcs = arcs = np.stack([arc[:, -1] for _, arc in self.tables], axis=-1)
        n = fam.n_corners
        j = fam.mark_edge
        self.deltas = 2.0 * fam.widths * np.hypot(1.0, [p[0].slope for p in parents]) - arcs
        # each row sums its own defects, as a family of one would
        self.total_delta = np.array([row.sum() for row in self.deltas])
        # d/ds of the piece starts and of the mark's arc position; the piece
        # lengths (see layout) are affine in s
        rates = np.empty(arcs.shape[:-1] + (2 * n,))
        rates[..., 0::2] = arcs
        rates[..., 1::2] = -fam._edge_cut
        self.start_rates = np.zeros(arcs.shape[:-1] + (2 * n + 1,))
        np.cumsum(rates, axis=-1, out=self.start_rates[..., 1:])
        self.mark_rate = self.start_rates[:, 2 * j + 1] - fam.cut[j]
        self._base_length = fam.base_length
        self._edge_len = fam.edge_len
        self._edge_cut = fam._edge_cut
        self._mark = (j, fam.mark_offset, fam.cut[j])

    def xi_of_arc(self, i, row, arc):
        """Invert corner i's graph arc length, measured from x = -width, on
        each point's own row: a table is piecewise linear and increasing, so
        its inverse interpolates on the swapped nodes, and arcs outside
        [0, arc length] clamp to the ends."""
        xi_grid, arc_grid = self.tables[i]
        xi = np.empty_like(arc)
        for r in np.unique(row):
            m = row == r
            xi[m] = np.interp(arc[m], arc_grid[r], xi_grid)
        return xi

    def profile(self, i, row, name, x):
        """Corner i's f, df or ddf (``name``) at the points x, each on its own row."""
        return _mix(self.weights[row], [getattr(p, name)(x) for p in self.parents[i]])

    def length_at(self, s):
        """L(s) of every row at every scale of the 1-D s, shape (k, len(s))."""
        return self._base_length - s * self.total_delta[:, None]

    def layout(self, s):
        """Piece lengths (k, S, 2n) and the mark's arc position from the cycle
        start (start of corner 0), shape (k, S), at every scale of the 1-D s.

        Piece layout: [corner 0, edge 0, corner 1, edge 1, ...] with corner i
        covering vertex i from M_i (on edge i-1) to N_i (on edge i).  Each row
        and scale sums its own pieces, so the bits are those of one call per
        row and scale.
        """
        j, offset, cut = self._mark
        k, n2 = self.arcs.shape[0], 2 * self.arcs.shape[1]
        lengths = np.empty((k, s.size, n2))
        lengths[..., 0::2] = s[:, None] * self.arcs[:, None, :]
        lengths[..., 1::2] = self._edge_len - s[:, None] * self._edge_cut
        head = np.array([row[: 2 * j + 1].sum() for row in lengths.reshape(-1, n2)]).reshape(k, s.size)
        return lengths, head + offset - s * cut


class SmoothingFamily:
    """Polygon plus one corner profile per vertex, generating gamma_s, s in (0, 1]."""

    def __init__(self, polygon: PolygonSpec, profiles: list[CornerProfile]):
        self.polygon = polygon
        self.profiles = profiles
        V = polygon.vertices
        n = len(V)
        if len(profiles) != n:
            raise ValueError("need one profile per vertex")
        self.edge_len = polygon.edge_lengths
        self.edge_dir = polygon.edge_dirs
        # corner frames: x along the bisector of the edge directions, y inward
        slopes = []
        self.x_hat = np.empty_like(V)
        self.y_hat = np.empty_like(V)
        for i in range(n):
            e_in = self.edge_dir[i - 1]
            e_out = self.edge_dir[i]
            a = corner_slope(e_in, e_out)
            if abs(a - profiles[i].slope) > 1e-9:
                raise ValueError(
                    f"profile slope {profiles[i].slope!r} does not match corner {i} slope {a!r}"
                )
            slopes.append(a)
            xh = e_in + e_out
            xh /= np.linalg.norm(xh)
            yh = e_out - e_in
            yh /= np.linalg.norm(yh)
            self.x_hat[i] = xh
            self.y_hat[i] = yh
        self.slopes = np.array(slopes)
        self.widths = np.array([p.width for p in profiles])
        # distance along each adjacent edge consumed by the corner at s = 1
        self.cut = self.widths * np.hypot(1.0, self.slopes)
        for i in range(n):
            adj = min(self.edge_len[i - 1], self.edge_len[i])
            if self.widths[i] > adj / 2.0:
                raise InvalidWidth(
                    f"width {float(self.widths[i])!r} exceeds half the shortest edge at corner {i}"
                )
        margin = 1.0 + 1e-3
        for i in range(n):
            if margin * (self.cut[i] + self.cut[(i + 1) % n]) >= self.edge_len[i]:
                raise InvalidWidth(f"corner neighborhoods collide on edge {i}")
        self.base_length = float(self.edge_len.sum())
        self.center = V.mean(axis=0)
        # locate the mark on the polygon boundary
        cums = polygon.edge_starts
        t = polygon.mark * self.base_length
        j = int(np.clip(np.searchsorted(cums, t, side="right") - 1, 0, n - 1))
        self.mark_edge = j
        self.mark_offset = float(t - cums[j])
        if self.mark_offset <= self.cut[j] or self.mark_offset >= self.edge_len[j] - self.cut[(j + 1) % n]:
            raise MarkInCorner(
                "marked point lies inside a corner neighborhood at s = 1; "
                "use a shifted mark and pass to the limit"
            )
        # distance along each edge consumed by its two corners at s = 1
        self._edge_cut = self.cut + np.roll(self.cut, -1)

    @functools.cached_property
    def _rows(self) -> _Rows:
        """The family's own profiles, one row of one parent per corner with
        weight 1; built on first use, so a family that only lends its
        geometry to a stack of blends builds no arc table."""
        return _Rows(self, [(p,) for p in self.profiles], np.ones((1, 1)))

    @property
    def profile_arcs(self):
        """Graph length of each corner profile over [-width, width]."""
        return self._rows.arcs[0]

    @property
    def deltas(self):
        """Length defect of each corner profile's graph against the corner graph."""
        return self._rows.deltas[0]

    @property
    def total_delta(self) -> float:
        return float(self._rows.total_delta[0])

    @property
    def n_corners(self) -> int:
        return len(self.polygon.vertices)

    def length_at(self, s: float) -> float:
        """L(s) = L_K - s * sum(delta_i), affine in the scale."""
        return self.base_length - s * self.total_delta

    def scale_factor(self, s: float) -> float:
        return 1.0 / self.length_at(s)

    def _eval(self, scales, q, want, rows=None):
        """Gathered piecewise evaluation; want in {'pos', 'tan', 'kappa', 'rate'}.

        Evaluates every scale of the 1-D array ``scales`` at every q in one
        pass: the result has shape (len(scales),) + q.shape, plus a last
        axis of 2 except for 'kappa'.  ``rows`` is a stack of k profile sets
        on this family's corners (`_Rows`), which then replace the family's
        own stack of one and give the result a leading axis of k.  Row by
        row, every point is first evaluated as an edge point, all pieces and
        scales in one fancy-indexed expression per coordinate; the corner
        points of all rows are then overwritten by one profile call per
        corner that holds any.  Each point goes through the floating-point
        operations of a one-scale, one-profile call in the same order, so
        the bits do not depend on the batch.

        'rate' is d/ds at fixed q of the normalized slice C + (pos - C) / L,
        from the raw position and its rate in one pass: an edge point moves
        along its edge, a corner point x = s xi(loc/s), y = s f(xi) with
        d xi/d(arc) = 1/sqrt(1 + f'^2), the offsets move with the piece
        starts and the mark, and L' = -sum(delta_i).
        """
        stack = self._rows if rows is None else rows
        s = np.asarray(scales, dtype=float)
        q = np.asarray(q, dtype=float)
        n = self.n_corners
        k, S = stack.total_delta.size, s.size
        L = stack.length_at(s)
        lengths, mark = stack.layout(s)
        # the piece starts; a piece starts at the sum of the lengths before it
        starts = np.zeros((k, S, 2 * n))
        np.cumsum(lengths[..., :-1], axis=-1, out=starts[..., 1:])
        qr = np.mod(q.ravel(), 1.0)
        Q = qr.size
        # per piece, the start and direction of its edge (piece p lies on
        # edge p // 2 when p is odd), and the flat index of each scale's row
        edge_start = np.repeat(self.polygon.vertices + (s[:, None] * self.cut)[..., None] * self.edge_dir, 2, axis=1)
        edge_dir = np.repeat(self.edge_dir, 2, axis=0)
        row_key = 2 * n * np.arange(S)[:, None]
        out = np.zeros((k, S, Q)) if want == "kappa" else np.empty((k, S, Q, 2))
        if want == "rate":
            lam, dlam = 1.0 / L, stack.total_delta[:, None] / (L * L)
            cut = np.repeat(self.cut, 2)
        # each row's corner points: flat index, piece, loc and (for 'rate') dloc
        corner_points = []
        ir = np.empty((S, Q), dtype=np.intp)
        for r in range(k):
            Lr = L[r][:, None]
            arc = qr * Lr + mark[r][:, None]
            # raw = qr L + mark lies in [0, 2 L), so np.mod(raw, L) is raw - L
            # where raw >= L, exact by Sterbenz, and raw - 0 elsewhere
            wrap = arc >= Lr
            arc -= Lr * wrap
            # the count of interior piece starts at or below the arc is the
            # piece, from 0 to 2n - 1
            for a in range(S):
                ir[a] = np.searchsorted(starts[r, a, 1:], arc[a], side="right")
            key = ir + row_key
            loc = arc - starts[r].ravel()[key]
            at = np.flatnonzero((ir & 1) == 0)
            point = [at + r * S * Q, ir.ravel()[at], loc.ravel()[at]]
            if want == "rate":
                # the arc is raw - wraps L; the mark and the piece starts move affinely
                dloc = (qr - wrap) * -stack.total_delta[r] + stack.mark_rate[r] - stack.start_rates[r][ir]
                point.append(dloc.ravel()[at])
            corner_points.append(point)
            if want == "kappa":
                continue
            # every point as an edge point first; the corner points are
            # overwritten below
            for c in (0, 1):
                d = edge_dir[:, c][ir]
                if want == "tan":
                    out[r, ..., c] = d
                    continue
                pos = edge_start[..., c].ravel()[key]
                if want == "pos":
                    np.add(pos, loc * d, out=out[r, ..., c])
                else:
                    pos += loc * d
                    rate = (cut[ir] + dloc) * d
                    out[r, ..., c] = dlam[r][:, None] * (pos - self.center[c]) + lam[r][:, None] * rate
        flat = out.reshape((k * S * Q,) + out.shape[3:])
        corners, piece, loc, *dloc_at = (np.concatenate(v) for v in zip(*corner_points))
        corner_of = piece >> 1
        V = self.polygon.vertices
        for i in np.flatnonzero(np.bincount(corner_of, minlength=n)):
            sel = corner_of == i
            m = corners[sel]
            row, ka = np.divmod(m // Q, S)
            sc = s[ka]
            u = loc[sel] / sc
            xi = stack.xi_of_arc(i, row, u)
            if want == "kappa":
                flat[m] = stack.profile(i, row, "ddf", xi) / (sc * (1.0 + stack.profile(i, row, "df", xi) ** 2) ** 1.5)
                continue
            if want == "tan":
                fp = stack.profile(i, row, "df", xi)
                norm = np.sqrt(1.0 + fp * fp)
                flat[m] = (self.x_hat[i][None, :] + fp[:, None] * self.y_hat[i][None, :]) / norm[:, None]
                continue
            fx = stack.profile(i, row, "f", xi)
            x = sc * xi
            y = sc * fx
            pos = V[i] + x[:, None] * self.x_hat[i] + y[:, None] * self.y_hat[i]
            if want == "pos":
                flat[m] = pos
                continue
            fp = stack.profile(i, row, "df", xi)
            # s times d xi/ds, with d(loc/s)/ds = (dloc - loc/s) / s
            s_dxi = (dloc_at[0][sel] - u) / np.sqrt(1.0 + fp * fp)
            raw_rate = (xi + s_dxi)[:, None] * self.x_hat[i] + (fx + fp * s_dxi)[:, None] * self.y_hat[i]
            flat[m] = dlam[row, ka][:, None] * (pos - self.center) + lam[row, ka][:, None] * raw_rate
        out = out.reshape((k,) + s.shape + q.shape + out.shape[3:])
        return out[0] if rows is None else out

    def _positions(self, scales, q, rows=None):
        """Normalized slice positions at every scale of the 1-D ``scales``.

        Row k is ``curve(scales[k]).position(q)``, from one gathered kernel
        call; the scales are not checked.  With ``rows`` (see ``_eval``) the
        result gains a leading axis, one entry per profile set, normalized in
        place by that set's own lengths.
        """
        scales = np.asarray(scales, dtype=float)
        stack = self._rows if rows is None else rows
        lam = 1.0 / stack.length_at(scales)
        if rows is None:
            lam = lam[0]
        pos = self._eval(scales, q, "pos", rows)
        lam = lam.reshape(lam.shape + (1,) * (pos.ndim - 1 - lam.ndim))
        # C + lam (pos - C), coordinate by coordinate
        for c in (0, 1):
            pc = pos[..., c]
            pc -= self.center[c]
            pc *= lam
            pc += self.center[c]
        return pos

    def rate(self, s, q):
        """d/ds of the normalized slice ``curve(s).position(q)`` at fixed q.

        The slice is C + lam (gamma_s - C) with lam = 1/L(s) and L affine in
        s, so the rate is lam' (gamma_s - C) + lam d(gamma_s)/ds.
        """
        return self._eval([s], q, "rate")[0]

    def curve(self, s: float) -> TableCurve:
        """Normalized slice: length-1, arc-length parametrized, convex.

        Raises ValueError unless s lies in (0, 1].
        """
        _check_scales(s)
        return _FamilyCurve(self, s)

    def edge_speed_bound(self) -> float:
        """Uniform on-edge bound 2 L_K sum(delta) / (L_K - sum(delta))."""
        return 2.0 * self.base_length * self.total_delta / (self.base_length - self.total_delta)


def family_from_polygon(polygon: PolygonSpec, width: float | None = None) -> SmoothingFamily:
    """Build the smoothing family with a mollified profile at every corner.

    The default width is min(0.01, shortest edge / 4), which keeps the
    corner neighborhoods disjoint for every s <= 1.
    """
    dirs = polygon.edge_dirs
    if width is None:
        width = min(0.01, float(polygon.edge_lengths.min()) / 4.0)
    if width <= 0.0:
        raise InvalidWidth(f"profile width must be positive, got {float(width)!r}")
    profiles = [make_profile(corner_slope(dirs[i - 1], dirs[i]), width) for i in range(len(dirs))]
    return SmoothingFamily(polygon, profiles)


# ---------------------------------------------------------------------------
# speeds, tails during s -> 0, profile independence
# ---------------------------------------------------------------------------


def family_speed(fam: SmoothingFamily, s: float, q_nodes: int = 4096) -> float:
    """max_q ||d(normalized gamma_s)/ds|| over q = j / q_nodes, from the closed-form ``rate``."""
    return float(_family_speeds(fam, [s], q_nodes)[0])


def _family_speeds(fam: SmoothingFamily, scales, q_nodes: int):
    """`family_speed` at every scale of the 1-D ``scales``, from one gathered rate call."""
    q = np.arange(q_nodes) / q_nodes
    return np.linalg.norm(fam._eval(scales, q, "rate"), axis=-1).max(axis=-1)


def _check_scales(scales):
    """Raise ValueError unless every scale lies in (0, 1], where the family is defined."""
    scales = np.asarray(scales, dtype=float)
    if not np.all((scales > 0.0) & (scales <= 1.0)):
        raise ValueError("scale must lie in (0, 1]")
    return scales


@dataclass
class CauchyTailReport:
    """Tail integral of the family speed on a geometric scale grid.

    ``partial_sums`` are the trapezoid sums down to each node;
    ``corrected`` adds the first-order remainder estimate s_k * speed(s_k);
    ``value`` is the final corrected sum.
    """

    nodes: np.ndarray
    speeds: np.ndarray
    increments: np.ndarray
    partial_sums: np.ndarray
    corrected: np.ndarray
    value: float

    def increments_decreasing(self) -> bool:
        """Each trapezoid increment is smaller than the one above it."""
        return bool(np.all(np.diff(self.increments) < 0))

    def closes(self, tol: float) -> bool:
        """The last corrected step is below ``tol`` times the tail value."""
        return bool(abs(self.corrected[-1] - self.corrected[-2]) < tol * self.value)

    def to_json(self):
        return {
            "nodes": self.nodes.tolist(),
            "speeds": self.speeds.tolist(),
            "partial_sums": self.partial_sums.tolist(),
            "corrected": self.corrected.tolist(),
            "value": self.value,
        }


def cauchy_tail(fam: SmoothingFamily, s0: float, levels: int = 8, q_nodes: int = 4096) -> CauchyTailReport:
    """Approximate int_0^s0 family_speed ds on the dyadic grid s0 * 2^-k, 0 < s0 <= 1.

    The (levels + 1) x q_nodes slice points are checked against the cell
    budget before any is evaluated.
    """
    _check_scales(s0)
    check_budget((levels + 1) * q_nodes, f"{levels + 1} levels x {q_nodes} nodes rate grid")
    nodes = s0 * 0.5 ** np.arange(levels + 1)
    speeds = _family_speeds(fam, nodes, q_nodes)
    inc = 0.5 * (speeds[:-1] + speeds[1:]) * (nodes[:-1] - nodes[1:])
    partial = np.concatenate([[0.0], np.cumsum(inc)])
    corrected = partial + nodes * speeds
    return CauchyTailReport(
        nodes=nodes,
        speeds=speeds,
        increments=inc,
        partial_sums=partial,
        corrected=corrected,
        value=float(corrected[-1]),
    )


INDEPENDENCE_SCALES = (0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125)


def slope_is_linear(slope: float) -> bool:
    """The independence certificate's window: a log-log slope in [0.9, 1.1] reads as O(s)."""
    return bool(0.9 <= slope <= 1.1)


def _ordered_families(fam_a: SmoothingFamily, fam_b: SmoothingFamily):
    """(lower, upper, coincide): the pair ordered pointwise, corner by corner.

    ``coincide`` is true when every corner's two profiles agree to 1e-14.
    """
    if fam_a.polygon is not fam_b.polygon and not np.allclose(
        fam_a.polygon.vertices, fam_b.polygon.vertices
    ):
        raise ValueError("families must share the polygon")
    xs = np.linspace(-1.0, 1.0, 257)
    order = []
    coincide = True
    for pa, pb in zip(fam_a.profiles, fam_b.profiles):
        grid = xs * max(pa.width, pb.width)
        d = pb.f(grid) - pa.f(grid)
        coincide = coincide and bool(np.all(np.abs(d) <= 1e-14))
        if np.all(d >= -1e-14):
            order.append(+1)
        elif np.all(d <= 1e-14):
            order.append(-1)
        else:
            raise ValueError("corner profiles are not pointwise ordered")
    if all(o <= 0 for o in order):
        fam_a, fam_b = fam_b, fam_a
    elif not all(o >= 0 for o in order):
        raise ValueError("profile ordering differs between corners")
    return fam_a, fam_b, coincide


def _independence_gaps(fam_a, fam_b, scales, t_nodes, q_nodes):
    """Independence gap at every scale from one sweep over the blend nodes
    (see `profile_independence_gap` for the cost and the memory)."""
    scales = _check_scales(scales)
    tq, tw = simpson_nodes(t_nodes)
    q = np.arange(q_nodes) / q_nodes
    h = 1.0 / (4.0 * (t_nodes - 1))
    pairs = list(zip(fam_a.profiles, fam_b.profiles))
    if any(abs(a.slope - b.slope) > 1e-12 for a, b in pairs):
        raise ValueError("blending profiles with different slopes")
    # a blend is as wide as its wider parent, so every blend has that family's
    # widths, cuts and mark, and its width checks
    wide = SmoothingFamily(fam_a.polygon, [a if a.width >= b.width else b for a, b in pairs])
    grids = [_arc_grid(pair) for pair in pairs]
    totals = np.zeros(len(scales))
    for t, w in zip(tq, tw):
        # one-sided second-order stencils at the ends, central inside
        if t < h:
            ts, stencil = (t, t + h, t + 2 * h), lambda p: -3.0 * p[0] + 4.0 * p[1] - p[2]
        elif t > 1.0 - h:
            ts, stencil = (t, t - h, t - 2 * h), lambda p: 3.0 * p[0] - 4.0 * p[1] + p[2]
        else:
            ts, stencil = (t + h, t - h), lambda p: p[0] - p[1]
        ts = np.array(ts)
        blends = _Rows(wide, pairs, np.stack([1 - ts, ts], axis=-1), grids)
        d = stencil(wide._positions(scales, q, blends)) / (2 * h)
        # the norm's sum of squares; the root of the max is the max of the roots
        totals += w * np.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).max(axis=-1))
    return totals


def profile_independence_gap(
    fam_a: SmoothingFamily,
    fam_b: SmoothingFamily,
    s: float,
    t_nodes: int = 17,
    q_nodes: int = 4096,
) -> float:
    """int_0^1 max_q ||d gamma(t) / dt|| dt across the monotone profile blend.

    ``t`` interpolates the corner profiles of the two families (pointwise
    ordered; families are swapped if needed so the lower one comes first).
    The value is O(s) as s -> 0, which `independence_slope` certifies.

    Cost: the t derivative takes a 2- or 3-point stencil at each of the
    ``t_nodes`` Simpson nodes, 2 t_nodes + 2 blends in all (36 at the
    default 17).  Each node's blends are one `_Rows` stack of k rows of the
    two parents, weighted (1 - t, t): one (k, 2049) pass per corner gives
    their arc tables from the parents' f' on a grid that the sweep computes
    once per corner, and one gathered kernel call evaluates every blend at
    every scale, with one call of each parent's f per corner for the corner
    points of all of them.  The two families and the wide one whose geometry
    the blends share build no arc table of their own.  The same sweep serves
    every scale of `independence_slope`, so a call with six scales builds no
    more tables, and makes no more kernel calls, than a call with one.
    Memory: the kernel evaluates a node blend by blend into one (k, S, Q, 2)
    array and normalizes it in place, and nothing the sweep builds outlives
    it.  On the `landscape` benchmark's rotated quadrilaterals (q_nodes 2048,
    six scales, 2 vCPUs) a call takes about 31 ms, against 67 ms with one
    blended family per stencil t, and traces a peak of 2.1 MB.
    """
    lower, upper, _ = _ordered_families(fam_a, fam_b)
    return _independence_gaps(lower, upper, [s], t_nodes, q_nodes)[0]


def independence_slope(
    fam_a: SmoothingFamily,
    fam_b: SmoothingFamily,
    scales=INDEPENDENCE_SCALES,
    t_nodes: int = 17,
    q_nodes: int = 4096,
):
    """Log-log slope of the independence gap over the scale sweep.

    Raises ValueError when the two families have the same profile at every
    corner: their gaps are roundoff, and a line through them means nothing.
    """
    lower, upper, coincide = _ordered_families(fam_a, fam_b)
    if coincide:
        raise ValueError("the two families have the same profile at every corner; their gaps are roundoff")
    scales = np.asarray(scales, dtype=float)
    gaps = _independence_gaps(lower, upper, scales, t_nodes, q_nodes)
    slope = float(np.polyfit(np.log(scales), np.log(gaps), 1)[0])
    return slope, gaps


def restricted_path(fam: SmoothingFamily, s_lo: float, s_hi: float) -> TablePath:
    """The family restricted to [s_lo, s_hi], reparametrized to [0, 1].

    The velocity is the family's closed-form ``rate`` times s_hi - s_lo; a
    slice's native parameter is q itself.
    """
    if not 0.0 < s_lo < s_hi <= 1.0:
        raise ValueError("need 0 < s_lo < s_hi <= 1")
    width = s_hi - s_lo

    def build(u):
        return fam.curve(s_lo + u * width)

    def vel(u, t):
        return width * fam.rate(s_lo + u * width, t)

    return TablePath(build, vel, tag="smoothing_restriction")


# ---------------------------------------------------------------------------
# lifting a merely convex slice into the strictly convex class
# ---------------------------------------------------------------------------


# the lift reads a slice's support function at _LIFT_ANGLES normal angles
# and anchors its mark on a grid of _ANCHOR_NODES normal angles
_LIFT_ANGLES = 4096
_ANCHOR_NODES = 4096


def _support_function(fam: SmoothingFamily, s: float, theta):
    """Support function of the normalized slice at scale s about ``fam.center``.

    Every edge point is a convex combination of its corners' end points, so
    h(theta) is the max over the corners of the max over each corner graph
    V + s xi x_hat + s f(xi) y_hat, xi in [-w, w].  With e = e_theta and
    n_hat = rotate_cw(x_hat) = -y_hat the outward bisector normal, the graph
    projects to <e, V - C> + s (xi <e, x_hat> - f(xi) <e, n_hat>).  Where
    <e, n_hat> > 0 that is concave in xi, maximal where
    f'(xi) = <e, x_hat> / <e, n_hat>: inside the corner's normal cone (that
    ratio in (-slope, slope)) one stacked ``newton_bisect`` solves it, the
    residual increasing because f'' >= 0, with one profile call per corner
    as in ``_eval``.  Everywhere else the max is at an end, xi = +-w by the
    sign of <e, x_hat> (f is even).  The value is exact to solver tolerance,
    for any corner profile.
    """
    theta = np.asarray(theta, dtype=float)
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    ex = e @ fam.x_hat.T
    en = e @ rotate_cw(fam.x_hat).T
    w = fam.widths
    xi = np.where(ex >= 0.0, w, -w)
    # |<e, x_hat>| < slope <e, n_hat> holds only where <e, n_hat> > 0, the
    # one place the slope ratio is formed
    cone = np.flatnonzero(np.abs(ex) < fam.slopes * en)
    corner = cone % fam.n_corners
    ratio = ex.ravel()[cone] / en.ravel()[cone]

    def fun(x, idx):
        r = np.empty_like(x)
        dr = np.empty_like(x)
        of = corner[idx]
        for i in np.flatnonzero(np.bincount(of, minlength=fam.n_corners)):
            m = of == i
            prof = fam.profiles[i]
            r[m] = prof.df(x[m]) - ratio[idx[m]]
            dr[m] = prof.ddf(x[m])
        return r, dr

    half = w[corner]
    xi.flat[cone] = newton_bisect(fun, -half, half, ratio / fam.slopes[corner] * half, increasing=True)
    fx = np.stack([prof.f(xi[:, i]) for i, prof in enumerate(fam.profiles)], axis=1)
    h = e @ (fam.polygon.vertices - fam.center).T + s * (xi * ex - fx * en)
    return h.max(axis=1) / fam.length_at(s)


def _nearest_native(table: TableCurve, target) -> float:
    """Normal angle of the point of a support-function table nearest ``target``.

    The argmin over _ANCHOR_NODES uniform angles is refined by a bracketed
    Newton on g = <gamma - T, tau>, which vanishes at the nearest point, with
    g' = rho - <gamma - T, e_theta> in closed form (tau' = -e_theta).
    """
    step = TWO_PI / _ANCHOR_NODES
    grid = step * np.arange(_ANCHOR_NODES)
    j = int(np.argmin(np.linalg.norm(table.native_frame(grid)[0] - target, axis=-1)))

    def fun(theta, idx):
        pos, tan, rho = table.native_frame(theta)
        gap = pos - target
        return np.sum(gap * tan, axis=-1), rho - np.sum(gap * rotate_cw(tan), axis=-1)

    return float(newton_bisect(fun, grid[j] - step, grid[j] + step, grid[j], increasing=True))


def _jackson_coefficients(order: int, n: int):
    """Fourier coefficients of the (nonnegative) Jackson kernel of the given order."""
    phi = TWO_PI * np.arange(n) / n
    small = 1e-9
    x = np.where(np.abs(np.sin(phi / 2.0)) < small, small, np.sin(phi / 2.0))
    kern = (np.sin(order * phi / 2.0) / x) ** 4
    kern[0] = float(order) ** 4
    coef = np.fft.fft(kern)
    return np.real(coef) / np.real(coef[0])


def _jackson_spec(h, eps: float) -> FourierSupportSpec:
    """Support spec of samples h at uniform normal angles, smoothed, plus a disc.

    The Jackson kernel has order min(420, max(48, 0.9 / eps)) and the spec
    keeps twice that many modes; the disc has radius eps/2.
    """
    n = h.size
    order = int(min(420, max(48, 0.9 / eps)))
    coef = np.fft.fft(h) / n * _jackson_coefficients(order, n)
    keep = 2 * order
    cos = 2.0 * np.real(coef[1 : keep + 1])
    sin = -2.0 * np.imag(coef[1 : keep + 1])
    return FourierSupportSpec(float(np.real(coef[0])) + eps / 2.0, cos, sin)


def positive_curvature_lift(fam: SmoothingFamily, s: float, eps: float) -> TableCurve:
    """Round a normalized slice into the strictly convex class.

    The slice's exact support function (``_support_function``, at 4096
    normal angles) is smoothed by a nonnegative Jackson kernel (keeping the
    curvature measure nonnegative), and a disc of radius eps/2 is added
    before renormalizing to length 1, giving a radius-of-curvature floor of
    about eps/2 / (1 + pi eps).  The C^0 distance to the slice stays below
    2 eps.  The mark is the lift's point nearest the slice's marked point,
    found in the lift's normal angle, and its arc position is the closed-form
    arc length there, so no arc length is inverted.  eps = 0 returns the
    slice unchanged.  Raises ValueError unless s lies in (0, 1] and eps >= 0.
    """
    curve = fam.curve(s)
    if eps == 0.0:
        return curve
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    h = _support_function(fam, s, TWO_PI * np.arange(_LIFT_ANGLES) / _LIFT_ANGLES)
    built = build_fourier_table(_jackson_spec(h, eps))
    # the built table lives about the origin in the support frame; move it back
    table = rigid_motion(built, 0.0, fam.center)
    theta = _nearest_native(table, curve.position(0.0))
    return shift_mark(table, float(table.q_of_native(theta)))
