"""Billiard tables: closed convex plane curves of length 1 in arc-length parameter.

Every table is parametrized by q in [0,1) with the marked point at q = 0,
counterclockwise orientation and unit-speed parametrization.

Each table also has a native parameter t in which its geometry is closed
form: ``native_frame(t)`` returns (position, unit tangent, dq/dt) and
``native_curvature(t)`` the curvature without inverting arc length,
``q_of_native`` maps t to q in closed form and ``native_of_q`` is the
(possibly iterative) inverse.  Both maps are lifts: t advances by
``native_period`` when q advances by 1.  A table states its geometry once,
in t; ``TableCurve`` composes the arc-length API from it, so
``position(q)`` is ``native_frame(native_of_q(q))[0]``, ``tangent(q)`` its
second entry and ``curvature(q)`` ``native_curvature(native_of_q(q))``.
Only the tables whose native parameter is q itself (polygons and smoothed
slices) define the q-methods, where a position alone is cheaper than a
frame, and state the native ones through them.  The bounce solve of
:mod:`hoferbilliards.billiard` runs in t and hands its landing t to the
next bounce, so arc length is inverted only at the start points of a
trajectory.  The orbit search of :mod:`hoferbilliards.dynamics` runs its
Newton iteration in t as well: it inverts arc length once, on its seed
stack, reads each iterate's tuple from ``q_of_native``, and inverts once
more per converged candidate.  Concrete representations:

* ``DiscTable`` -- the round table of radius 1/(2*pi), all queries closed
  form; its native parameter is q itself.
* ``FourierTable`` -- built from a trigonometric support function h(theta);
  the native parameter is the outward normal angle theta, in which
  positions, tangents, the radius of curvature dq/dtheta and the cumulative
  arc length q(theta) are exact.  Only q -> theta is a guarded Newton solve.
  All of them, and the s-velocity of a support interpolation path, read
  one kernel, ``FourierSupportSpec._terms``.
* ``SampledCurve`` -- spectral (trigonometric-interpolation) representation of
  a smooth closed curve given by uniform samples; used for perturbed
  and reconstructed tables.  The native parameter is the raw sample
  parameter u, with closed-form cumulative arc length.  Its series are
  evaluated without a dense (points x modes) exp matrix, and on a uniform
  grid u = j/n by one inverse FFT.
* ``PolygonBoundary`` and the smoothed polygon slices of
  :mod:`hoferbilliards.smoothing` use q as their native parameter.

Both trigonometric kernels, ``_terms`` (a real matmul of weights built once
per spec) and ``_TrigSeries.evaluate`` (a complex one), read the powers of
e^(i phi) from ``_powers``, BLOCK_POINTS points at a time, so memory stays
bounded whatever the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._solve import newton_bisect
from .errors import CurvatureNotPositive

TWO_PI = 2.0 * np.pi

# Radius-of-curvature floor separating strictly convex tables from the
# merely convex ones (flat edges allowed).
CURVATURE_FLOOR = 1e-8

# points per block of both trigonometric kernels.  At a few modes a block's
# temporaries stay under glibc's 128 kB mmap threshold, reused from the heap;
# at the 513 modes of a sampled curve, freeing a block's 8.4 MB of powers
# raises glibc's dynamic mmap threshold, so later certificate temporaries
# come from the heap too (512 kB blocks, faster alone, made a `certify`
# benchmark run take 5-7x the page faults and run 15-40% slower).
BLOCK_POINTS = 1024


def _powers(phi, n):
    """(n, points) matrix of z^1 .. z^n, z = e^(i phi), for a 1-D array phi.

    One ``exp`` per point gives row 0; the rows are then filled by doubling,
    z^(b + j) = z^j z^b for the b rows already filled, so each step is one
    multiply of contiguous whole rows.
    """
    p = np.empty((n, phi.size), dtype=complex)
    np.exp(1j * phi, out=p[0])
    b = 1
    while b < n:
        np.multiply(p[: min(b, n - b)], p[b - 1], out=p[b : 2 * b])
        b *= 2
    return p


def rotate_cw(v):
    """Rotate plane vectors by -90 degrees: (x, y) -> (y, -x), last axis."""
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = -v[..., 0]
    return out


def circ_dist(a, b):
    """Distance on R/Z."""
    d = np.mod(np.asarray(a) - np.asarray(b), 1.0)
    return np.minimum(d, 1.0 - d)


class TableCurve:
    """Abstract closed convex curve of total length 1.

    position(q) is 1-periodic, tangent(q) is the unit derivative and
    curvature(q) >= 0 is the signed curvature (counterclockwise).
    ``strictly_convex`` marks membership in the class accepted by the
    billiard ball map.

    A subclass states its geometry once, in its native parameter:
    ``native_frame`` and ``native_curvature``, with ``native_of_q``,
    ``q_of_native`` and ``native_period`` when t is not q itself (the
    default is the identity t = q).  The arc-length API is composed here
    from them, one inversion ``native_of_q`` per call.  Tables whose native
    parameter is q may define the q-methods instead and state the native
    ones through them; there is no default in either direction, so a
    subclass that defines neither side raises NotImplementedError.
    """

    kind = "abstract"
    strictly_convex = False
    length = 1.0
    native_period = 1.0

    def position(self, q):
        return self.native_frame(self.native_of_q(q))[0]

    def tangent(self, q):
        return self.native_frame(self.native_of_q(q))[1]

    def curvature(self, q):
        return self.native_curvature(self.native_of_q(q))

    def normal(self, q):
        """Outward unit normal (tangent rotated by -90 degrees)."""
        return rotate_cw(self.tangent(q))

    def native_of_q(self, q):
        """Native parameter t at arc-length parameter q (any real array)."""
        return np.asarray(q, dtype=float)

    def q_of_native(self, t):
        """Arc-length parameter q at native parameter t, the inverse lift."""
        return np.asarray(t, dtype=float)

    def native_frame(self, t):
        """(position, unit tangent, dq/dt) at native parameter t."""
        raise NotImplementedError

    def native_curvature(self, t):
        """Curvature at native parameter t."""
        raise NotImplementedError


class DiscTable(TableCurve):
    """Circle of radius 1/(2*pi) centered at the origin, marked at angle 0."""

    kind = "disc"
    strictly_convex = True
    radius = 1.0 / TWO_PI

    @property
    def spec(self):
        """Support-function view of the disc (constant h = radius)."""
        return FourierSupportSpec(self.radius)

    def native_frame(self, t):
        ang = TWO_PI * np.asarray(t, dtype=float)
        c, s = np.cos(ang), np.sin(ang)
        pos = self.radius * np.stack([c, s], axis=-1)
        return pos, np.stack([-s, c], axis=-1), np.ones(ang.shape)

    def native_curvature(self, t):
        return np.full(np.shape(t), TWO_PI)


def disc_table() -> DiscTable:
    """The round table: boundary length 1, marked point at (1/(2*pi), 0)."""
    return DiscTable()


@dataclass
class FourierSupportSpec:
    """Support function h(theta) = c0 + sum_k (cos_k cos k theta + sin_k sin k theta).

    The radius of curvature of the associated convex body is h + h''; the
    spec is admissible when that stays positive.  First harmonics translate
    the body and do not affect curvature or length.

    Every evaluator (``h`` up to h'' = (rho - c0) - (h - c0), ``rho``,
    ``arclength``, ``sigma_rho``, ``boundary_point`` and
    ``FourierTable.native_frame``) reads one kernel, ``_terms``.
    """

    c0: float
    cos: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.cos = np.atleast_1d(np.asarray(self.cos, dtype=float))
        self.sin = np.atleast_1d(np.asarray(self.sin, dtype=float))
        n = max(self.cos.size, self.sin.size, 1)
        if self.cos.size != n:
            self.cos = np.pad(self.cos, (0, n - self.cos.size))
        if self.sin.size != n:
            self.sin = np.pad(self.sin, (0, n - self.sin.size))

    @property
    def harmonics(self):
        return np.arange(1, self.cos.size + 1)

    def scaled(self, factor: float) -> "FourierSupportSpec":
        return FourierSupportSpec(self.c0 * factor, self.cos * factor, self.sin * factor)

    def normalized(self) -> "FourierSupportSpec":
        """Uniform rescale so the boundary length 2*pi*c0 equals 1."""
        if self.c0 <= 0.0:
            raise CurvatureNotPositive("support function has nonpositive mean")
        return self.scaled(1.0 / (TWO_PI * self.c0))

    @cached_property
    def _weights(self):
        """Real (6, 2n) weights [Re w, -Im w] of the kernel rows, and the arclength constant.

        Row j of ``_terms`` is Re sum_k w_jk z^k = sum_k (Re w_jk cos k theta
        - Im w_jk sin k theta) for the complex weights w of h - c0, h',
        rho - c0, arclength - c0 theta less the constant
        sum_k (1 - k^2)/k sin_k, cos theta (1 on z^1) and sin theta (-i on
        z^1).  Stored real, the sums are one real matmul against the stacked
        Re and Im rows of the powers, about 4x faster at 8k points than the
        complex matmul of w with the powers.
        """
        k = self.harmonics.astype(float)
        a, b = self.cos, self.sin
        bend = 1.0 - k * k
        arc = bend / k
        one = (k == 1.0).astype(complex)
        w = np.stack([a - 1j * b, k * b + 1j * k * a, bend * (a - 1j * b), -arc * (b + 1j * a), one, -1j * one])
        return np.concatenate([w.real, -w.imag], axis=1), float(arc @ b)

    def _terms(self, theta):
        """Rows h - c0, h', rho - c0, arclength - c0 theta, cos theta, sin theta.

        The kernel every evaluator reads; shape (6,) + theta.shape.  Points
        go in blocks of BLOCK_POINTS; each block is one matmul of
        ``_weights`` on the stacked Re and Im rows of ``_powers(theta, n)``.
        """
        theta = np.asarray(theta, dtype=float)
        flat = theta.reshape(-1)
        w, arc0 = self._weights
        n = w.shape[1] // 2
        out = np.empty((6, flat.size))
        for a in range(0, flat.size, BLOCK_POINTS):
            p = _powers(flat[a : a + BLOCK_POINTS], n)
            out[:, a : a + BLOCK_POINTS] = w @ np.concatenate([p.real, p.imag])
        out[3] += arc0
        return out.reshape((6,) + theta.shape)

    def h(self, theta, deriv=0):
        """Evaluate h or its theta-derivatives (deriv in 0..2)."""
        if deriv not in (0, 1, 2):
            raise ValueError("deriv must be 0, 1 or 2")
        rows = self._terms(theta)
        if deriv == 0:
            return self.c0 + rows[0]
        if deriv == 1:
            return rows[1]
        return rows[2] - rows[0]

    def rho(self, theta):
        """Radius of curvature h + h''."""
        return self.c0 + self._terms(theta)[2]

    def arclength(self, theta):
        """Cumulative arc length int_0^theta rho, closed form."""
        theta = np.asarray(theta, dtype=float)
        return self.c0 * theta + self._terms(theta)[3]

    def sigma_rho(self, theta):
        """(arclength, rho) from one kernel evaluation."""
        theta = np.asarray(theta, dtype=float)
        rows = self._terms(theta)
        return self.c0 * theta + rows[3], self.c0 + rows[2]

    def boundary_point(self, theta):
        """Boundary point h*e_r + h'*e_t at outward normal angle theta."""
        return self._frame(theta)[0]

    def _frame(self, theta):
        """(boundary point, unit tangent, rho) at theta from one kernel evaluation."""
        rows = self._terms(theta)
        h = self.c0 + rows[0]
        hp = rows[1]
        c, s = rows[4], rows[5]
        pos = np.empty(c.shape + (2,))
        pos[..., 0] = h * c - hp * s
        pos[..., 1] = h * s + hp * c
        tan = np.empty_like(pos)
        np.negative(s, out=tan[..., 0])
        tan[..., 1] = c
        return pos, tan, self.c0 + rows[2]


class FourierTable(TableCurve):
    """Strictly convex table defined by a normalized support function.

    The native parameter is the outward normal angle theta: q(theta) is the
    closed-form cumulative arc length ``spec.arclength``, dq/dtheta the
    radius of curvature ``spec.rho`` and the boundary point
    ``spec.boundary_point``.  Only ``theta_of_q`` solves a Newton problem.
    """

    kind = "fourier_support"
    strictly_convex = True
    native_period = TWO_PI

    def __init__(self, spec: FourierSupportSpec):
        self.spec = spec

    def theta_of_q(self, q):
        """Invert the cumulative arc length; q may be any real array."""
        q = np.asarray(q, dtype=float)
        qr = np.mod(q, 1.0)
        wind = q - qr
        qflat = np.atleast_1d(qr).ravel()

        def fun(theta, idx):
            sig, rho = self.spec.sigma_rho(theta)
            return sig - qflat[idx], rho

        theta = newton_bisect(
            fun,
            lo=np.zeros_like(qr) - 1e-12,
            hi=np.full_like(qr, TWO_PI + 1e-12),
            seed=TWO_PI * qr,
            increasing=True,
        )
        return theta + TWO_PI * wind

    def native_of_q(self, q):
        return self.theta_of_q(q)

    def q_of_native(self, theta):
        return self.spec.arclength(theta)

    def native_frame(self, theta):
        return self.spec._frame(theta)

    def native_curvature(self, theta):
        return 1.0 / self.spec.rho(theta)


def build_fourier_table(spec: FourierSupportSpec) -> FourierTable:
    """Normalize a support spec to boundary length 1 and validate convexity.

    Raises CurvatureNotPositive when the radius of curvature h + h'' drops
    to the floor (1e-8) anywhere on a uniform grid of 4096 normal angles.
    """
    norm = spec.normalized()
    theta = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    rho = norm.rho(theta)
    m = float(rho.min())
    if not m > CURVATURE_FLOOR:  # a NaN radius fails too
        raise CurvatureNotPositive(
            f"radius of curvature reaches {m:.3e} (floor {CURVATURE_FLOOR:.0e})",
            where=float(theta[int(np.argmin(rho))]),
        )
    return FourierTable(norm)


class MarkShiftedTable(TableCurve):
    """Same curve with the marked point moved by r along the boundary."""

    def __init__(self, base: TableCurve, r: float):
        self.base = base
        self.shift = float(r)
        self.kind = base.kind
        self.strictly_convex = base.strictly_convex
        self.native_period = base.native_period

    def native_of_q(self, q):
        return self.base.native_of_q(np.asarray(q, dtype=float) + self.shift)

    def q_of_native(self, t):
        return self.base.q_of_native(t) - self.shift

    def native_frame(self, t):
        return self.base.native_frame(t)

    def native_curvature(self, t):
        return self.base.native_curvature(t)


def shift_mark(table: TableCurve, r: float) -> TableCurve:
    return MarkShiftedTable(table, r)


class RigidMotionTable(TableCurve):
    """Image of a table under a rotation plus translation, marking preserved."""

    def __init__(self, base: TableCurve, angle: float = 0.0, offset=(0.0, 0.0)):
        self.base = base
        self.angle = float(angle)
        self.offset = np.asarray(offset, dtype=float)
        c, s = np.cos(self.angle), np.sin(self.angle)
        self._rot = np.array([[c, -s], [s, c]])
        self.kind = base.kind
        self.strictly_convex = base.strictly_convex
        self.native_period = base.native_period

    def native_of_q(self, q):
        return self.base.native_of_q(q)

    def q_of_native(self, t):
        return self.base.q_of_native(t)

    def native_frame(self, t):
        pos, tan, dq_dt = self.base.native_frame(t)
        return pos @ self._rot.T + self.offset, tan @ self._rot.T, dq_dt

    def native_curvature(self, t):
        return self.base.native_curvature(t)


def rigid_motion(table: TableCurve, angle: float = 0.0, offset=(0.0, 0.0)) -> TableCurve:
    return RigidMotionTable(table, angle, offset)


# ---------------------------------------------------------------------------
# spectral representation of a smooth closed curve
# ---------------------------------------------------------------------------


class _TrigSeries:
    """Trigonometric interpolant of periodic complex samples.

    ``coef`` holds the coefficients c_k of sum_k c_k e^(2 pi i k u) for the
    contiguous frequencies ``k`` = -h .. h, h = m//2; for an even sample
    count m the Nyquist mode is split evenly between -m/2 and m/2, so the
    series of real samples stays real between the nodes.

    Every evaluation is a sum sum_k w_k e^(2 pi i k u) for some weight
    vector w (c_k times (2 pi i k)^deriv, or any other weights on the same
    frequencies), computed in one of two ways:

    * ``evaluate`` at arbitrary points: with z = e^(2 pi i (u mod 1)),
      sum_k w_k z^k = conj(z^(h+1)) sum_j w_j z^(j+1), j = k + h, so the
      powers z^1 .. z^(2h+1) of ``_powers`` serve every frequency, and a
      stack of weight vectors takes one complex matmul per block of
      BLOCK_POINTS points.
    * ``on_grid`` at the uniform points u = j/n: the weights are folded by
      k mod n, which is exact on the grid, and one inverse FFT returns all
      n values.
    """

    def __init__(self, samples: np.ndarray):
        m = samples.size
        coef = np.fft.fftshift(np.fft.fft(samples) / m)
        self.k = np.arange(-(m // 2), m // 2 + 1)
        if m % 2 == 0:
            coef = np.append(coef, 0.5 * coef[0])
            coef[0] *= 0.5
        self.coef = coef

    def weights(self, deriv=0):
        """Weights c_k (2 pi i k)^deriv of the deriv-th derivative."""
        return self.coef * (2j * np.pi * self.k) ** deriv

    def antiderivative(self):
        """(c_0, w, sum w) of a real series, whose integral from 0 is c_0 u + Re(sum_k w_k z^k - sum w).

        w_k = c_k / (2 pi i k), w_0 = 0, on the frequencies of the series, so
        ``evaluate`` takes w beside any other weights.
        """
        k = self.k
        w = np.zeros_like(self.coef)
        w[k != 0] = self.coef[k != 0] / (2j * np.pi * k[k != 0])
        return float(self.coef[k == 0][0].real), w, w.sum()

    def evaluate(self, u, weights):
        """sum_k w_k e^(2 pi i k u) for each weight column w; shape u.shape + weights.shape[1:]."""
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        phi = TWO_PI * np.mod(flat, 1.0)
        nk, h = self.k.size, -self.k[0]
        out = np.empty((flat.size,) + weights.shape[1:], dtype=complex)
        for a in range(0, flat.size, BLOCK_POINTS):
            p = _powers(phi[a : a + BLOCK_POINTS], nk)
            out[a : a + BLOCK_POINTS] = ((weights.T @ p) * np.conj(p[h])).T
        return out.reshape(u.shape + weights.shape[1:])

    def on_grid(self, n, deriv=0):
        """Values of the deriv-th derivative at u = j/n, j = 0 .. n-1, by one inverse FFT."""
        w = self.weights(deriv)
        folded = np.zeros(n, dtype=complex)
        np.add.at(folded, np.mod(self.k, n), w)
        return n * np.fft.ifft(folded)

    def __call__(self, u, deriv=0):
        return self.evaluate(u, self.weights(deriv))

    def with_derivative(self, u):
        """(f(u), f'(u)) from one shared power matrix."""
        both = self.evaluate(u, np.stack([self.weights(0), self.weights(1)], axis=1))
        return both[..., 0], both[..., 1]


def _signed_curvature(dz, ddz):
    """Signed curvature Im(conj(z') z'') / |z'|^3 of a plane curve z(u)."""
    return np.imag(np.conj(dz) * ddz) / np.abs(dz) ** 3


class SampledCurve(TableCurve):
    """Arc-length reparametrized, length-normalized spectral closed curve.

    Built from uniform samples of any smooth regular parametrization; the
    raw curve is trig-interpolated, its speed integrated in closed form from
    Fourier coefficients, and the arc-length inversion is a guarded Newton
    solve.  The curve is rescaled to length 1 by a homothety about its
    arc-length centroid.

    The native parameter is the raw sample parameter u (period 1): q(u) is
    the closed-form raw arc length times the scale, and the position and
    tangent share one power matrix with dq/du = |z'(u)| * scale.

    Evaluation (see ``_TrigSeries``): the speed and curvature on the m
    sample nodes come from inverse FFTs of z' and z''; off the nodes every
    query is one blocked power-matrix product.  The speed series has the
    frequencies of z, so each iterate of the arc-length Newton ``u_of_q``
    evaluates its residual (the ``antiderivative`` of the speed) and its
    derivative |z'| from one shared power matrix.  When the samples move
    with a parameter s, ``fixed_q_rate`` gives d/ds of the position at
    fixed q, again from one power matrix.
    """

    kind = "reconstructed_samples"

    def __init__(self, samples: np.ndarray, kind: str | None = None):
        z = np.asarray(samples[:, 0] + 1j * samples[:, 1])
        m = z.size
        self._z = _TrigSeries(z)
        dz = self._z.on_grid(m, 1)
        speed = np.abs(dz)
        if speed.min() <= 0.0:
            raise ValueError("raw parametrization is singular")
        speed_series = _TrigSeries(speed.astype(complex))
        # the speed series shares the frequencies of z, so one power matrix
        # serves both columns of the arc-length Newton (the raw arc length
        # and z')
        self._speed_coef = speed_series.coef
        self.raw_length, self._arc_w, self._arc_w0 = speed_series.antiderivative()
        self._newton_w = np.stack([self._arc_w, self._z.weights(1)], axis=1)
        self._curvature_w = np.stack([self._z.weights(1), self._z.weights(2)], axis=1)
        centroid = np.sum(z * speed) / np.sum(speed)
        self._center = centroid
        # node data of the s-rate of a moving-sample family (``fixed_q_rate``)
        self._nodes = (z, dz, speed)
        self._scale = 1.0 / self.raw_length
        if kind is not None:
            self.kind = kind
        kappa = _signed_curvature(dz, self._z.on_grid(m, 2))
        self.min_curvature = float(kappa.min() * self.raw_length)
        self.strictly_convex = bool(self.min_curvature > CURVATURE_FLOOR)

    def _arclength(self, u):
        """Cumulative raw arc length from parameter 0, closed form in coefficients."""
        u = np.asarray(u, dtype=float)
        osc = self._z.evaluate(u, self._arc_w) - self._arc_w0
        return self.raw_length * u + np.real(osc)

    def u_of_q(self, q):
        q = np.asarray(q, dtype=float)
        qr = np.mod(q, 1.0)
        qflat = np.atleast_1d(qr).ravel()

        def fun(u, idx):
            osc, dz = self._z.evaluate(u, self._newton_w).T
            arc = self.raw_length * u + np.real(osc - self._arc_w0)
            return arc * self._scale - qflat[idx], np.abs(dz) * self._scale

        return newton_bisect(
            fun,
            lo=qr - 0.75,
            hi=qr + 0.75,
            seed=qr,
            increasing=True,
        )

    def native_of_q(self, q):
        q = np.asarray(q, dtype=float)
        # u_of_q inverts q mod 1; the raw parameter winds with period 1 as well
        return self.u_of_q(q) + (q - np.mod(q, 1.0))

    def q_of_native(self, u):
        return self._arclength(u) * self._scale

    def native_frame(self, u):
        z, dz = self._z.with_derivative(u)
        z = self._center + self._scale * (z - self._center)
        speed = np.abs(dz)
        t = dz / speed
        return (
            np.stack([np.real(z), np.imag(z)], axis=-1),
            np.stack([np.real(t), np.imag(t)], axis=-1),
            speed * self._scale,
        )

    def native_curvature(self, u):
        both = self._z.evaluate(u, self._curvature_w)
        return _signed_curvature(both[..., 0], both[..., 1]) * self.raw_length

    def fixed_q_rate(self, u, sample_rate):
        """d/ds of position(q) at fixed q, at native points u, when the samples move.

        ``sample_rate`` holds the s-derivatives of the (m, 2) samples this
        curve was built from; the result has shape u.shape + (2,).  The
        derivative is that of what the constructor computes: the position is
        c + lam (z(u) - c) with lam = 1/L and q = lam A(u), where A is the
        closed-form integral of the interpolated speed samples, so A' is
        that interpolant, not |z'(u)|.  With w the interpolant of the sample
        rate, sig_j = |z'_j| and sig_j' = Re(conj(z'_j) w'_j) / sig_j on the
        nodes, L' is the mean of sig', A' the closed-form integral of its
        interpolant and c' the quotient rule on sum z sig / sum sig.  Then

            gamma' = lam w + lam' (z - c) + (1 - lam) c' + lam z' u',
            u' = (L'/L A - A_s) / A',

        A_s the s-derivative of A at fixed u.  All six series share the
        frequencies of z and are evaluated from one power matrix.
        """
        z_nodes, dz_nodes, speed = self._nodes
        w_nodes = np.asarray(sample_rate[:, 0] + 1j * sample_rate[:, 1])
        w = _TrigSeries(w_nodes)
        dspeed = np.real(np.conj(dz_nodes) * w.on_grid(z_nodes.size, 1)) / speed
        dlength, darc_w, darc_w0 = _TrigSeries(dspeed.astype(complex)).antiderivative()
        dcenter = np.sum(w_nodes * speed + z_nodes * dspeed) - self._center * np.sum(dspeed)
        dcenter /= np.sum(speed)
        u = np.asarray(u, dtype=float)
        cols = self._z.evaluate(
            u,
            np.stack(
                [self._z.coef, self._z.weights(1), self._arc_w, self._speed_coef, w.coef, darc_w],
                axis=1,
            ),
        )
        z, dz, arc, speed_u, dz_ds, darc = np.moveaxis(cols, -1, 0)
        arc = self.raw_length * u + np.real(arc - self._arc_w0)
        darc = dlength * u + np.real(darc - darc_w0)
        du = (dlength * self._scale * arc - darc) / np.real(speed_u)
        lam = self._scale
        dlam = -dlength * lam * lam
        rate = lam * dz_ds + dlam * (z - self._center) + (1.0 - lam) * dcenter + lam * dz * du
        return np.stack([np.real(rate), np.imag(rate)], axis=-1)


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------


@dataclass
class PolygonSpec:
    """Strictly convex polygon with counterclockwise vertices, perimeter 1.

    ``mark`` is the boundary arc-length parameter of the marked point,
    measured counterclockwise from vertices[0].

    The checks compute the edge layout once: edge i runs from vertex i to
    vertex i + 1 (mod n) as ``edges[i]``, with ``edge_lengths``, unit
    ``edge_dirs`` and arc-length ``edge_starts`` (n + 1, the last the
    perimeter); the boundary and the smoothing family read them.
    """

    vertices: np.ndarray
    mark: float = 0.0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2 or len(self.vertices) < 3:
            raise ValueError("vertices must be an (n, 2) array, n >= 3")
        if not (np.isfinite(self.vertices).all() and np.isfinite(self.mark)):
            raise ValueError("vertices and mark must be finite")
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross <= 0.0):
            raise ValueError("vertices must be strictly convex in counterclockwise order")
        lengths = np.hypot(e[:, 0], e[:, 1])
        per = float(np.sum(lengths))
        if abs(per - 1.0) > 1e-10:
            raise ValueError(f"perimeter must be 1, got {per!r}")
        self.mark = float(np.mod(self.mark, 1.0))
        self.edges = e
        self.edge_lengths = lengths
        self.edge_dirs = e / lengths[:, None]
        self.edge_starts = np.concatenate([[0.0], np.cumsum(lengths)])

    def _edge_at(self, t):
        """(t mod 1, index of the edge holding arc length t from vertices[0])."""
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        idx = np.clip(np.searchsorted(self.edge_starts, t, side="right") - 1, 0, len(self.edges) - 1)
        return t, idx

    def boundary_point(self, t):
        """Point at arc length t (mod 1) counterclockwise from vertices[0]."""
        t, idx = self._edge_at(t)
        local = (t - self.edge_starts[idx]) / self.edge_lengths[idx]
        return self.vertices[idx] + local[..., None] * self.edges[idx]


def unit_square(mark: float = 0.125) -> PolygonSpec:
    """Axis-aligned square of perimeter 1, marked mid-edge by default."""
    s = 0.125
    verts = np.array([[s, -s], [s, s], [-s, s], [-s, -s]])
    return PolygonSpec(verts, mark=mark)


def regular_polygon(n: int, mark: float | None = None) -> PolygonSpec:
    """Regular n-gon of perimeter 1; default mark at the first edge midpoint."""
    ang = TWO_PI * (np.arange(n) + 0.5) / n
    r = 1.0 / (2.0 * n * np.sin(np.pi / n))
    verts = r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if mark is None:
        mark = 0.5 / n
    return PolygonSpec(verts, mark=mark)


class PolygonBoundary(TableCurve):
    """Piecewise-linear boundary curve of a polygon, marked at spec.mark.

    Convex but neither smooth nor strictly convex; used as the C^0 limit
    object of smoothing families.  Tangents are right-continuous at corners.
    """

    kind = "polygon"
    strictly_convex = False

    def __init__(self, spec: PolygonSpec):
        self.spec = spec

    def position(self, q):
        return self.spec.boundary_point(np.asarray(q, dtype=float) + self.spec.mark)

    def tangent(self, q):
        return self.spec.edge_dirs[self.spec._edge_at(np.asarray(q, dtype=float) + self.spec.mark)[1]]

    def curvature(self, q):
        return np.zeros(np.shape(np.asarray(q, dtype=float)))

    def native_frame(self, t):
        return self.position(t), self.tangent(t), np.ones(np.shape(t))

    def native_curvature(self, t):
        return self.curvature(t)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def c0_distance(a: TableCurve, b: TableCurve, grid: int = 4096) -> float:
    """max_q ||a(q) - b(q)|| over a dense grid with one local refinement pass.

    A grid maximum never exceeds the true maximum, so the value is a lower
    bound estimate of the C^0 distance.
    """
    q = np.arange(grid) / grid
    gap = np.linalg.norm(a.position(q) - b.position(q), axis=-1)
    j = int(np.argmax(gap))
    local = q[j] + np.linspace(-1.0, 1.0, 33) / grid
    gap2 = np.linalg.norm(a.position(local) - b.position(local), axis=-1)
    return max(float(gap.max()), float(gap2.max()))
