"""Billiard tables: closed convex plane curves of length 1 in arc-length parameter.

Every table is parametrized by q in [0,1) with the marked point at q = 0,
counterclockwise orientation and unit-speed parametrization.

Each table also has a native parameter t in which its geometry is closed
form: ``native_frame(t)`` returns (position, unit tangent, dq/dt) and
``native_curvature(t)`` the curvature without inverting arc length,
``q_of_native`` maps t to q in closed form and ``native_of_q`` is the
(possibly iterative) inverse.  Both maps are lifts: t advances by
``native_period`` when q advances by 1.  The bounce solve of
:mod:`hoferbilliards.billiard` runs in t and hands its landing t to the
next bounce, so arc length is inverted only at the start points of a
trajectory; the orbit Newton of :mod:`hoferbilliards.dynamics` inverts it
once per iterate.  Concrete representations:

* ``DiscTable`` -- the round table of radius 1/(2*pi), all queries closed
  form; its native parameter is q itself.
* ``FourierTable`` -- built from a trigonometric support function h(theta);
  the native parameter is the outward normal angle theta, in which
  positions, tangents, the radius of curvature dq/dtheta and the cumulative
  arc length q(theta) are exact.  Only q -> theta is a guarded Newton solve.
  All of them, and the s-velocity of a support interpolation path, read
  one kernel, ``FourierSupportSpec._terms``: one ``exp`` for e^(i theta),
  its powers filled row by row and one matmul against weights built once
  per spec.
* ``SampledCurve`` -- spectral (trigonometric-interpolation) representation of
  a smooth closed curve given by samples or a callable; used for perturbed
  and reconstructed tables.  The native parameter is the raw sample
  parameter u, with closed-form cumulative arc length.  Its series are
  evaluated without a dense (points x modes) exp matrix: at arbitrary
  points from powers of e^(2 pi i u) filled by doubling, in blocks of
  EVAL_CHUNK points (about 17 MB of powers per block at 513 modes, however
  large the batch); on a uniform grid u = j/n by one inverse FFT.
* smoothed polygon boundaries live in :mod:`hoferbilliards.smoothing`; like
  polygons they use q as their native parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._solve import newton_bisect
from .errors import CurvatureNotPositive

TWO_PI = 2.0 * np.pi

# points per block of the support-function kernel FourierSupportSpec._terms.
# At 4 harmonics a block's temporaries stay under glibc's default 128 kB
# mmap threshold and are reused from the heap; one 8064-point block instead
# page-faulted about 1.1 MB of fresh memory on every call.
TERMS_CHUNK = 1024

# Radius-of-curvature floor separating strictly convex tables from the
# merely convex ones (flat edges allowed).
CURVATURE_FLOOR = 1e-8


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

    The native parametrization defaults to the identity t = q with
    dq/dt = 1; subclasses whose geometry is closed form in another
    parameter override ``native_of_q``, ``q_of_native``, ``native_frame``,
    ``native_curvature`` and ``native_period``.
    """

    kind = "abstract"
    strictly_convex = False
    length = 1.0
    native_period = 1.0

    def position(self, q):
        raise NotImplementedError

    def tangent(self, q):
        raise NotImplementedError

    def curvature(self, q):
        raise NotImplementedError

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
        t = np.asarray(t, dtype=float)
        return self.position(t), self.tangent(t), np.ones(t.shape)

    def native_curvature(self, t):
        """Curvature at native parameter t."""
        return self.curvature(t)


class DiscTable(TableCurve):
    """Circle of radius 1/(2*pi) centered at the origin, marked at angle 0."""

    kind = "disc"
    strictly_convex = True
    radius = 1.0 / TWO_PI

    @property
    def spec(self):
        """Support-function view of the disc (constant h = radius)."""
        return FourierSupportSpec(self.radius)

    def position(self, q):
        ang = TWO_PI * np.asarray(q, dtype=float)
        return self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def tangent(self, q):
        ang = TWO_PI * np.asarray(q, dtype=float)
        return np.stack([-np.sin(ang), np.cos(ang)], axis=-1)

    def curvature(self, q):
        return np.full(np.shape(np.asarray(q, dtype=float)), TWO_PI)

    def native_frame(self, t):
        ang = TWO_PI * np.asarray(t, dtype=float)
        c, s = np.cos(ang), np.sin(ang)
        pos = self.radius * np.stack([c, s], axis=-1)
        return pos, np.stack([-s, c], axis=-1), np.ones(ang.shape)


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
        """Real (4, 2n) weights [Re w, -Im w] of the kernel rows, and the arclength constant.

        Row j of ``_terms`` is Re sum_k w_jk z^k = sum_k (Re w_jk cos k theta
        - Im w_jk sin k theta) for the complex weights w of h - c0, h',
        rho - c0 and arclength - c0 theta less the constant
        sum_k (1 - k^2)/k sin_k.  Stored real, the sums are one real matmul
        against the stacked cos and sin rows, about 4x faster at 8k points
        than the complex matmul of w with the powers.
        """
        k = self.harmonics.astype(float)
        a, b = self.cos, self.sin
        bend = 1.0 - k * k
        arc = bend / k
        w = np.stack([a - 1j * b, k * b + 1j * k * a, bend * (a - 1j * b), -arc * (b + 1j * a)])
        return np.concatenate([w.real, -w.imag], axis=1), float(arc @ b)

    def _terms(self, theta):
        """Rows h - c0, h', rho - c0, arclength - c0 theta, cos theta, sin theta.

        The kernel every evaluator reads; shape (6,) + theta.shape.  Points
        go in blocks of TERMS_CHUNK: in each, z = e^(i theta) comes from one
        ``exp``, the powers z^1 .. z^n are filled row by row in a (modes,
        points) array, and one matmul with ``_weights`` gives the first four
        rows; the last two are Re z and Im z.
        """
        theta = np.asarray(theta, dtype=float)
        flat = theta.reshape(-1)
        w, arc0 = self._weights
        n = w.shape[1] // 2
        out = np.empty((6, flat.size))
        for a in range(0, flat.size, TERMS_CHUNK):
            b = min(a + TERMS_CHUNK, flat.size)
            p = np.empty((n, b - a), dtype=complex)
            np.exp(1j * flat[a:b], out=p[0])
            for k in range(1, n):
                np.multiply(p[k - 1], p[0], out=p[k])
            out[:4, a:b] = w @ np.concatenate([p.real, p.imag])
            out[4, a:b] = p[0].real
            out[5, a:b] = p[0].imag
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

    def position(self, q):
        return self.spec.boundary_point(self.theta_of_q(q))

    def tangent(self, q):
        theta = self.theta_of_q(q)
        return np.stack([-np.sin(theta), np.cos(theta)], axis=-1)

    def curvature(self, q):
        return 1.0 / self.spec.rho(self.theta_of_q(q))

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
    if m <= CURVATURE_FLOOR:
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

    def position(self, q):
        return self.base.position(np.asarray(q, dtype=float) + self.shift)

    def tangent(self, q):
        return self.base.tangent(np.asarray(q, dtype=float) + self.shift)

    def curvature(self, q):
        return self.base.curvature(np.asarray(q, dtype=float) + self.shift)

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

    def position(self, q):
        return self.base.position(q) @ self._rot.T + self.offset

    def tangent(self, q):
        return self.base.tangent(q) @ self._rot.T

    def curvature(self, q):
        return self.base.curvature(q)

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


# points per block of the off-grid evaluation: one block's power matrix is
# EVAL_CHUNK x modes complex numbers, about 17 MB at 513 modes
EVAL_CHUNK = 2048


class _TrigSeries:
    """Trigonometric interpolant of periodic complex samples.

    ``coef`` holds the coefficients c_k of sum_k c_k e^(2 pi i k u) for the
    contiguous frequencies ``k`` = -(m//2) .. m//2; for an even sample count
    m the Nyquist mode is split evenly between -m/2 and m/2, so the series
    of real samples stays real between the nodes.

    Every evaluation is a sum sum_k w_k e^(2 pi i k u) for some weight
    vector w (c_k times (2 pi i k)^deriv, or any other weights on the same
    frequencies), computed in one of two ways:

    * ``evaluate`` at arbitrary points: the powers z^k, z = e^(2 pi i u),
      are filled by doubling from z^k_min (one block multiply per power of
      two, with each factor z^(2^j) taken from the exact product 2^j u mod
      1), then multiplied by a stack of weight vectors.  Points go in blocks
      of EVAL_CHUNK, so memory stays bounded whatever the batch size.
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

    def evaluate(self, u, weights):
        """sum_k w_k e^(2 pi i k u) for each weight column w; shape u.shape + weights.shape[1:]."""
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        out = np.empty((flat.size,) + weights.shape[1:], dtype=complex)
        for a in range(0, flat.size, EVAL_CHUNK):
            out[a : a + EVAL_CHUNK] = (weights.T @ self._powers(flat[a : a + EVAL_CHUNK])).T
        return out.reshape(u.shape + weights.shape[1:])

    def _powers(self, u):
        """(modes, points) matrix of z^k, z = e^(2 pi i u), k = k[0] .. k[-1].

        Modes run along the first axis, so every doubling step multiplies
        whole contiguous rows.
        """
        nk = self.k.size
        # z^b for b = 2^j < nk; b * u is exact in floating point, so each
        # phase is reduced mod 1 without rounding
        steps = [1 << j for j in range(max(nk - 1, 1).bit_length())]
        zpow = np.exp(2j * np.pi * np.mod(np.multiply.outer(steps, u), 1.0))
        p = np.empty((nk, u.size), dtype=complex)
        # z^k[0] = conj(z^-k[0]) from the binary digits of -k[0] >= 0
        p[0] = 1.0
        for b, zb in zip(steps, zpow):
            if -self.k[0] & b:
                p[0] *= zb
        np.conj(p[0], out=p[0])
        for b, zb in zip(steps, zpow):
            np.multiply(p[: min(b, nk - b)], zb, out=p[b : 2 * b])
        return p

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
    query is one chunked power-matrix product, bounded in memory by
    EVAL_CHUNK points at a time.  The speed series has the frequencies of
    z, so each iterate of the arc-length Newton ``u_of_q`` evaluates its
    residual (the integrated speed weights c_k / (2 pi i k), less their
    sum) and its derivative |z'| from one shared power matrix.
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
        k = speed_series.k
        self.raw_length = float(np.real(speed_series.coef[k == 0][0]))
        # raw arc length = raw_length u + sum_{k != 0} c_k/(2 pi i k) (z^k - 1);
        # the speed series shares the frequencies of z, so one power matrix
        # serves both columns of the arc-length Newton (this and z')
        self._arc_w = np.zeros_like(speed_series.coef)
        self._arc_w[k != 0] = speed_series.coef[k != 0] / (2j * np.pi * k[k != 0])
        self._arc_w0 = self._arc_w.sum()
        self._newton_w = np.stack([self._arc_w, self._z.weights(1)], axis=1)
        self._curvature_w = np.stack([self._z.weights(1), self._z.weights(2)], axis=1)
        centroid = np.sum(z * speed) / np.sum(speed)
        self._center = centroid
        self._scale = 1.0 / self.raw_length
        if kind is not None:
            self.kind = kind
        kappa = _signed_curvature(dz, self._z.on_grid(m, 2))
        self.min_curvature = float(kappa.min() * self.raw_length)
        self.strictly_convex = bool(self.min_curvature > CURVATURE_FLOOR)

    @classmethod
    def from_function(cls, fn, samples: int = 1024, kind: str | None = None):
        grid = np.arange(samples) / samples
        return cls(np.asarray(fn(grid), dtype=float), kind=kind)

    @classmethod
    def from_points(cls, points: np.ndarray, kind: str = "reconstructed_samples"):
        return cls(np.asarray(points, dtype=float), kind=kind)

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

    def _raw_curvature(self, u):
        both = self._z.evaluate(u, self._curvature_w)
        return _signed_curvature(both[..., 0], both[..., 1])

    def position(self, q):
        u = self.u_of_q(q)
        z = self._center + self._scale * (self._z(u) - self._center)
        return np.stack([np.real(z), np.imag(z)], axis=-1)

    def tangent(self, q):
        dz = self._z(self.u_of_q(q), deriv=1)
        t = dz / np.abs(dz)
        return np.stack([np.real(t), np.imag(t)], axis=-1)

    def curvature(self, q):
        return self._raw_curvature(self.u_of_q(q)) * self.raw_length

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
        return self._raw_curvature(u) * self.raw_length


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------


@dataclass
class PolygonSpec:
    """Strictly convex polygon with counterclockwise vertices, perimeter 1.

    ``mark`` is the boundary arc-length parameter of the marked point,
    measured counterclockwise from vertices[0].
    """

    vertices: np.ndarray
    mark: float = 0.0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2 or len(self.vertices) < 3:
            raise ValueError("vertices must be an (n, 2) array, n >= 3")
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross <= 0.0):
            raise ValueError("vertices must be strictly convex in counterclockwise order")
        per = float(np.sum(np.hypot(e[:, 0], e[:, 1])))
        if abs(per - 1.0) > 1e-10:
            raise ValueError(f"perimeter must be 1, got {per!r}")
        self.mark = float(np.mod(self.mark, 1.0))

    @property
    def edge_lengths(self):
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
        return np.hypot(e[:, 0], e[:, 1])

    def boundary_point(self, t):
        """Point at arc length t (mod 1) counterclockwise from vertices[0]."""
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        lengths = self.edge_lengths
        cums = np.concatenate([[0.0], np.cumsum(lengths)])
        idx = np.clip(np.searchsorted(cums, t, side="right") - 1, 0, len(lengths) - 1)
        local = (t - cums[idx]) / lengths[idx]
        a = self.vertices[idx]
        b = self.vertices[(idx + 1) % len(lengths)]
        return a + local[..., None] * (b - a)


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
        t = np.mod(np.asarray(q, dtype=float) + self.spec.mark, 1.0)
        lengths = self.spec.edge_lengths
        cums = np.concatenate([[0.0], np.cumsum(lengths)])
        idx = np.clip(np.searchsorted(cums, t, side="right") - 1, 0, len(lengths) - 1)
        e = np.roll(self.spec.vertices, -1, axis=0) - self.spec.vertices
        return (e / lengths[:, None])[idx]

    def curvature(self, q):
        return np.zeros(np.shape(np.asarray(q, dtype=float)))


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
