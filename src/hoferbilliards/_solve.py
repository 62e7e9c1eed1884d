"""Vectorized bracketed Newton with bisection fallback.

Used for every monotone 1-d inversion in the package: the bounce solve of
the billiard map and arc-length / profile-length inversions.  The residual
is assumed strictly monotone between the brackets, so the bisection
fallback cannot stall.  Only the not-yet-converged components are
re-evaluated, which matters on the 30k-point phase-space grids: the
iterates, brackets and last residuals of the active components are kept
as compact arrays, the brackets are updated with ``np.where``, and a
component's iterate is written back to the result only when it finishes.
"""

import numpy as np

from .errors import SolverDidNotConverge

# tolerances shared by every caller; see newton_bisect
TOL = 1e-13
RELAX_AFTER = 30
RELAX_TOL = 1e-10
FAIL_TOL = 1e-9
MAXITER = 100


def newton_bisect(fun, lo, hi, seed, increasing):
    """Solve fun(x, idx) == 0 componentwise for x in (lo, hi).

    ``fun`` maps an active-subset array x and its flat indices into the
    original problem to a pair (residual, derivative).  ``increasing``
    states the residual's monotonicity, so the bracket is updated from the
    sign of the residual at each iterate without ever evaluating the
    endpoints (where the residual may be ill-conditioned).  Newton steps
    that leave the bracket fall back to bisection, and so does the step
    after an iterate whose |residual| is not at most half the previous
    one (the ``rtsafe`` guard of Numerical Recipes, section 9.4): a Newton
    iteration that cycles inside the bracket would otherwise shrink it
    ever more slowly.

    The tolerances are the module constants, one set for every caller:
    components stop at |residual| <= TOL (1e-13); after RELAX_AFTER (30)
    iterations the acceptance widens to RELAX_TOL (1e-10), since the solves
    near a grazing chord are noise-limited well above machine epsilon.
    Raises SolverDidNotConverge (an ArithmeticError) only if some component
    is still above FAIL_TOL (1e-9) after MAXITER (100) iterations.

    Each component's last ``fun`` evaluation is at the value returned for
    it, so ``fun`` may record what it computes there (``forward_chord``
    keeps the landing frame that way).
    """
    x = np.array(seed, dtype=float, copy=True)
    shape = x.shape
    x = np.atleast_1d(x).ravel()
    # the active components: flat indices, iterates, brackets and |residual|
    # at the previous iterate; x receives each iterate when it finishes
    la = np.broadcast_to(np.asarray(lo, dtype=float), shape).ravel().copy()
    ha = np.broadcast_to(np.asarray(hi, dtype=float), shape).ravel().copy()
    np.clip(x, la, ha, out=x)
    active = np.arange(x.size)
    xa = x.copy()
    prev = np.full(x.size, np.inf)
    for it in range(MAXITER):
        r, dr = fun(xa, active)
        ar = np.abs(r)
        tol_now = TOL if it < RELAX_AFTER else RELAX_TOL
        keep = ar > tol_now
        if not keep.all():
            x[active[~keep]] = xa[~keep]
            if not keep.any():
                active = active[:0]
                break
            active, xa, la, ha = active[keep], xa[keep], la[keep], ha[keep]
            r, dr, ar, prev = r[keep], dr[keep], ar[keep], prev[keep]
        # rtsafe guard: a step that did not halve |residual| bisects next
        stalled = ar > 0.5 * prev
        prev = ar
        up = (r > 0) == increasing  # the iterate lies above the root
        ha = np.where(up, xa, ha)
        la = np.where(up, la, xa)
        # dr may be 0 or subnormal (a profile's f'' near its corner's ends)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn = xa - r / dr
        # a step that leaves the open bracket (or is not finite) bisects
        bad = stalled | ~((xn > la) & (xn < ha))
        xa = np.where(bad, 0.5 * (la + ha), xn)
    if active.size:
        x[active] = xa
        r, _ = fun(xa, active)
        worst = float(np.max(np.abs(r)))
        if worst > FAIL_TOL:
            raise SolverDidNotConverge(f"newton_bisect: no convergence, residual {worst:.3e}")
    return x.reshape(shape)
