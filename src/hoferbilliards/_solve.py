"""Vectorized bracketed Newton with bisection fallback.

Used for every monotone 1-d inversion in the package: the bounce solve of
the billiard map and arc-length / profile-length inversions.  The residual
is assumed strictly monotone between the brackets, so the bisection
fallback cannot stall.  Only the not-yet-converged components are
re-evaluated, which matters on the 30k-point phase-space grids.
"""

import numpy as np

from .errors import SolverDidNotConverge

# tolerances shared by every caller; see newton_bisect
TOL = 1e-13
RELAX_AFTER = 30
RELAX_TOL = 1e-10
FAIL_TOL = 1e-9


def newton_bisect(fun, lo, hi, seed, increasing, maxiter=100):
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
    is still above FAIL_TOL (1e-9) after ``maxiter`` iterations.
    """
    x = np.array(seed, dtype=float, copy=True)
    shape = x.shape
    x = np.atleast_1d(x).ravel()
    lo = np.broadcast_to(np.asarray(lo, dtype=float), shape).copy().ravel()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), shape).copy().ravel()
    np.clip(x, lo, hi, out=x)

    active = np.arange(x.size)
    prev = np.inf  # |residual| of the active components at their previous iterate
    for it in range(maxiter):
        r, dr = fun(x[active], active)
        ar = np.abs(r)
        tol_now = TOL if it < RELAX_AFTER else RELAX_TOL
        keep = ar > tol_now
        if not keep.any():
            active = active[:0]
            break
        # rtsafe guard: a step that did not halve |residual| bisects next
        stalled = (ar > 0.5 * prev)[keep]
        prev = ar[keep]
        act = active[keep]
        r = r[keep]
        dr = dr[keep]
        xa = x[act]
        pos = r > 0
        if increasing:
            hi[act[pos]] = xa[pos]
            lo[act[~pos]] = xa[~pos]
        else:
            lo[act[pos]] = xa[pos]
            hi[act[~pos]] = xa[~pos]
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xa - r / dr
        bad = stalled | ~np.isfinite(xn) | (xn <= lo[act]) | (xn >= hi[act])
        xn[bad] = 0.5 * (lo[act][bad] + hi[act][bad])
        x[act] = xn
        active = act
    if active.size:
        r, _ = fun(x[active], active)
        worst = float(np.max(np.abs(r)))
        if worst > FAIL_TOL:
            raise SolverDidNotConverge(f"newton_bisect: no convergence, residual {worst:.3e}")
    return x.reshape(shape)
