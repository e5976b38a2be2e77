"""Damped Newton-CG, shared by the exact and the pseudo-likelihood fits.

Both minimize a smooth convex objective whose Hessian H is available only
through products H v.  The conjugate-gradient solve does the arithmetic of
scipy.sparse.linalg.cg, with or without its preconditioner M, so its iterates
are bit-identical to scipy's.  The pseudo-likelihood fit at ridge > 0 passes a
preconditioner; the exact fit and the ridge-0 pseudo-likelihood fit do not,
and their solves are plain CG (Nocedal & Wright, Numerical Optimization, 2006,
sections 5.1 and 7.1).
"""

import numpy as np


def _cg(matvec, b: np.ndarray, atol: float, psolve=None) -> np.ndarray:
    """Solve A x = b by conjugate gradients, A symmetric positive definite, A v = matvec(v).

    scipy's cg arithmetic with x0 = 0, maxiter 10n and, if psolve is given, the
    preconditioner M^-1 r = psolve(r), M symmetric positive definite; stopping
    before an iteration once |r| < atol.  atol is used as given: scipy raises an
    atol below 1e-5 |b| to that, and newton's 0.1 |b| is not.
    """
    x = np.zeros_like(b)
    if np.linalg.norm(b) == 0:
        return x
    r, p, rho_prev = b.copy(), None, None
    for _ in range(10 * b.size):
        if np.linalg.norm(r) < atol:
            break
        z = r if psolve is None else psolve(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def newton(evaluate, hessp, start: np.ndarray, tol: float, max_iter: int, precondition=None):
    """Step from ``start`` until the max-abs gradient is at most tol.

    ``evaluate(x)`` returns a state tuple: whatever ``hessp`` needs at x,
    then the gradient g, signed so that the step d improves the objective.
    ``hessp(state, v)`` is H v there.  Each step solves (H + 0.1 |g| I) d = g
    by conjugate gradients: the damping vanishes with g and keeps early steps
    out of regions where H is nearly singular.  If ``precondition`` is given,
    ``precondition(state, 0.1 |g|)`` returns that step's psolve for ``_cg``:
    r -> M^-1 r for an M near H + 0.1 |g| I.  The step size is halved until
    |g| decreases, since near the optimum the objective is too flat to compare.
    A state is dropped once its direction is solved and a rejected trial
    before the next is evaluated, so at most one state is alive at a time.

    Returns (x, Newton steps, max-abs gradient at x), unconverged after
    max_iter steps or once no step size reduces |g|.
    """
    x, state, iterations = start, evaluate(start), 0
    while (residual := float(np.abs(state[-1]).max())) > tol and iterations < max_iter:
        gradient = state[-1]
        norm = np.linalg.norm(gradient)
        psolve = precondition(state, 0.1 * norm) if precondition else None
        direction = _cg(lambda v: hessp(state, v) + 0.1 * norm * v, gradient, 0.1 * norm, psolve)
        for step in 0.5 ** np.arange(40):
            del state
            state = evaluate(trial := x + step * direction)
            if np.linalg.norm(state[-1]) < norm:
                break
        else:
            break  # |g| sits at rounding level
        x = trial
        iterations += 1
    return x, iterations, residual
