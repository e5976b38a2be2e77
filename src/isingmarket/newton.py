"""Damped Newton-CG, shared by the exact and the pseudo-likelihood fits.

Both minimize a smooth convex objective whose Hessian H is available only
through products H v.  The conjugate-gradient solve does the arithmetic of
scipy.sparse.linalg.cg, so its iterates are bit-identical to scipy's.
"""

import numpy as np


def _cg(matvec, b: np.ndarray, atol: float) -> np.ndarray:
    """Solve A x = b by conjugate gradients, A symmetric positive definite, A v = matvec(v).

    scipy's cg arithmetic with x0 = 0, no preconditioner and maxiter 10n,
    stopping before an iteration once |r| < atol.  atol is used as given:
    scipy raises an atol below 1e-5 |b| to that, and newton's 0.1 |b| is not.
    """
    x = np.zeros_like(b)
    if np.linalg.norm(b) == 0:
        return x
    r, p, rho_prev = b.copy(), None, None
    for _ in range(10 * b.size):
        if np.linalg.norm(r) < atol:
            break
        rho = np.dot(r, r)
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def newton(evaluate, hessp, start: np.ndarray, tol: float, max_iter: int):
    """Step from ``start`` until the max-abs gradient is at most tol.

    ``evaluate(x)`` returns a state tuple: whatever ``hessp`` needs at x,
    then the gradient g, signed so that the step d improves the objective.
    ``hessp(state, v)`` is H v there.  Each step solves (H + 0.1 |g| I) d = g
    by conjugate gradients: the damping vanishes with g and keeps early steps
    out of regions where H is nearly singular.  The step size is halved until
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
        direction = _cg(lambda v: hessp(state, v) + 0.1 * norm * v, gradient, 0.1 * norm)
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
