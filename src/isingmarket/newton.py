"""Damped Newton-CG, shared by the exact and the pseudo-likelihood fits.

Both minimize a smooth convex objective whose Hessian H is available only
through products H v.
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg


def newton(evaluate, hessp, start: np.ndarray, tol: float, max_iter: int):
    """Step from ``start`` until the max-abs gradient is at most tol.

    ``evaluate(x)`` returns a state tuple whose first entry is x and whose
    last is the gradient g, signed so that the step d improves the objective.
    ``hessp(state, v)`` is H v there.  Each step solves (H + 0.1 |g| I) d = g
    by conjugate gradients: the damping vanishes with g and keeps early steps
    out of regions where H is nearly singular.  The step size is halved until
    |g| decreases, since near the optimum the objective is too flat to compare.

    Returns (state, Newton steps, max-abs gradient), unconverged after
    max_iter steps or once no step size reduces |g|.
    """
    state = evaluate(start)
    iterations = 0
    while (residual := float(np.abs(state[-1]).max())) > tol and iterations < max_iter:
        gradient = state[-1]
        norm = np.linalg.norm(gradient)
        damped = LinearOperator((gradient.size,) * 2, dtype=np.float64,
                                matvec=lambda v: hessp(state, v) + 0.1 * norm * v)
        direction, _ = cg(damped, gradient, atol=0.1 * norm)
        for step in 0.5 ** np.arange(40):
            trial = evaluate(state[0] + step * direction)
            if np.linalg.norm(trial[-1]) < norm:
                break
        else:
            break  # |g| sits at rounding level
        state = trial
        iterations += 1
    return state, iterations, residual
