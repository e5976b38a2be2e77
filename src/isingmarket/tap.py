"""Forward TAP self-consistency for mean orientations.

Damped fixed-point iteration of

    m_i = tanh( h_i + sum_j J_ij m_j - m_i * sum_j J_ij^2 (1 - m_j^2) )

whose last term is the Onsager reaction correction, plus the validity
statistic x = 2*Q2 - Q4 with Q_nu = mean(q_i^nu); x > 0 is the domain where
the mean-field solution is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .model import IsingModel


@dataclass
class TapSolution:
    """Converged (or best-effort) magnetizations and derived cumulants."""

    m: np.ndarray
    iterations: int
    converged: bool
    x_stability: float
    variances: np.ndarray  # 1 - m^2
    third_cumulants: np.ndarray  # 2 (m^3 - m)


def stability_x(q: np.ndarray) -> float:
    """x = 2*Q2 - Q4, positive inside the mean-field validity domain."""
    q = np.asarray(q, dtype=np.float64)
    q2 = np.mean(q**2)
    q4 = np.mean(q**4)
    return float(2.0 * q2 - q4)


def tap_fixed_point(
    model: IsingModel,
    init: np.ndarray | None = None,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> TapSolution:
    """Damped TAP iteration from m = tanh(h) (or a caller-supplied start).

    Non-convergence is reported via converged=False with the best iterate;
    only NaN/overflow raises, and a J whose field or Onsager terms (up to
    |h| + N max|J| (1 + max|J|)) would overflow raises before the first step, as
    does an init whose shape is not (N,).
    """
    if not 0.0 < damping <= 1.0:
        raise DivergenceError(f"damping must be in (0, 1], got {damping}")
    j = model.J
    top = float(np.abs(j).max(initial=0.0))
    if not math.isfinite(float(np.abs(model.h).max(initial=0.0)) + model.n * top * (1.0 + top)):
        raise DivergenceError(f"TAP terms overflow: max |J_ij| = {top:.6g} at N = {model.n}")
    j_sq = j**2
    m = np.tanh(model.h) if init is None else np.array(init, dtype=np.float64)
    if m.shape != (model.n,):
        raise DimensionMismatchError(f"init has shape {m.shape}, model has N={model.n}")

    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        onsager = m * (j_sq @ (1.0 - m**2))
        target = np.tanh(model.h + j @ m - onsager)
        if not np.isfinite(target).all():
            raise DivergenceError(f"TAP iteration diverged at iteration {iteration}")
        update = damping * (target - m)
        m = m + update
        if np.abs(update).max() < tol:
            converged = True
            break

    return TapSolution(
        m=m,
        iterations=iteration,
        converged=converged,
        x_stability=stability_x(m),
        variances=1.0 - m**2,
        third_cumulants=2.0 * (m**3 - m),
    )
