"""Approximate inverse solvers: mean-field inversions and pseudo-likelihood.

All three return a FitReport with a symmetric zero-diagonal coupling matrix;
``fit`` dispatches to them, and to the exact fit, by method name.
The second-order inversion solves, pair by pair,

    (C^-1)_ij = -J_ij - J_ij^2 q_i q_j

keeping the root that reduces to the first-order value -(C^-1)_ij as
q_i q_j -> 0.
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    InsufficientSampleError,
    ReliabilityError,
    SingularMatrixError,
)
from .exact import fit_maxent_exact
from .ingest import SpinMatrix
from .model import FitReport, IsingModel, symmetrize
from .moments import MomentSet, empirical_moments

CONDITION_LIMIT = 1e12
_SERIES_CUTOFF = 1e-6  # |q_i q_j| below this uses the series branch
_CLAMP_ESCALATION = 0.2
_UNBOUNDED_PARAM = 30.0  # |parameter| beyond this with ridge=0 means separability


def _inverse_correlations(c: np.ndarray, ridge: float) -> np.ndarray:
    c_reg = c + ridge * np.eye(c.shape[0]) if ridge > 0.0 else c
    if np.linalg.cond(c_reg) >= CONDITION_LIMIT:
        raise SingularMatrixError(
            "connected-correlation matrix is numerically singular; "
            "pass a ridge > 0 to regularize the diagonal"
        )
    return np.linalg.inv(c_reg)


def nmf_invert(moments: MomentSet, ridge: float = 0.0) -> FitReport:
    """First-order mean-field inversion: J = -(C^-1) off the diagonal."""
    c_inv = _inverse_correlations(moments.C, ridge)
    coupling = symmetrize(-c_inv)
    h = np.arctanh(moments.q) - coupling @ moments.q
    return FitReport(model=IsingModel(J=coupling, h=h), method="nmf", iterations=1)


def tap_invert(moments: MomentSet, ridge: float = 0.0, strict: bool = False) -> FitReport:
    """Second-order mean-field inversion with clamped-discriminant telemetry.

    Negative discriminants (noise-driven insoluble pairs) are clamped to
    zero, counted and reported; a clamp fraction above 20% raises under
    strict mode.  Fields are recovered from the TAP relation
    h_i = atanh(q_i) - sum_j J_ij q_j + q_i sum_j J_ij^2 (1 - q_j^2).
    """
    q = moments.q
    if np.any(np.abs(q) >= 1.0):
        raise DivergenceError("|q_i| = 1 makes the second-order inversion singular")
    c_inv = _inverse_correlations(moments.C, ridge)

    a = np.outer(q, q)
    disc = 1.0 - 4.0 * a * c_inv
    off = ~np.eye(moments.n, dtype=bool)
    clamped = int(np.count_nonzero((disc < 0.0) & off)) // 2
    disc = np.maximum(disc, 0.0)

    series = np.abs(a) < _SERIES_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = (-1.0 + np.sqrt(disc)) / (2.0 * a)
    ac = a * c_inv
    expansion = -c_inv * (1.0 + ac + 2.0 * ac**2)
    coupling = symmetrize(np.where(series, expansion, quad))

    warnings_list = []
    n_pairs = moments.n * (moments.n - 1) // 2
    if clamped:
        fraction = clamped / n_pairs
        message = (
            f"clamped {clamped} of {n_pairs} pair discriminants "
            f"({100.0 * fraction:.1f}%) to zero"
        )
        if strict and fraction > _CLAMP_ESCALATION:
            raise ReliabilityError(message + "; inversion unreliable under strict mode")
        warnings_list.append(message)

    h = np.arctanh(q) - coupling @ q + q * ((coupling**2) @ (1.0 - q**2))
    return FitReport(
        model=IsingModel(J=coupling, h=h),
        method="tap-inv",
        iterations=1,
        warnings=warnings_list,
    )


def _log_sigma(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


def _plm_single_spin(
    spins: np.ndarray,
    index: int,
    ridge: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, list[float]]:
    """Newton ascent of one spin's conditional log-likelihood.

    Objective (concave in w = (h_i, J_i.)):
        mean_t log sigma(2 s_i(t) * (phi_t . w)) - ridge * |w|^2
    with phi_t = (1, s_{-i}(t)).  Returns (w, iterations, objective trace).
    """
    t = spins.shape[0]
    y = spins[:, index]
    phi = spins.copy()
    phi[:, index] = 1.0  # intercept slot

    w = np.zeros(phi.shape[1])
    z = 2.0 * y * (phi @ w)

    def objective(z_vals, w_vals):
        return _log_sigma(z_vals).mean() - ridge * (w_vals @ w_vals)

    obj = objective(z, w)
    trace = [obj]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sigma = 0.5 * (1.0 + np.tanh(0.5 * z))  # overflow-free logistic
        grad = (2.0 / t) * (phi.T @ (y * (1.0 - sigma))) - 2.0 * ridge * w
        if np.abs(grad).max() < tol:
            break
        weights = 4.0 * sigma * (1.0 - sigma) / t
        hessian = phi.T @ (phi * weights[:, None]) + 2.0 * ridge * np.eye(w.size)
        try:
            direction = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            raise DivergenceError(
                f"spin {index}: conditional likelihood is flat "
                "(deterministic spin); use ridge > 0"
            )
        step = 1.0
        for _ in range(60):
            candidate = w + step * direction
            z_new = 2.0 * y * (phi @ candidate)
            obj_new = objective(z_new, candidate)
            if obj_new >= obj + 1e-4 * step * (grad @ direction):
                break
            step *= 0.5
        w, z, obj = candidate, z_new, obj_new
        trace.append(obj)
        if ridge == 0.0 and np.abs(w).max() > _UNBOUNDED_PARAM:
            raise DivergenceError(
                f"spin {index} is (near) deterministic given the others; "
                "the unregularized fit diverges, use ridge > 0"
            )
    return w, iterations, trace


def plm_fit(
    matrix: SpinMatrix,
    ridge: float = 1e-3,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> FitReport:
    """Regularized pseudo-maximum-likelihood fit from raw spins.

    Each spin's conditional logistic problem is solved independently (they
    are concave); the asymmetric estimates are symmetrized by averaging.
    ridge is the L2 penalty per sample on (h_i, J_i.).
    """
    if matrix.t < 2:
        raise InsufficientSampleError("pseudo-likelihood needs at least 2 rows")
    if ridge < 0.0:
        raise DivergenceError(f"ridge must be >= 0, got {ridge}")
    spins = matrix.values.astype(np.float64)
    n = matrix.n
    raw = np.zeros((n, n))
    h = np.zeros(n)
    total_iterations = 0
    for i in range(n):
        w, iterations, _ = _plm_single_spin(spins, i, ridge, tol, max_iter)
        h[i] = w[i]
        raw[i] = w
        raw[i, i] = 0.0
        total_iterations = max(total_iterations, iterations)
    coupling = symmetrize(raw)
    return FitReport(
        model=IsingModel(J=coupling, h=h),
        method="plm",
        iterations=total_iterations,
    )


# method -> (solver named in this module, whether it fits raw spins instead of moments)
FIT_METHODS = {
    "exact": ("fit_maxent_exact", False),
    "nmf": ("nmf_invert", False),
    "tap-inv": ("tap_invert", False),
    "plm": ("plm_fit", True),
}


def fit(method: str, data: SpinMatrix | MomentSet, **options) -> FitReport:
    """Fit a model with one of FIT_METHODS.

    Spins are reduced to their empirical moments for the moment-based
    methods.  Options the solver does not take, or that are None, are
    dropped, so its own defaults apply.  The solver is looked up in the
    module namespace on every call: rebinding it (to a tracing wrapper, say)
    takes effect here too.
    """
    if method not in FIT_METHODS:
        raise ConfigError(f"unknown inversion method {method!r}")
    name, from_spins = FIT_METHODS[method]
    if from_spins and not isinstance(data, SpinMatrix):
        raise ConfigError(f"{method} fits raw spins, not moments")
    if not from_spins and isinstance(data, SpinMatrix):
        data = empirical_moments(data)
    solver = globals()[name]
    accepted = inspect.signature(solver).parameters
    return solver(data, **{k: v for k, v in options.items() if k in accepted and v is not None})
