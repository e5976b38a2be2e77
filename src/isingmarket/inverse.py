"""Approximate inverse solvers: mean-field inversions and pseudo-likelihood.

All three return a FitReport with a symmetric zero-diagonal coupling matrix;
``fit`` dispatches to them, and to the exact fit, by method name.  The
pseudo-likelihood and the exact fit share one damped Newton-CG solver.
The second-order inversion solves, pair by pair,

    (C^-1)_ij = -J_ij - J_ij^2 q_i q_j

keeping the root that reduces to the first-order value -(C^-1)_ij as
q_i q_j -> 0.
"""

from __future__ import annotations

import inspect

import numpy as np
from scipy.linalg import qr

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
from .newton import newton

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
    if np.any(np.abs(moments.q) >= 1.0):
        raise DivergenceError("|q_i| = 1 makes the first-order field atanh(q_i) infinite")
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


def _check_design_rank(matrix: SpinMatrix) -> None:
    """At ridge 0 every spin's design (the other spins and an intercept) needs
    full column rank, or its conditional likelihood has no unique maximum."""
    design = np.column_stack([np.ones(matrix.t), matrix.values])
    r, pivots = qr(design, mode="r", pivoting=True)
    diagonal = np.abs(np.diag(r))
    rank = np.count_nonzero(diagonal > diagonal[0] * max(design.shape) * np.finfo(float).eps)
    if rank < design.shape[1]:
        names = ", ".join(["the intercept", *matrix.tickers][j] for j in sorted(pivots[rank:]))
        raise DivergenceError(
            f"spin columns linearly dependent on the others and the intercept: {names} "
            "(such as a constant or duplicated column); the unregularized "
            "pseudo-likelihood has no unique maximum, use ridge > 0"
        )


def _plm_rows(spins: np.ndarray, ridge: float, tol: float, max_iter: int):
    """Asymmetric pseudo-likelihood estimate W, one row per spin.

    Row i holds (J_i., h_i on the diagonal); spin i's local fields are column i
    of F = S J^T + h (J: W off its diagonal, h: diag W).  The concave objective
        sum_i [ mean_t log sigma(2 s_i(t) F_i(t)) - ridge |W_i.|^2 ]
    is maximized by the shared damped Newton-CG solver, with two GEMMs per
    gradient and per Hessian product.  Returns (W, iterations, max-abs gradient).
    """
    t, n = spins.shape

    def fields(w: np.ndarray) -> np.ndarray:
        out = spins @ (w - np.diag(np.diag(w))).T
        out += np.diag(w)
        return out

    def rows_times_design(a: np.ndarray) -> np.ndarray:  # row i: a[:, i] @ (S, column i = 1)
        out = a.T @ spins
        np.fill_diagonal(out, a.sum(axis=0))
        return out

    def evaluate(x: np.ndarray):
        w = x.reshape(n, n)
        miss = 1.0 - np.tanh(spins * fields(w))  # 2 (1 - sigma(2 s F))
        gradient = (rows_times_design(spins * miss) / t - 2.0 * ridge * w).ravel()
        miss *= 2.0 - miss  # 4 sigma (1 - sigma), the Hessian weights
        return miss, gradient

    def hessp(state, v: np.ndarray) -> np.ndarray:
        v = v.reshape(n, n)
        weighted = fields(v)
        weighted *= state[0]
        return (rows_times_design(weighted) / t + 2.0 * ridge * v).ravel()

    x, iterations, residual = newton(evaluate, hessp, np.zeros(n * n), tol, max_iter)
    return x.reshape(n, n), iterations, residual


def plm_fit(matrix: SpinMatrix, ridge: float = 1e-3, tol: float = 1e-8,
            max_iter: int = 500) -> FitReport:
    """Regularized pseudo-maximum-likelihood fit from raw spins.

    All N conditional logistic problems are solved as one (``_plm_rows``) and
    the asymmetric estimates symmetrized by averaging (Aurell & Ekeberg, PRL
    108, 090201, 2012).  ridge is the L2 penalty per sample on (h_i, J_i.).
    ``residual`` is the final max-abs gradient, also after max_iter steps.
    """
    if matrix.t < 2:
        raise InsufficientSampleError("pseudo-likelihood needs at least 2 rows")
    if ridge < 0.0:
        raise DivergenceError(f"ridge must be >= 0, got {ridge}")
    if ridge == 0.0:
        _check_design_rank(matrix)
    raw, iterations, residual = _plm_rows(matrix.values.astype(np.float64), ridge, tol, max_iter)
    unbounded = np.flatnonzero(np.abs(raw).max(axis=1) > _UNBOUNDED_PARAM)
    if ridge == 0.0 and unbounded.size:
        names = ", ".join(matrix.tickers[i] for i in unbounded)
        raise DivergenceError(f"spins (near) deterministic given the others: {names}; "
                              "the unregularized fit diverges, use ridge > 0")
    return FitReport(model=IsingModel(J=symmetrize(raw), h=np.diag(raw).copy()),
                     method="plm", iterations=iterations, residual=residual)


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
