"""Approximate inverse solvers: mean-field inversions and pseudo-likelihood.

All three return a FitReport with a symmetric zero-diagonal coupling matrix;
``fit`` dispatches to them, and to the exact fit, by method name.  The
pseudo-likelihood and the exact fit share one damped Newton-CG solver.
The second-order inversion solves, pair by pair with a = q_i q_j and
c = (C^-1)_ij,

    c = -J_ij - a J_ij^2,

keeping the small root in its rationalized form

    J_ij = -2c / (1 + sqrt(1 - 4ac)),

which never divides by a: at a = 0 it is the first-order value -c.  A pair
with 4ac > 1 has no real root and takes the double root -1 / (2a), written
-2c / (4ac) so that one expression covers both cases.
"""

from __future__ import annotations

import inspect
from collections.abc import Iterator

import numpy as np

from ._native import blas_threads
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
from .moments import MomentSet, empirical_moments, moment_matrix, unseen_sign_warnings
from .newton import newton

CONDITION_LIMIT = 1e12
_CLAMP_ESCALATION = 0.2
_THREADED_WORK = 2**22  # t n^2 multiply-adds a GEMM from which a PLM fit uses two BLAS threads


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
    return FitReport(model=IsingModel(J=coupling, h=h), method="nmf", iterations=1,
                     warnings=unseen_sign_warnings(moments))


def tap_invert(moments: MomentSet, ridge: float = 0.0, strict: bool = False) -> FitReport:
    """Second-order mean-field inversion with clamped-discriminant telemetry.

    Negative discriminants 1 - 4ac (noise-driven insoluble pairs) are clamped
    to zero, counted and reported; a clamp fraction above 20% raises under
    strict mode.  Fields are recovered from the TAP relation
    h_i = atanh(q_i) - sum_j J_ij q_j + q_i sum_j J_ij^2 (1 - q_j^2).
    """
    q = moments.q
    if np.any(np.abs(q) >= 1.0):
        raise DivergenceError("|q_i| = 1 makes the second-order inversion singular")
    c_inv = _inverse_correlations(moments.C, ridge)

    four_ac = 4.0 * np.outer(q, q) * c_inv
    np.fill_diagonal(four_ac, 0.0)  # no pair: symmetrize zeroes its coupling
    clamped = int(np.count_nonzero(four_ac > 1.0)) // 2
    root = 1.0 + np.sqrt(np.maximum(1.0 - four_ac, 0.0))
    coupling = symmetrize(-2.0 * c_inv / np.maximum(root, four_ac))

    warnings_list = []
    if clamped:
        n_pairs = moments.n * (moments.n - 1) // 2
        fraction = clamped / n_pairs
        message = (f"clamped {clamped} of {n_pairs} pair discriminants "
                   f"({100.0 * fraction:.1f}%) to zero")
        if strict and fraction > _CLAMP_ESCALATION:
            raise ReliabilityError(message + "; inversion unreliable under strict mode")
        warnings_list.append(message)
    warnings_list += unseen_sign_warnings(moments)  # the clamp count stays first

    h = np.arctanh(q) - coupling @ q + q * ((coupling**2) @ (1.0 - q**2))
    return FitReport(model=IsingModel(J=coupling, h=h), method="tap-inv", iterations=1,
                     warnings=warnings_list)


def _uncertified(spins: np.ndarray, tickers: list[str], w: np.ndarray) -> Iterator[str]:
    """The tickers of the float spins whose ridge-0 estimate W certifies no finite maximum.

    Spin i's rows a_t = s_i(t) (1, s_j(t), j != i) admit one iff some y > 0 has
    A^T y = 0 (Stiemke's lemma).  The fit's weights y = 1 - tanh(A w_i) pass if
    the least relative change balancing them, shrink = B (B^T B)^+ A^T y with
    B = diag(y) A, keeps them positive (below 1/2) and leaves at most 1e-6 of A^T y.
    """
    for i, s in enumerate(spins.T):
        a = np.where(np.arange(spins.shape[1]) == i, 1.0, spins) * s[:, None]  # i: intercept
        y = 1.0 - np.tanh(a @ w[i])  # exactly 0 where tanh rounds to 1: no certificate
        b, balance = a * y[:, None], a.T @ y
        shrink = b @ np.linalg.lstsq(b.T @ b, balance, rcond=None)[0]
        if ((y * (0.5 - shrink)).min() <= 0.0
                or np.abs(balance - b.T @ shrink).max() > 1e-6 * np.abs(balance).max()):
            yield tickers[i]


def _pinned(spins: np.ndarray) -> np.ndarray:
    """Mask of the spins that are constant or equal or opposite to another spin.

    One moment matrix of (1, S) gives both: |q_i| = 1 or |Q_ij| = 1.  Its sums
    are integers, exact in float64, so the test is exact.
    """
    tied = np.abs(moment_matrix(spins)) == 1.0
    np.fill_diagonal(tied, False)
    return tied[1:].any(axis=1)


def _moment_preconditioner(spins: np.ndarray, ridge: float):
    """newton's precondition(state, shift) for the PLM rows; None at ridge 0.

    Row i's Hessian (1/T) A_i^T diag(w_i) A_i + 2 ridge I, A_i = (1, S) with s_i's
    column made the intercept, is preconditioned by M_i = c_i G_i + sigma I:
    c_i the mean of w_i, column i of state[0]; sigma = 2 ridge + shift; G_i
    the moment matrix G = [1 S]^T [1 S] / T without s_i, the intercept in its
    place.  G = U diag(lam) U^T once per fit gives B_i = (c_i G + sigma I)^-1 =
    U diag(1 / (c_i lam + sigma)) U^T, and with k = i + 1 and -k every other
    index, M_i^-1 = B_i[-k, -k] - B_i[-k, k] B_i[k, -k] / B_i[k, k]: two
    N x (N+1) x (N+1) GEMMs a solve.

    sigma stays inside the inverse: beside an inverted G, a bare sigma I took
    3x the products on C13's ordered samples.  At ridge 0, the certificate's
    fit, separable rows have weights far from constant, so it keeps plain CG.
    """
    if ridge == 0.0:
        return None
    n = spins.shape[1]
    eigenvalues, basis = np.linalg.eigh(moment_matrix(spins))
    eigenvalues = np.maximum(eigenvalues, 0.0)  # G is semidefinite; no rounding below 0
    rows, pivots = np.arange(n), np.arange(1, n + 1)

    def precondition(state, shift: float):
        spectrum = 1.0 / (np.outer(state[0].mean(axis=0), eigenvalues) + (2.0 * ridge + shift))
        downdate = (spectrum * basis[1:]) @ basis.T  # row i: B_i[:, k]
        downdate /= downdate[rows, pivots][:, None]  # over B_i[k, k]

        def psolve(r: np.ndarray) -> np.ndarray:
            r = r.reshape(n, n)
            moved = np.concatenate([r.diagonal()[:, None], r], axis=1)  # r_ii to index 0
            np.fill_diagonal(moved[:, 1:], 0.0)
            z = ((moved @ basis) * spectrum) @ basis.T  # row i: B_i moved_i
            z -= downdate * z[rows, pivots][:, None]  # B_i[k, :] moved_i = z[i, k]
            out = z[:, 1:]
            np.fill_diagonal(out, z[:, 0])
            return out.ravel()
        return psolve
    return precondition


def _plm_rows(spins: np.ndarray, ridge: float, tol: float, max_iter: int,
              held: np.ndarray | None = None):
    """Asymmetric pseudo-likelihood estimate W, one row per spin.

    Row i holds (J_i., h_i on the diagonal); spin i's local fields are column i
    of F = S J^T + h (J: W off its diagonal, h: diag W).  The concave objective
        sum_i [ mean_t log sigma(2 s_i(t) F_i(t)) - ridge |W_i.|^2 ]
    is maximized by the shared damped Newton-CG solver, with two GEMMs per
    gradient and per Hessian product; at ridge > 0 its CG solves are
    preconditioned by the damped moment matrix (``_moment_preconditioner``).
    The rows that the mask held selects stay at zero; the rows are separate
    problems, so the others are fitted as alone.
    Returns (W, iterations, max-abs gradient).

    From _THREADED_WORK multiply-adds a GEMM, the fit runs with OpenBLAS on at
    least two threads (``_native.blas_threads``), smaller fits at its own
    count.  A threaded BLAS blocks a GEMM by its thread count, so W's last
    bits follow the count that the fit ran at.
    """
    t, n = spins.shape
    # T x N workspace: newton keeps at most one state, so evaluate may reuse miss
    fields, miss, signed = (np.empty((t, n)) for _ in range(3))

    def product(v: np.ndarray, weigh) -> np.ndarray:
        """Row i: a[:, i] @ (S, column i = 1) / t, a = weigh(F)."""
        off = v.copy()
        off.reshape(-1)[::n + 1] = 0.0
        np.matmul(spins, off.T, out=fields)
        a = weigh(np.add(fields, v.diagonal(), out=fields))
        out = a.T @ spins
        np.fill_diagonal(out, a.sum(axis=0))
        out /= t
        return out

    def signed_miss(f):  # also leaves the Hessian weights in miss
        np.multiply(f, spins, out=miss)
        np.tanh(miss, out=miss)
        np.subtract(1.0, miss, out=miss)  # 2 (1 - sigma(2 s F))
        np.multiply(spins, miss, out=signed)
        np.subtract(2.0, miss, out=f)
        np.multiply(miss, f, out=miss)  # 4 sigma (1 - sigma), the Hessian weights
        return signed

    def evaluate(x: np.ndarray):
        w = x.reshape(n, n)
        gradient = product(w, signed_miss)
        gradient -= 2.0 * ridge * w
        if held is not None:
            gradient[held] = 0.0
        return miss, gradient.ravel()

    def hessp(state, v: np.ndarray) -> np.ndarray:
        v = v.reshape(n, n)
        out = product(v, lambda f: np.multiply(f, state[0], out=f))
        out += 2.0 * ridge * v
        return out.ravel()

    with blas_threads(2 if t * n * n >= _THREADED_WORK else 1):
        x, iterations, residual = newton(evaluate, hessp, np.zeros(n * n), tol, max_iter,
                                         _moment_preconditioner(spins, ridge))
    return x.reshape(n, n), iterations, residual


def plm_fit(matrix: SpinMatrix, ridge: float = 1e-3, tol: float = 1e-8,
            max_iter: int = 500) -> FitReport:
    """Regularized pseudo-maximum-likelihood fit from raw spins.

    All N conditional logistic problems are solved as one (``_plm_rows``) and
    the asymmetric estimates symmetrized by averaging (Aurell & Ekeberg, PRL
    108, 090201, 2012).  ridge is the L2 penalty per sample on (h_i, J_i.).
    ``residual`` is the final max-abs gradient, also after max_iter steps.

    At ridge 0 DivergenceError names each spin whose fit certifies no finite
    maximum (``_uncertified``), as separable rows have none (Albert & Anderson,
    Biometrika 71:1, 1984).  If none is named, each maximum is also unique: a
    column of (1, S) fixed by the others would make its spin separable.  A
    spin that is constant or equal or opposite to another (``_pinned``) is
    separable at sight: its row is held at zero instead of fitted, which
    skips its divergent fit, and the certificate of that zero row fails.
    """
    if matrix.t < 2:
        raise InsufficientSampleError("pseudo-likelihood needs at least 2 rows")
    if ridge < 0.0:
        raise DivergenceError(f"ridge must be >= 0, got {ridge}")
    spins = matrix.values.astype(np.float64)
    held = _pinned(spins) if ridge == 0.0 else None
    raw, iterations, residual = _plm_rows(spins, ridge, tol, max_iter, held)
    if ridge == 0.0 and (names := ", ".join(_uncertified(spins, matrix.tickers, raw))):
        raise DivergenceError(f"no finite maximum is certified for spins {names}; use ridge > 0")
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
