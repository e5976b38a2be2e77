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
from .moments import MomentSet, empirical_moments, unseen_sign_warnings
from .newton import newton

CONDITION_LIMIT = 1e12
_CLAMP_ESCALATION = 0.2
_SPLIT_WORK = 2**22  # t n^2 multiply-adds a GEMM from which a PLM fit uses two threads


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


def _uncertified(matrix: SpinMatrix, w: np.ndarray) -> Iterator[str]:
    """The spins whose ridge-0 estimate W certifies no finite maximum.

    Spin i's rows a_t = s_i(t) (1, s_j(t), j != i) admit one iff some y > 0 has
    A^T y = 0 (Stiemke's lemma).  The fit's weights y = 1 - tanh(A w_i) pass if
    the least relative change balancing them, shrink = B (B^T B)^+ A^T y with
    B = diag(y) A, keeps them positive (below 1/2) and leaves at most 1e-6 of A^T y.
    """
    for i, s in enumerate(matrix.values.T.astype(np.float64)):
        a = np.where(np.arange(matrix.n) == i, 1, matrix.values) * s[:, None]  # i: intercept
        y = 1.0 - np.tanh(a @ w[i])  # exactly 0 where tanh rounds to 1: no certificate
        b, balance = a * y[:, None], a.T @ y
        shrink = b @ np.linalg.lstsq(b.T @ b, balance, rcond=None)[0]
        if ((y * (0.5 - shrink)).min() <= 0.0
                or np.abs(balance - b.T @ shrink).max() > 1e-6 * np.abs(balance).max()):
            yield matrix.tickers[i]


def _pinned(spins: np.ndarray) -> np.ndarray:
    """Mask of the spins that are constant or equal or opposite to another spin.

    One Gram matrix of (1, S) gives both: |q_i| = 1 or |Q_ij| = 1.  The sums
    are integers, exact in float64, so the test is exact.
    """
    t = len(spins)
    design = np.column_stack([np.ones(t), spins])
    tied = np.abs(design.T @ design) == t
    np.fill_diagonal(tied, False)
    return tied[1:].any(axis=1)


def _plm_rows(spins: np.ndarray, ridge: float, tol: float, max_iter: int,
              held: np.ndarray | None = None):
    """Asymmetric pseudo-likelihood estimate W, one row per spin.

    Row i holds (J_i., h_i on the diagonal); spin i's local fields are column i
    of F = S J^T + h (J: W off its diagonal, h: diag W).  The concave objective
        sum_i [ mean_t log sigma(2 s_i(t) F_i(t)) - ridge |W_i.|^2 ]
    is maximized by the shared damped Newton-CG solver, with two GEMMs per
    gradient and per Hessian product.  The rows that the mask held selects stay
    at zero; the rows are separate problems, so the others are fitted as alone.
    Returns (W, iterations, max-abs gradient).

    From _SPLIT_WORK multiply-adds a GEMM, each gradient and product runs in two
    phases split in halves, one half on the thread of a one-worker pool: the
    fields on row halves of S, then the products with S on column halves.  The
    pool is joined on every exit, so no half outlives the fit.  Every entry is
    computed as without the split, so W does not depend on it.
    """
    t, n = spins.shape
    parts = 2 if t * n * n >= _SPLIT_WORK else 1
    rows = [slice(k * t // parts, (k + 1) * t // parts) for k in range(parts)]
    cols = [slice(k * n // parts, (k + 1) * n // parts) for k in range(parts)]
    # T x N workspace: newton keeps at most one state, so evaluate may reuse miss
    miss, signed, weighted = np.empty((t, n)), np.empty((t, n)), np.empty((t, n))

    def run(job):  # job(k) for every part k, part 1 on the pool's thread
        if parts == 1:
            return job(0)
        half = pool.submit(job, 1)
        job(0)
        half.result()

    def unpack(w: np.ndarray):  # (J^T, h) of W
        off = w.copy()
        off.reshape(-1)[::n + 1] = 0.0
        return off.T, w.diagonal()

    def fields(jt: np.ndarray, h: np.ndarray, out: np.ndarray, r: slice):  # rows r of F
        np.matmul(spins[r], jt, out=out[r])
        out[r] += h

    def rows_times_design(a: np.ndarray, out: np.ndarray, c: slice):  # rows c of out
        np.matmul(a[:, c].T, spins, out=out[c])  # row i: a[:, i] @ (S, column i = 1)
        out.reshape(-1)[c.start * (n + 1):c.stop * (n + 1):n + 1] = a[:, c].sum(axis=0)

    def evaluate(x: np.ndarray):
        w = x.reshape(n, n)
        jt, h = unpack(w)

        def weigh(k):
            r = rows[k]
            fields(jt, h, miss, r)
            miss[r] *= spins[r]
            np.tanh(miss[r], out=miss[r])
            np.subtract(1.0, miss[r], out=miss[r])  # 2 (1 - sigma(2 s F))
            np.multiply(spins[r], miss[r], out=signed[r])
            np.subtract(2.0, miss[r], out=weighted[r])
            miss[r] *= weighted[r]  # 4 sigma (1 - sigma), the Hessian weights
        run(weigh)
        gradient = np.empty((n, n))
        run(lambda k: rows_times_design(signed, gradient, cols[k]))
        gradient /= t
        gradient -= 2.0 * ridge * w
        if held is not None:
            gradient[held] = 0.0
        return miss, gradient.ravel()

    def hessp(state, v: np.ndarray) -> np.ndarray:
        v = v.reshape(n, n)
        jt, h = unpack(v)

        def weigh(k):
            fields(jt, h, weighted, rows[k])
            weighted[rows[k]] *= state[0][rows[k]]
        run(weigh)
        product = np.empty((n, n))
        run(lambda k: rows_times_design(weighted, product, cols[k]))
        product /= t
        product += 2.0 * ridge * v
        return product.ravel()

    start = np.zeros(n * n)
    if parts == 1:
        x, iterations, residual = newton(evaluate, hessp, start, tol, max_iter)
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging, so not at import

        # should job(0) raise, leaving the block waits out the half still in the workspace
        with ThreadPoolExecutor(1, "plm-half") as pool:
            x, iterations, residual = newton(evaluate, hessp, start, tol, max_iter)
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
    if ridge == 0.0 and (names := ", ".join(_uncertified(matrix, raw))):
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
