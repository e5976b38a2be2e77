"""Exact computations over all 2^N configurations for small systems.

Partition function, Gibbs moments and entropy by direct enumeration, plus the
convex maximum-likelihood fit matching target moments and the pairwise
multi-information ratio I2/IN = (S1 - S2) / (S1 - SN) in nats.

Enumeration splits the spins into a low half (spins 0..N//2-1) and a high
half: a block of at most 2^20 states has energies E_hi[:, None] + E_lo[None, :]
+ S_hi J_hl S_lo^T, computed from (J, h) arrays, and the blocks raveled
row-major run in state_index order.  ln Z comes from one pass that reduces
each block in place around its max; moments, probabilities and entropy read a
second pass of ln p = E - ln Z blocks.  Moments are sums of weights (1, s,
s s^T) over a block.  A fit (N <= FIT_LIMIT) is one block whose spin tables
and two block-sized buffers are built once per fit: each Newton state holds
that block's p in one buffer, and a Hessian product weights p by the energies
of one direction in the other.  A fit starts from the first-order mean-field
inversion and falls back to the independent start h = atanh(q), J = 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BoundaryError,
    ConvergenceError,
    DegenerateRatioError,
    SingularMatrixError,
    SizeLimitError,
)
from .ingest import SpinMatrix
from .model import FitReport, IsingModel, energies
from .moments import EXACT_SAMPLE, MomentSet, empirical_moments, unseen_sign_warnings
from .newton import newton

ENUMERATION_LIMIT = 25  # partition function / moments / entropy
FIT_LIMIT = 20  # iterative fitting and configuration histograms
_BLOCK_BITS = 20


def _check_size(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise SizeLimitError(
            f"{what} enumerates 2^N configurations; N={n} exceeds the N<={limit} guard "
            "(use the Glauber sampler for larger systems)"
        )


def _spins(bits: int, start: int, stop: int) -> np.ndarray:
    """±1 rows for configuration indices start..stop-1, spin j at bit j."""
    idx = np.arange(start, stop, dtype=np.int64)
    return ((idx[:, None] >> np.arange(bits)) & 1) * 2.0 - 1.0


def _tables(n: int):
    """Yield the (S_hi, S_lo) spin tables of the blocks, in state_index order."""
    n_lo = n // 2
    s_lo = _spins(n_lo, 0, 1 << n_lo)
    rows = 1 << (_BLOCK_BITS - n_lo)
    for start in range(0, 1 << (n - n_lo), rows):
        yield _spins(n - n_lo, start, min(start + rows, 1 << (n - n_lo))), s_lo


def _energy(coupling: np.ndarray, field: np.ndarray, s_hi: np.ndarray, s_lo: np.ndarray,
            out: np.ndarray | None = None):
    """E[a, b]: the energy of the state whose high spins are S_hi[a], low spins S_lo[b].

    One product [S_hi J_hl, E_hi, 1] [S_lo^T; 1; E_lo] writes the whole block,
    into ``out`` if given.
    """
    lo, hi = slice(0, s_lo.shape[1]), slice(s_lo.shape[1], None)
    left = np.column_stack([s_hi @ coupling[hi, lo], energies(coupling[hi, hi], field[hi], s_hi),
                            np.ones(len(s_hi))])
    right = np.vstack([s_lo.T, np.ones(len(s_lo)), energies(coupling[lo, lo], field[lo], s_lo)])
    return np.matmul(left, right, out=out)


def _blocks(model: IsingModel):
    """Yield (E, S_hi, S_lo) blocks covering all 2^N states in state_index order."""
    for s_hi, s_lo in _tables(model.n):
        yield _energy(model.J, model.h, s_hi, s_lo), s_hi, s_lo


def _sums(p: np.ndarray, s_hi: np.ndarray, s_lo: np.ndarray, second: np.ndarray):
    """Sums of p (1, s) over one block of state weights p[a, b]; the s s^T sums fill second."""
    lo, hi = slice(0, s_lo.shape[1]), slice(s_lo.shape[1], None)
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    second[lo, lo] = (s_lo.T * cols) @ s_lo
    second[hi, hi] = (s_hi.T * rows) @ s_hi
    second[hi, lo] = s_hi.T @ p @ s_lo
    second[lo, hi] = second[hi, lo].T
    return rows.sum(), np.concatenate([cols @ s_lo, rows @ s_hi])


def state_index(spins: np.ndarray) -> np.ndarray:
    """Configuration index for ±1 rows: spin j maps to bit j, lowest bit first."""
    s = np.asarray(spins)
    weights = (1 << np.arange(s.shape[-1], dtype=np.int64))
    return ((s > 0).astype(np.int64) @ weights).astype(np.int64)


def log_partition(model: IsingModel) -> float:
    """ln Z from blocks reduced in place to (max E, sum e^(E - max E)); overflow safe."""
    _check_size(model.n, ENUMERATION_LIMIT, "log_partition")
    parts = []
    for energy, _, _ in _blocks(model):
        top = energy.max()
        energy -= top
        parts.append((top, np.exp(energy, out=energy).sum()))
    top, total = np.array(parts).T
    peak = top.max()
    return float(peak + np.log(np.exp(top - peak) @ total))


def _log_probabilities(model: IsingModel):
    """Yield (ln p, S_hi, S_lo) blocks in state_index order; ln p overwrites E in place."""
    log_z = log_partition(model)
    for energy, s_hi, s_lo in _blocks(model):
        energy -= log_z
        yield energy, s_hi, s_lo


def exact_moments(model: IsingModel) -> MomentSet:
    """<s_i> and <s_i s_j> under the Gibbs distribution (sample_size = exact)."""
    _check_size(model.n, ENUMERATION_LIMIT, "exact_moments")
    n = model.n
    q, big_q, second = np.zeros(n), np.zeros((n, n)), np.empty((n, n))
    for ln_p, s_hi, s_lo in _log_probabilities(model):
        q += _sums(np.exp(ln_p, out=ln_p), s_hi, s_lo, second)[1]
        big_q += second
    return MomentSet(q=q, Q=MomentSet.symmetric_unit(big_q), sample_size=EXACT_SAMPLE)


def gibbs_probabilities(model: IsingModel) -> np.ndarray:
    """All 2^N state probabilities, indexed by state_index ordering (N <= FIT_LIMIT)."""
    _check_size(model.n, FIT_LIMIT, "gibbs_probabilities")
    return np.concatenate([np.exp(ln_p, out=ln_p).ravel()
                           for ln_p, _, _ in _log_probabilities(model)])


def entropy_exact(model: IsingModel) -> float:
    """Gibbs entropy in nats, S = -sum p ln p."""
    _check_size(model.n, ENUMERATION_LIMIT, "entropy_exact")
    return -float(sum(np.vdot(np.exp(ln_p), ln_p) for ln_p, _, _ in _log_probabilities(model)))


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, 0 where x = 0; libm's log, like scipy.special.xlogy(x, x)."""
    out = np.zeros_like(x)
    nonzero = x != 0
    out[nonzero] = [v * math.log(v) for v in x[nonzero].tolist()]
    return out


def entropy_independent(q: np.ndarray) -> float:
    """Entropy of the independent-spin model with means q, in nats."""
    q = np.asarray(q, dtype=np.float64)
    if np.any(np.abs(q) > 1.0):
        raise BoundaryError("mean orientations must lie in [-1, 1]")
    p = 0.5 * (1.0 + q)
    return float(-(_xlogx(p) + _xlogx(1.0 - p)).sum())


def entropy_empirical(matrix: SpinMatrix) -> float:
    """Plug-in entropy of the observed configuration histogram, in nats."""
    _check_size(matrix.n, FIT_LIMIT, "entropy_empirical")
    counts = np.bincount(state_index(matrix.values), minlength=1 << matrix.n)
    p = counts / matrix.t
    return float(-_xlogx(p).sum())


def fit_maxent_exact(targets: MomentSet, tol: float = 1e-8, max_iter: int = 500) -> FitReport:
    """Fit (J, h) so that exact Gibbs moments match the targets.

    The shared damped Newton-CG solver (``newton.newton``) on the convex
    ln Z(theta) - theta . target.  The gradient g is the moment residual
    (target minus model moments of phi = (s_i, s_i s_j)); the Hessian H is
    Cov(phi, phi), and H v sums the state's p times the energy phi . v of the
    couplings and fields read from v.  The solver's damping keeps early steps
    out of near-frozen models, where H is nearly singular.

    The solver starts from the first-order mean-field inversion
    (``inverse.nmf_invert``), which is near the optimum for weak couplings.
    It starts again from the independent model h = atanh(q), J = 0 if that
    inversion raises SingularMatrixError or its run ends above tol, as it can
    on near-frozen data whose mean-field couplings are far too large; the
    result is then the second run's.

    ``warnings`` names the pairs with an empty 2x2 sign-table cell
    (``unseen_sign_warnings``): their J_ij diverges, so tol sets the fitted value.
    ``iterations`` counts the Newton steps of the reported run.  Raises
    ConvergenceError with the last iterate if the max-abs residual is above tol
    after max_iter steps, or once no step size reduces |g|.
    """
    from .inverse import nmf_invert  # inverse imports this module

    n = targets.n
    _check_size(n, FIT_LIMIT, "fit_maxent_exact")
    q_t = targets.q
    if np.any(np.abs(q_t) >= 1.0):
        raise BoundaryError("a target mean has |q_i| = 1; the conjugate field diverges")

    iu = np.triu_indices(n, k=1)
    target = np.concatenate([q_t, targets.Q[iu]])

    [(s_hi, s_lo)] = _tables(n)  # N <= FIT_LIMIT: one block, built once per fit
    second = np.empty((n, n))
    # newton keeps at most one state alive, so one p buffer serves every state
    p_block, weighted_block = np.empty((2, len(s_hi), len(s_lo)))

    def couplings(theta: np.ndarray) -> np.ndarray:
        coupling = np.zeros((n, n))
        coupling[iu] = theta[n:]
        return coupling + coupling.T

    def evaluate(theta: np.ndarray):
        p = _energy(couplings(theta), theta[:n], s_hi, s_lo, out=p_block)
        p -= p.max()
        np.exp(p, out=p)
        p /= p.sum()
        first = _sums(p, s_hi, s_lo, second)[1]
        return p, target - np.concatenate([first, second[iu]])

    def hessp(state, v: np.ndarray) -> np.ndarray:
        p, gradient = state
        weighted = _energy(couplings(v), v[:n], s_hi, s_lo, out=weighted_block)
        weighted *= p
        total, first = _sums(weighted, s_hi, s_lo, second)
        return np.concatenate([first, second[iu]]) - (target - gradient) * total

    starts = [np.concatenate([np.arctanh(q_t), np.zeros(len(iu[0]))])]
    try:
        mean_field = nmf_invert(targets).model
    except SingularMatrixError:
        pass
    else:
        starts.insert(0, np.concatenate([mean_field.h, mean_field.J[iu]]))
    for start in starts:
        theta, iterations, residual = newton(evaluate, hessp, start, tol, max_iter)
        if residual <= tol:
            break

    report = FitReport(model=IsingModel(J=couplings(theta), h=theta[:n]), method="exact",
                       iterations=iterations, residual=residual,
                       warnings=unseen_sign_warnings(targets))
    if residual <= tol:
        return report
    raise ConvergenceError(
        f"exact fit residual {residual:.3e} > tol {tol:.3e} after {iterations} iterations",
        best=report,
    )


@dataclass
class EntropyReport:
    """Entropies of the independent, pairwise and empirical descriptions (nats)."""

    S1: float
    S2: float
    SN: float
    I2: float
    IN: float
    ratio: float
    small_sample: bool
    units: str = "nats"

    def to_dict(self) -> dict:
        return asdict(self)


def multi_information_ratio(
    matrix: SpinMatrix,
    tol: float = 1e-6,
    fit_tol: float = 1e-8,
    max_iter: int = 500,
) -> EntropyReport:
    """Share of total correlation captured at pairwise order.

    S1 from the independent fit, S2 from the exact pairwise fit, SN from the
    plug-in configuration histogram; ratio = (S1 - S2) / (S1 - SN).  The
    report flags T < 10 * 2^N as a small-sample regime (plug-in SN is biased
    low there).
    """
    _check_size(matrix.n, FIT_LIMIT, "multi_information_ratio")
    moments = empirical_moments(matrix)
    s1 = entropy_independent(moments.q)
    sn = entropy_empirical(matrix)
    i_n = s1 - sn
    if i_n <= tol:  # checked before fitting: degenerate data may sit on the boundary
        raise DegenerateRatioError(
            f"multi-information I_N = {i_n:.3e} <= tol {tol:.3e}; "
            "data is indistinguishable from independent spins"
        )
    fit = fit_maxent_exact(moments, tol=fit_tol, max_iter=max_iter)
    s2 = entropy_exact(fit.model)
    i2 = s1 - s2
    return EntropyReport(
        S1=s1,
        S2=s2,
        SN=sn,
        I2=i2,
        IN=i_n,
        ratio=i2 / i_n,
        small_sample=matrix.t < 10 * (1 << matrix.n),
    )
