"""Exact computations over all 2^N configurations for small systems.

Partition function, Gibbs moments and entropy by direct enumeration, plus the
convex maximum-likelihood fit matching target moments and the pairwise
multi-information ratio I2/IN = (S1 - S2) / (S1 - SN) in nats.

Enumeration splits the spins into a low half (spins 0..N//2-1) and a high
half: a block of at most 2^20 states has energies E_hi[:, None] + E_lo[None, :]
+ S_hi J_hl S_lo^T, and the blocks raveled row-major run in state_index order.
Moments are sums of weights (1, s, s s^T) over a block.  A fit (N <= FIT_LIMIT)
is one block: each Newton state holds that block's p, and a Hessian product
weights p by the energies of one direction model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import logsumexp, xlogy

from .errors import (
    BoundaryError,
    ConvergenceError,
    DegenerateRatioError,
    SizeLimitError,
)
from .ingest import SpinMatrix
from .model import FitReport, IsingModel
from .moments import EXACT_SAMPLE, MomentSet, empirical_moments
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


def _blocks(model: IsingModel):
    """Yield (E, S_hi, S_lo) blocks covering all 2^N states in state_index order.

    E[a, b] is the energy of the state whose high spins are S_hi[a] and whose
    low spins are S_lo[b].
    """
    n, n_lo = model.n, model.n // 2
    lo, hi = slice(0, n_lo), slice(n_lo, n)
    s_lo = _spins(n_lo, 0, 1 << n_lo)
    e_lo = IsingModel(J=model.J[lo, lo], h=model.h[lo]).energies(s_lo)
    upper = IsingModel(J=model.J[hi, hi], h=model.h[hi])
    rows = 1 << (_BLOCK_BITS - n_lo)
    for start in range(0, 1 << (n - n_lo), rows):
        s_hi = _spins(n - n_lo, start, min(start + rows, 1 << (n - n_lo)))
        energy = (s_hi @ model.J[hi, lo]) @ s_lo.T
        energy += upper.energies(s_hi)[:, None]
        energy += e_lo
        yield energy, s_hi, s_lo


def _sums(p: np.ndarray, s_hi: np.ndarray, s_lo: np.ndarray):
    """Sums of p (1, s, s s^T) over one block of state weights p[a, b]."""
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    cross = s_hi.T @ p @ s_lo
    second = np.block([[(s_lo.T * cols) @ s_lo, cross.T],
                       [cross, (s_hi.T * rows) @ s_hi]])
    return rows.sum(), np.concatenate([cols @ s_lo, rows @ s_hi]), second


def state_index(spins: np.ndarray) -> np.ndarray:
    """Configuration index for ±1 rows: spin j maps to bit j, lowest bit first."""
    s = np.asarray(spins)
    weights = (1 << np.arange(s.shape[-1], dtype=np.int64))
    return ((s > 0).astype(np.int64) @ weights).astype(np.int64)


def log_partition(model: IsingModel) -> float:
    """ln Z, a logsumexp over the per-block logsumexps (overflow safe)."""
    _check_size(model.n, ENUMERATION_LIMIT, "log_partition")
    return float(logsumexp([logsumexp(energy) for energy, _, _ in _blocks(model)]))


def exact_moments(model: IsingModel) -> MomentSet:
    """<s_i> and <s_i s_j> under the Gibbs distribution (sample_size = exact)."""
    _check_size(model.n, ENUMERATION_LIMIT, "exact_moments")
    log_z = log_partition(model)
    sums = [_sums(np.exp(energy - log_z), s_hi, s_lo) for energy, s_hi, s_lo in _blocks(model)]
    _, q, big_q = (sum(column) for column in zip(*sums))
    big_q = 0.5 * (big_q + big_q.T)
    np.fill_diagonal(big_q, 1.0)
    return MomentSet(q=q, Q=big_q, C=big_q - np.outer(q, q), sample_size=EXACT_SAMPLE)


def gibbs_probabilities(model: IsingModel) -> np.ndarray:
    """All 2^N state probabilities, indexed by state_index ordering (N <= FIT_LIMIT)."""
    _check_size(model.n, FIT_LIMIT, "gibbs_probabilities")
    log_z = log_partition(model)
    return np.concatenate([np.exp(energy - log_z).ravel() for energy, _, _ in _blocks(model)])


def entropy_exact(model: IsingModel) -> float:
    """Gibbs entropy in nats via S = ln Z - <E>."""
    _check_size(model.n, ENUMERATION_LIMIT, "entropy_exact")
    log_z = log_partition(model)
    mean_energy = sum(np.vdot(np.exp(energy - log_z), energy) for energy, _, _ in _blocks(model))
    return float(log_z - mean_energy)


def entropy_independent(q: np.ndarray) -> float:
    """Entropy of the independent-spin model with means q, in nats."""
    q = np.asarray(q, dtype=np.float64)
    if np.any(np.abs(q) > 1.0):
        raise BoundaryError("mean orientations must lie in [-1, 1]")
    p = 0.5 * (1.0 + q)
    return float(-(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)).sum())


def entropy_empirical(matrix: SpinMatrix) -> float:
    """Plug-in entropy of the observed configuration histogram, in nats."""
    _check_size(matrix.n, FIT_LIMIT, "entropy_empirical")
    counts = np.bincount(state_index(matrix.values), minlength=1 << matrix.n)
    p = counts / matrix.t
    return float(-xlogy(p, p).sum())


def fit_maxent_exact(targets: MomentSet, tol: float = 1e-8, max_iter: int = 500) -> FitReport:
    """Fit (J, h) so that exact Gibbs moments match the targets.

    The shared damped Newton-CG solver (``newton.newton``) on the convex
    ln Z(theta) - theta . target, from h = atanh(q), J = 0.  The gradient g is
    the moment residual (target minus model moments of phi = (s_i, s_i s_j));
    the Hessian H is Cov(phi, phi), and H v sums the state's p times the
    energy phi . v of the model built from v.  The solver's damping keeps
    early steps out of near-frozen models, where H is nearly singular.

    ``warnings`` names the pairs whose 2x2 sign table (1 + a q_i + b q_j +
    ab Q_ij) / 4, a, b = +-1, has a cell below half a count (0 for exact
    targets): their J_ij diverges, so tol sets the fitted value.
    ``iterations`` counts Newton steps.  Raises ConvergenceError with the last
    iterate if the max-abs residual is above tol after max_iter steps, or once
    no step size reduces |g|.
    """
    n = targets.n
    _check_size(n, FIT_LIMIT, "fit_maxent_exact")
    q_t = targets.q
    if np.any(np.abs(q_t) >= 1.0):
        raise BoundaryError("a target mean has |q_i| = 1; the conjugate field diverges")

    iu = np.triu_indices(n, k=1)
    target = np.concatenate([q_t, targets.Q[iu]])

    def model_of(theta: np.ndarray) -> IsingModel:
        coupling = np.zeros((n, n))
        coupling[iu] = theta[n:]
        return IsingModel(J=coupling + coupling.T, h=theta[:n])

    def evaluate(theta: np.ndarray):
        [(energy, s_hi, s_lo)] = _blocks(model_of(theta))  # N <= FIT_LIMIT: one block
        energy -= logsumexp(energy)
        p = np.exp(energy, out=energy)
        _, first, second = _sums(p, s_hi, s_lo)
        return p, target - np.concatenate([first, second[iu]])

    def hessp(state, v: np.ndarray) -> np.ndarray:
        p, gradient = state
        [(weighted, s_hi, s_lo)] = _blocks(model_of(v))
        weighted *= p
        total, first, second = _sums(weighted, s_hi, s_lo)
        return np.concatenate([first, second[iu]]) - (target - gradient) * total

    theta, iterations, residual = newton(
        evaluate, hessp, np.concatenate([np.arctanh(q_t), np.zeros(len(iu[0]))]), tol, max_iter)

    smallest = np.min([1.0 + a * q_t[iu[0]] + b * q_t[iu[1]] + a * b * targets.Q[iu]
                       for a in (1, -1) for b in (1, -1)], axis=0) / 4.0
    pairs = [f"({i}, {j})" for i, j, c in zip(*iu, smallest) if c < 0.5 / targets.sample_size]
    warnings = [f"spin pairs {', '.join(pairs)} never show one of the four sign "
                "combinations; their couplings diverge and tol sets them"] if pairs else []
    report = FitReport(model=model_of(theta), method="exact", iterations=iterations,
                       residual=residual, warnings=warnings)
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
