"""Empirical first/second moments, connected correlations and spectra.

q_i = (1/T) sum_t s_i(t), q_ij = (1/T) sum_t s_i(t) s_j(t), C = Q - q q^T.
The Pearson correlation of ±1 columns is C_ij / sqrt(C_ii C_jj), computed
from the moment set so the data is read once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, FormatError, InsufficientSampleError
from .ingest import SpinMatrix
from .model import checked_int

EXACT_SAMPLE = math.inf  # sample_size sentinel for enumeration-derived moments
_ROUNDING = 1e-12  # a sign-table cell below 0, Q's asymmetry or diagonal this far off is rounding
_SAFE_EXPONENT = 200  # unit_scaled leaves values up to 2^200 (1.6e60) as they are


@dataclass
class MomentSet:
    """Mean orientations q and pair moments Q; C is derived from them."""

    q: np.ndarray
    Q: np.ndarray
    sample_size: float  # T, or EXACT_SAMPLE for enumeration moments

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)

    @property
    def C(self) -> np.ndarray:
        """Connected correlations Q - q q^T."""
        return self.Q - np.outer(self.q, self.q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def is_exact(self) -> bool:
        return math.isinf(self.sample_size)

    def to_dict(self) -> dict:
        return {
            "N": self.n,
            "sample_size": None if self.is_exact else int(self.sample_size),
            "q": self.q.tolist(),
            "Q": self.Q.tolist(),
            "C": self.C.tolist(),
        }

    @staticmethod
    def symmetric_unit(big_q: np.ndarray) -> np.ndarray:
        """(Q + Q^T) / 2 with a unit diagonal, as moments of +-1 spins hold exactly."""
        big_q = 0.5 * (big_q + big_q.T)
        np.fill_diagonal(big_q, 1.0)
        return big_q

    @classmethod
    def from_dict(cls, d: dict) -> "MomentSet":
        """Read q and Q (the "C" that to_dict writes is not read back); FormatError unless
        they are moments of +-1 spins (Q symmetric with a unit diagonal and no 2x2
        sign-table cell below 0, each beyond rounding), N (if given) is their size and
        sample_size is null (exact) or an integer >= 2.  Q is stored as symmetric_unit
        makes it."""
        q = np.asarray(d["q"], dtype=np.float64)
        big_q = np.asarray(d["Q"], dtype=np.float64)
        if q.ndim != 1 or big_q.shape != (len(q), len(q)):
            raise FormatError("moments need a vector q of N means and an N x N matrix Q")
        if "N" in d and checked_int(d["N"], 1, "N") != len(q):
            raise FormatError(f"moments file says N = {d['N']} but q has {len(q)} entries")
        if not (np.isfinite(q).all() and np.isfinite(big_q).all()):
            raise FormatError("moments q and Q must be finite")
        if (np.any(np.abs(big_q - big_q.T) > _ROUNDING)
                or np.any(np.abs(np.diag(big_q) - 1.0) > _ROUNDING)):
            raise FormatError("moment matrix Q must be symmetric with a unit diagonal")
        big_q = cls.symmetric_unit(big_q)
        if np.any(np.abs(q) > 1.0) or np.any(np.abs(big_q) > 1.0):
            raise FormatError("moments of +-1 spins must lie in [-1, 1]")
        smallest, (i, j) = _smallest_sign_cells(q, big_q)
        bad = np.flatnonzero(smallest < -_ROUNDING)
        if bad.size:
            k = bad[0]
            raise FormatError(f"no +-1 spins have these moments: the 2x2 sign table of "
                              f"pair ({i[k]}, {j[k]}) has a cell of {smallest[k]:.6g}")
        size = d.get("sample_size")
        return cls(q=q, Q=big_q, sample_size=EXACT_SAMPLE if size is None
                   else float(checked_int(size, 2, "sample_size")))


def _smallest_sign_cells(q: np.ndarray, big_q: np.ndarray):
    """Per pair i < j, the smallest cell of its 2x2 sign table (1 + a q_i + b q_j +
    ab Q_ij) / 4, a, b = +-1: the share of rows that show signs (a, b).  Returns
    the cells and the pairs' (i, j) index arrays."""
    iu = np.triu_indices(len(q), k=1)
    smallest = np.min([1.0 + a * q[iu[0]] + b * q[iu[1]] + a * b * big_q[iu]
                       for a in (1, -1) for b in (1, -1)], axis=0) / 4.0
    return smallest, iu


def unseen_sign_warnings(moments: MomentSet) -> list[str]:
    """A warning naming the pairs whose 2x2 sign table has a cell below half a count
    (0 if exact; see _smallest_sign_cells): no finite J_ij fits them."""
    smallest, iu = _smallest_sign_cells(moments.q, moments.Q)
    empty = smallest < 0.5 / moments.sample_size
    pairs = [f"({i}, {j})" for i, j in zip(iu[0][empty], iu[1][empty])]
    return [f"spin pairs {', '.join(pairs)} never show one of the four sign combinations; "
            "their couplings diverge, so the fitted values are not estimates"] if pairs else []


@dataclass
class Spectrum:
    """Sorted eigenvalues of a correlation/covariance matrix plus noise bands.

    mp_lower/mp_upper are the asymptotic Marchenko-Pastur support edges;
    edge_lower/edge_upper widen them by three Tracy-Widom fluctuation widths,
    the operative noise band at finite (N, T).  At these sample sizes a pure-
    noise top eigenvalue crosses the asymptotic edge in a few percent of
    realizations, so containment checks should use the edge band.
    """

    eigenvalues: np.ndarray  # ascending
    matrix_kind: str  # "correlation" | "covariance"
    N: int
    T: int
    mp_lower: float
    mp_upper: float
    edge_lower: float
    edge_upper: float
    market_mode: float  # largest eigenvalue: the candidate collective market mode


def marchenko_pastur_bounds(n: int, t: int) -> tuple[float, float]:
    """Asymptotic noise support (1 -+ sqrt(N/T))^2 for unit-variance data."""
    root = math.sqrt(n / t)
    return (1.0 - root) ** 2, (1.0 + root) ** 2


def finite_size_band(n: int, t: int) -> tuple[float, float]:
    """MP edges widened by 3x the Tracy-Widom scale T^(-2/3)(1±rq)(1/rq±1)^(1/3)."""
    lo, hi = marchenko_pastur_bounds(n, t)
    rq = math.sqrt(n / t)
    upper_scale = t ** (-2.0 / 3.0) * (1.0 + rq) * (1.0 + 1.0 / rq) ** (1.0 / 3.0)
    if t > n:
        lower_scale = t ** (-2.0 / 3.0) * (1.0 - rq) * (1.0 / rq - 1.0) ** (1.0 / 3.0)
        lo = max(lo - 3.0 * lower_scale, 0.0)
    else:
        lo = 0.0
    return lo, hi + 3.0 * upper_scale


def moment_matrix(spins: np.ndarray) -> np.ndarray:
    """G = [1 S]^T [1 S] / T = [[1, q^T], [q, Q]] of float spins S (T x N): integer sums,
    exact for T < 2^53, so G is exactly symmetric with a unit diagonal in any sum order."""
    t, n = spins.shape
    gram = np.empty((n + 1, n + 1))
    gram[0, 0] = t
    gram[0, 1:] = gram[1:, 0] = spins.sum(axis=0)
    gram[1:, 1:] = spins.T @ spins
    return gram / t


def empirical_moments(matrix: SpinMatrix) -> MomentSet:
    """Plug-in moments of a spin matrix, read off its moment_matrix; requires T >= 2."""
    t = matrix.t
    if t < 2:
        raise InsufficientSampleError(f"need at least 2 rows for moments, got {t}")
    g = moment_matrix(matrix.values.astype(np.float64))
    return MomentSet(q=g[0, 1:], Q=g[1:, 1:], sample_size=float(t))


def unit_scaled(values) -> tuple[np.ndarray, int]:
    """(values * 2^-k, k): k = 0 if the largest |value| is 0 or within 2^+-_SAFE_EXPONENT,
    else the k that brings it into [0.5, 1).  A power of two scales exactly: moments of
    the scaled values, scaled back, keep every bit, and their sums of up to fourth
    powers stay finite."""
    values = np.asarray(values, dtype=np.float64)
    top = float(np.abs(values).max(initial=0.0))
    k = math.frexp(top)[1]
    if top == 0.0 or abs(k) <= _SAFE_EXPONENT:
        return values, 0
    return np.ldexp(values, -k), k


def mean_std(values) -> tuple[float, float]:
    """values.mean() and values.std(), also where the sum or the squares would overflow."""
    scaled, k = unit_scaled(values)
    return math.ldexp(scaled.mean(), k), math.ldexp(scaled.std(), k)


def _spectrum(matrix: SpinMatrix, kind: str) -> Spectrum:
    """Eigenvalues of the spins' Pearson correlation (kind "correlation") or connected-
    correlation ("covariance") matrix with both noise bands; warns when T <= N."""
    n, t = matrix.n, matrix.t
    corr = empirical_moments(matrix).C
    if t <= n:
        warnings.warn(f"T={t} not larger than N={n}; spectrum will be rank-deficient",
                      stacklevel=3)
    if kind == "correlation":
        variances = np.diag(corr).copy()
        dead = np.flatnonzero(variances <= 0.0)
        if dead.size:
            names = ", ".join(matrix.tickers[i] for i in dead)
            raise DegenerateDataError(f"constant column(s), correlation undefined: {names}")
        scale = 1.0 / np.sqrt(variances)
        corr *= np.outer(scale, scale)
        np.fill_diagonal(corr, 1.0)
    eigenvalues = np.linalg.eigvalsh(corr)  # ascending
    lo, hi = marchenko_pastur_bounds(n, t)
    edge_lo, edge_hi = finite_size_band(n, t)
    return Spectrum(eigenvalues=eigenvalues, matrix_kind=kind, N=n, T=t, mp_lower=lo,
                    mp_upper=hi, edge_lower=edge_lo, edge_upper=edge_hi,
                    market_mode=float(eigenvalues[-1]))


def correlation_spectrum(matrix: SpinMatrix) -> Spectrum:
    """Eigenvalues of the Pearson correlation matrix with MP reference bounds.

    Warns (without failing) when T <= N, outside the usual inversion regime.
    """
    return _spectrum(matrix, "correlation")


def covariance_spectrum(matrix: SpinMatrix) -> Spectrum:
    """Eigenvalues of the connected-correlation (covariance) matrix."""
    return _spectrum(matrix, "covariance")
