"""Empirical first/second moments, connected correlations and spectra.

q_i = (1/T) sum_t s_i(t), q_ij = (1/T) sum_t s_i(t) s_j(t), C = Q - q q^T.
The Pearson correlation of ±1 columns is C_ij / sqrt(C_ii C_jj), computed
from the moment set so the data is read once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateDataError, FormatError, InsufficientSampleError
from .ingest import SpinMatrix
from .serialize import _jsonable

EXACT_SAMPLE = math.inf  # sample_size sentinel for enumeration-derived moments


@dataclass
class MomentSet:
    """Mean orientations q, pair moments Q, connected correlations C."""

    q: np.ndarray
    Q: np.ndarray
    C: np.ndarray
    sample_size: float  # T, or EXACT_SAMPLE for enumeration moments

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.C = np.asarray(self.C, dtype=np.float64)

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

    @classmethod
    def from_dict(cls, d: dict) -> "MomentSet":
        q = np.asarray(d["q"], dtype=np.float64)
        big_q = np.asarray(d["Q"], dtype=np.float64)
        c = np.asarray(d["C"], dtype=np.float64)
        n = q.shape[0]
        if big_q.shape != (n, n) or c.shape != (n, n):
            raise FormatError("moment matrices must be N x N")
        size = d.get("sample_size")
        return cls(q=q, Q=big_q, C=c, sample_size=EXACT_SAMPLE if size is None else float(size))


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

    @property
    def market_mode(self) -> float:
        """Largest eigenvalue: the candidate collective market mode."""
        return float(self.eigenvalues[-1])

    def to_dict(self) -> dict:
        return _jsonable(asdict(self)) | {"market_mode": self.market_mode}


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


def empirical_moments(matrix: SpinMatrix) -> MomentSet:
    """Plug-in moments of a spin matrix; requires T >= 2."""
    t = matrix.t
    if t < 2:
        raise InsufficientSampleError(f"need at least 2 rows for moments, got {t}")
    s = matrix.values.astype(np.float64)
    q = s.mean(axis=0)
    big_q = (s.T @ s) / t
    big_q = 0.5 * (big_q + big_q.T)
    np.fill_diagonal(big_q, 1.0)  # s_i^2 = 1 exactly
    c = big_q - np.outer(q, q)
    return MomentSet(q=q, Q=big_q, C=c, sample_size=float(t))


def pearson_correlation(moments: MomentSet, tickers: list[str] | None = None) -> np.ndarray:
    """Correlation matrix from a moment set; errors on any zero-variance column."""
    variances = np.diag(moments.C).copy()
    dead = np.flatnonzero(variances <= 0.0)
    if dead.size:
        names = (
            ", ".join(tickers[i] for i in dead)
            if tickers is not None
            else ", ".join(str(i) for i in dead)
        )
        raise DegenerateDataError(f"constant column(s), correlation undefined: {names}")
    scale = 1.0 / np.sqrt(variances)
    corr = moments.C * np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return corr


def _spectrum_of(matrix: np.ndarray, kind: str, n: int, t: int) -> Spectrum:
    eigenvalues = np.linalg.eigvalsh(matrix)
    lo, hi = marchenko_pastur_bounds(n, t)
    edge_lo, edge_hi = finite_size_band(n, t)
    return Spectrum(
        eigenvalues=np.sort(eigenvalues),
        matrix_kind=kind,
        N=n,
        T=t,
        mp_lower=lo,
        mp_upper=hi,
        edge_lower=edge_lo,
        edge_upper=edge_hi,
    )


def _warn_if_rank_deficient(matrix: SpinMatrix) -> None:
    if matrix.t <= matrix.n:
        warnings.warn(
            f"T={matrix.t} not larger than N={matrix.n}; spectrum will be rank-deficient",
            stacklevel=3,
        )


def correlation_spectrum(matrix: SpinMatrix) -> Spectrum:
    """Eigenvalues of the Pearson correlation matrix with MP reference bounds.

    Warns (without failing) when T <= N, outside the usual inversion regime.
    """
    moments = empirical_moments(matrix)
    _warn_if_rank_deficient(matrix)
    corr = pearson_correlation(moments, matrix.tickers)
    return _spectrum_of(corr, "correlation", matrix.n, matrix.t)


def covariance_spectrum(matrix: SpinMatrix) -> Spectrum:
    """Eigenvalues of the connected-correlation (covariance) matrix."""
    moments = empirical_moments(matrix)
    _warn_if_rank_deficient(matrix)
    return _spectrum_of(moments.C, "covariance", matrix.n, matrix.t)
