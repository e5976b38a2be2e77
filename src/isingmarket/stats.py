"""Distributional diagnostics for inferred couplings and spectra.

Gaussianity of the coupling bulk (quantile comparison, chi-square and
Jarque-Bera after trimming the upper tail), the negative-coupling fraction,
the power-law fit of mean coupling versus system size, the field-versus-
internal-bias decomposition, and the critical-coupling eigenvalue demo.
Normal quantiles and chi-square tails come from ``statistics`` and ``math``.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    DomainError,
    InsufficientSampleError,
)
from .ingest import SpinMatrix
from .model import IsingModel
from .moments import Spectrum, covariance_spectrum, mean_std, unit_scaled
from .sampler import SamplerConfig, glauber_sample

_MIN_NORMALITY_SAMPLE = 50


@dataclass
class NormalityReport:
    n: int
    trimmed: int
    chi2_stat: float
    chi2_p: float
    jb_stat: float
    jb_p: float
    mean: float
    std: float


@dataclass
class ScalingFit:
    sizes: np.ndarray
    means: np.ndarray
    alpha_hat: float
    alpha_se: float
    a_hat: float
    r2: float


@dataclass
class BiasRow:
    ticker: str
    h: float
    h_int_mean: float
    h_int_std: float


def _normal_quantiles(probs: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of probabilities in (0, 1) (Wichura's AS 241)."""
    return np.array(list(map(NormalDist().inv_cdf, probs.tolist())))


def _chi2_sf(k: int, x: float) -> float:
    """Chi-square upper tail Q(k/2, x/2), integer k >= 1, as a sum of positive terms:
    erfc(sqrt(y)) if k is odd, then y^(j+d) e^-y / Gamma(j+1+d) for j < k//2, y = x/2,
    d = (k mod 2)/2 (Abramowitz & Stegun 26.4.4-26.4.5)."""
    d, y = 0.5 * (k % 2), 0.5 * x
    if y <= 0.0:  # also x = 5e-324, whose half rounds to 0
        return 1.0
    return math.fsum([math.erfc(math.sqrt(y))] * (k % 2) + [
        math.exp((j + d) * math.log(y) - y - math.lgamma(j + 1 + d)) for j in range(k // 2)])


def qq_compare(values: np.ndarray, quantile_count: int = 1000) -> np.ndarray:
    """(empirical, theoretical-Gaussian) quantile pairs with matched mean/std.

    Returns quantile_count - 1 interior pairs; a Gaussian sample lies on the
    diagonal.  A constant input yields degenerate pairs and a warning.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < quantile_count:
        raise InsufficientSampleError(
            f"need at least {quantile_count} values for {quantile_count}-quantiles, "
            f"got {values.size}"
        )
    probs = np.arange(1, quantile_count) / quantile_count
    empirical = np.quantile(values, probs)
    mu, sd = mean_std(values)
    if sd == 0.0:
        _warnings.warn("constant sample: theoretical quantiles degenerate to the mean",
                       stacklevel=2)
        theoretical = np.full(probs.shape, mu)
    else:
        theoretical = _normal_quantiles(probs) * sd + mu
    return np.column_stack([empirical, theoretical])


def trim_upper_tail(values: np.ndarray, fraction: float = 0.04) -> np.ndarray:
    """Drop the ceil(fraction * n) largest values, preserving input order."""
    if not 0.0 <= fraction < 0.5:
        raise DomainError(f"trim fraction must be in [0, 0.5), got {fraction}")
    values = np.asarray(values, dtype=np.float64)
    target = fraction * values.size
    nearest = round(target)
    # fractions like 200/4950 carry representation dust; snap before the ceiling
    k = int(nearest) if abs(target - nearest) <= 1e-9 * values.size else int(np.ceil(target))
    keep = np.ones(values.size, dtype=bool)
    # A stable sort puts later ties last, so of equal values the later ones are dropped.
    keep[np.argsort(values, kind="stable")[values.size - k:]] = False
    return values[keep]


def jarque_bera(values: np.ndarray) -> tuple[float, float]:
    """JB = n/6 * (skew^2 + excess_kurtosis^2 / 4), p-value from chi2(2).

    JB does not depend on the values' scale, so it is taken of unit_scaled values and
    deviations: their fourth powers stay finite, and the largest does not underflow."""
    values, _ = unit_scaled(values)
    n = values.size
    centered, _ = unit_scaled(values - values.mean())
    m2 = np.mean(centered**2)
    if m2 == 0.0:
        raise DegenerateDataError("constant sample: Jarque-Bera undefined")
    skew = np.mean(centered**3) / m2**1.5
    excess = np.mean(centered**4) / m2**2 - 3.0
    stat = float(n / 6.0 * (skew**2 + 0.25 * excess**2))
    return stat, _chi2_sf(2, stat)


def chi2_gaussian(values: np.ndarray, bins: int = 20) -> tuple[float, float, int]:
    """Goodness-of-fit against the moment-matched Gaussian.

    Equiprobable bins under the fitted Gaussian; the bin count is lowered if
    needed so every expected count is >= 5.  Degrees of freedom bins - 3
    (two fitted parameters).  Returns (stat, p, bins_used); the bin counts do not
    depend on the values' scale, so they are taken of unit_scaled values.
    """
    values, _ = unit_scaled(values)
    n = values.size
    bins_used = max(4, min(bins, n // 5))
    mu = values.mean()
    sd = values.std()
    if sd == 0.0:
        raise DegenerateDataError("constant sample: chi-square bins undefined")
    edges = _normal_quantiles(np.arange(1, bins_used) / bins_used) * sd + mu
    counts = np.bincount(np.searchsorted(edges, values, side="right"),
                         minlength=bins_used)
    expected = n / bins_used
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, _chi2_sf(bins_used - 3, stat), bins_used


def normality_tests(values: np.ndarray, bins: int = 20,
                    trim_fraction: float = 0.0) -> NormalityReport:
    """Chi-square and Jarque-Bera tests after optional upper-tail trimming."""
    values = np.asarray(values, dtype=np.float64)
    retained = trim_upper_tail(values, trim_fraction)
    n = retained.size
    if n < _MIN_NORMALITY_SAMPLE:
        raise InsufficientSampleError(
            f"normality tests need >= {_MIN_NORMALITY_SAMPLE} retained values, got {n}"
        )
    chi2_stat, chi2_p, _ = chi2_gaussian(retained, bins)
    jb_stat, jb_p = jarque_bera(retained)
    mean, std = mean_std(retained)
    return NormalityReport(
        n=n,
        trimmed=values.size - n,
        chi2_stat=chi2_stat,
        chi2_p=chi2_p,
        jb_stat=jb_stat,
        jb_p=jb_p,
        mean=mean,
        std=std,
    )


def negative_fraction(coupling: np.ndarray) -> float:
    """Fraction of strictly negative entries among upper-triangle couplings."""
    coupling = np.asarray(coupling, dtype=np.float64)
    if not np.allclose(coupling, coupling.T):
        raise DomainError("coupling matrix must be symmetric")
    upper = coupling[np.triu_indices(coupling.shape[0], k=1)]
    if upper.size == 0:
        raise InsufficientSampleError("need N >= 2 for a coupling to be negative")
    return float(np.count_nonzero(upper < 0.0) / upper.size)


def powerlaw_fit(sizes: np.ndarray, means: np.ndarray) -> ScalingFit:
    """Fit mean = a * N^(-alpha) by least squares on (ln N, ln mean)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    if sizes.size != means.size:
        raise DimensionMismatchError("sizes and means must have equal length")
    if sizes.size < 3:
        raise InsufficientSampleError("power-law fit needs at least 3 points")
    if not (np.isfinite(sizes).all() and np.isfinite(means).all()):
        raise DomainError("system sizes and mean couplings must be finite")
    if np.any(sizes <= 0.0):
        raise DomainError("system sizes must be strictly positive")
    if np.all(sizes == sizes[0]) or np.all(means == means[0]):
        raise DegenerateDataError("power-law fit needs distinct sizes and non-constant means")
    if np.any(means <= 0.0):
        raise DomainError(
            "mean couplings must be strictly positive for a log-log fit; "
            "consider the mean of |J| instead"
        )
    order = np.lexsort((means, sizes))  # canonical order: exact permutation invariance
    sizes, means = sizes[order], means[order]
    x = np.log(sizes)
    y = np.log(means)
    n = x.size
    x_center = x - x.mean()
    sxx = x_center @ x_center
    slope = (x_center @ y) / sxx
    intercept = y.mean() - slope * x.mean()
    fitted = intercept + slope * x
    ssr = float(((y - fitted) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    se = float(np.sqrt(ssr / (n - 2) / sxx))
    return ScalingFit(
        sizes=sizes,
        means=means,
        alpha_hat=float(-slope),
        alpha_se=se,
        a_hat=float(np.exp(intercept)),
        r2=1.0 - ssr / sst,
    )


def bias_decomposition(model: IsingModel, matrix: SpinMatrix) -> list[BiasRow]:
    """Per-ticker internal bias 0.5 * sum_j J_ij s_j versus the field h_i.

    The biases are summed in units of 2^k (see unit_scaled), so no product, sum or
    square overflows; a mean or spread beyond the float range is a DomainError.
    """
    if model.n != matrix.n:
        raise DimensionMismatchError(
            f"model has N={model.n}, spin matrix has N={matrix.n}"
        )
    coupling, k = unit_scaled(model.J)
    internal = 0.5 * (matrix.values.astype(np.float64) @ coupling)
    try:
        return [
            BiasRow(
                ticker=matrix.tickers[i],
                h=float(model.h[i]),
                h_int_mean=math.ldexp(internal[:, i].mean(), k),
                h_int_std=math.ldexp(internal[:, i].std(), k),
            )
            for i in range(model.n)
        ]
    except OverflowError as exc:
        raise DomainError(f"internal biases of couplings near 2^{k} overflow") from exc


def critical_spectrum_demo(
    n: int,
    coupling_scale_j: float,
    t: int,
    seed: int,
    burn_in: int = 1000,
) -> Spectrum:
    """Covariance spectrum of data sampled from random Gaussian couplings.

    Couplings are IID zero-mean Gaussians with variance coupling_scale_j^2/N
    (mirrored across the diagonal), zero fields.  At coupling_scale_j = 1 the
    largest coupling eigenvalue reaches 2, where the mean-field covariance
    eigenvalue 1/(1 - lambda_J + J^2) blows up and the top eigenvalue escapes
    the noise band; at 0 the spectrum is pure sampling noise.
    """
    if n < 20:
        raise DomainError(f"demo needs N >= 20, got {n}")
    if t < 10 * n:
        raise DomainError(f"demo needs T >= 10*N = {10 * n}, got {t}")
    if seed < 0:
        raise DomainError(f"demo needs seed >= 0, got {seed}")
    seeds = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(seeds[0])
    coupling = np.zeros((n, n))
    upper = np.triu_indices(n, k=1)
    coupling[upper] = rng.normal(0.0, coupling_scale_j / np.sqrt(n), size=len(upper[0]))
    coupling = coupling + coupling.T
    model = IsingModel(J=coupling, h=np.zeros(n))
    sampled = glauber_sample(
        model,
        SamplerConfig(rows=t, burn_in=burn_in, thin=1,
                      seed=int(seeds[1].generate_state(1)[0])),
    )
    return covariance_spectrum(sampled)
