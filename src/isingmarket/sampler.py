"""Glauber (heat-bath) sampling of spin configurations and noise floors.

Single-spin updates: spin i is set to +1 with probability
sigma(2 * (h_i + sum_j J_ij s_j)), one sweep visits all N spins in a fresh
random order, and rows are recorded every `thin` sweeps after burn-in.  The
chain is fully deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import inverse
from .errors import ConfigError, DegenerateRatioError, DimensionMismatchError
from .ingest import SpinMatrix
from .model import FitReport, IsingModel
from .serialize import _jsonable

_SWEEP_BATCH = 512  # sweeps per batched RNG draw
_FIELD_REFRESH = 512  # sweeps between full local-field recomputations


@dataclass
class SamplerConfig:
    rows: int
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1:
            raise ConfigError(f"rows must be >= 1, got {self.rows}")
        if self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")

    def to_dict(self) -> dict:
        return asdict(self)


def glauber_sample(model: IsingModel, config: SamplerConfig) -> SpinMatrix:
    """Sample a (rows, N) spin matrix from the model's Gibbs distribution."""
    n = model.n
    rng = np.random.default_rng(config.seed)
    coupling = model.J
    h = model.h

    s = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)
    fields = coupling @ s
    out = np.empty((config.rows, n), dtype=np.int8)

    total_sweeps = config.burn_in + config.rows * config.thin
    recorded = 0
    base = np.tile(np.arange(n), (_SWEEP_BATCH, 1))
    exp = math.exp
    for start in range(0, total_sweeps, _SWEEP_BATCH):
        batch = min(_SWEEP_BATCH, total_sweeps - start)
        orders = rng.permuted(base[:batch], axis=1)
        uniforms = rng.random((batch, n))
        for k in range(batch):
            order = orders[k]
            u = uniforms[k]
            for slot in range(n):
                i = order[slot]
                z = 2.0 * (h[i] + fields[i])
                if z > 40.0:
                    new = 1.0
                elif z < -40.0:
                    new = -1.0
                else:
                    new = 1.0 if u[slot] < 1.0 / (1.0 + exp(-z)) else -1.0
                if new != s[i]:
                    s[i] = new
                    fields += coupling[:, i] * (2.0 * new)
            sweep = start + k + 1
            if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
                out[recorded] = s
                recorded += 1
        fields = coupling @ s  # shed accumulated rounding between batches

    width_t = len(str(config.rows))
    width_n = len(str(max(n - 1, 1)))
    return SpinMatrix(
        tickers=[f"s{i:0{width_n}d}" for i in range(n)],
        dates=[f"t{k + 1:0{width_t}d}" for k in range(config.rows)],
        values=out,
    )


@dataclass
class NoiseReport:
    """Spread of re-inferred couplings from a structureless surrogate model."""

    sigma_noise: float
    sigma_J: float
    ratio: float
    config: dict

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))


def _offdiag(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    return matrix[np.triu_indices(n, k=1)]


def noise_ratio(
    real_fit: FitReport,
    n: int,
    t: int,
    config: SamplerConfig,
    method: str,
) -> NoiseReport:
    """Noise floor of an inversion method at sample length T.

    Builds a homogeneous surrogate (every off-diagonal coupling equal to the
    mean inferred coupling, zero fields), samples T rows, re-infers with the
    same method, and compares coupling spreads: any spread in the re-inferred
    matrix is pure estimation noise.
    """
    if real_fit.model.n != n:
        raise DimensionMismatchError(
            f"real fit has N={real_fit.model.n}, requested N={n}"
        )
    real_off = _offdiag(real_fit.model.J)
    sigma_j = float(real_off.std())
    if sigma_j <= 1e-12 * (1.0 + np.abs(real_off).max()):
        raise DegenerateRatioError("real couplings are constant; noise ratio undefined")

    mean_j = float(real_off.mean())
    homogeneous = np.full((n, n), mean_j)
    np.fill_diagonal(homogeneous, 0.0)
    surrogate = IsingModel(J=homogeneous, h=np.zeros(n))

    sampled = glauber_sample(surrogate, SamplerConfig(rows=t, burn_in=config.burn_in,
                                                      thin=config.thin, seed=config.seed))
    refit = inverse.fit(method, sampled)
    sigma_noise = float(_offdiag(refit.model.J).std())
    echo = config.to_dict() | {"method": method, "N": n, "T": t, "mean_J": mean_j}
    return NoiseReport(
        sigma_noise=sigma_noise,
        sigma_J=sigma_j,
        ratio=sigma_noise / sigma_j,
        config=echo,
    )
