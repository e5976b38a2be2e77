"""Glauber (heat-bath) sampling of spin configurations and noise floors.

Single-spin updates: spin i is set to +1 with probability
sigma(2 * (h_i + sum_j J_ij s_j)), one sweep visits all N spins in a fresh
random order, and rows are recorded every `thin` sweeps after burn-in.  The
chain is fully deterministic given the seed.  The C loop of _glauber.c,
compiled on first use, runs the sweeps and draws their orders and uniforms
from the seeded numpy Generator as rng.permuted and rng.random would.
"""

from __future__ import annotations

import ctypes
from dataclasses import asdict, dataclass

import numpy as np

from . import _native, inverse
from .errors import ConfigError, DegenerateRatioError
from .ingest import SpinMatrix
from .model import FitReport, IsingModel
from .moments import mean_std

_SWEEP_BATCH = 512  # sweeps per batch of visiting orders and local-field recomputation


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _kernel():
    """The compiled sweep loop of _glauber.c (see _native)."""
    return _native.load("_glauber.c", "glauber_sweeps", ctypes.c_int64, (
        ctypes.c_int64, ctypes.c_int64, *[ctypes.c_void_p] * 6,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p))


def glauber_sample(model: IsingModel, config: SamplerConfig) -> SpinMatrix:
    """Sample a (rows, N) spin matrix from the model's Gibbs distribution."""
    n = model.n
    sweeps = _kernel()
    rng = np.random.default_rng(config.seed)
    coupling = np.ascontiguousarray(model.J)
    h = np.ascontiguousarray(model.h)

    s = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)
    fields = coupling @ s
    out = np.empty((config.rows, n), dtype=np.int8)

    total_sweeps = config.burn_in + config.rows * config.thin
    recorded = 0
    bitgen = rng.bit_generator.ctypes.bit_generator
    orders = np.empty((_SWEEP_BATCH, n), dtype=np.int64)  # the kernel's scratch
    for start in range(0, total_sweeps, _SWEEP_BATCH):
        batch = min(_SWEEP_BATCH, total_sweeps - start)
        recorded += sweeps(n, batch, coupling.ctypes.data, h.ctypes.data,
                           fields.ctypes.data, s.ctypes.data, bitgen, orders.ctypes.data,
                           start, config.burn_in, config.thin, out[recorded:].ctypes.data)
        fields = coupling @ s  # shed accumulated rounding between batches

    width_n = len(str(max(n - 1, 1)))
    label = "t%0{}d".format(len(str(config.rows)))
    return SpinMatrix(
        tickers=[f"s{i:0{width_n}d}" for i in range(n)],
        dates=[label % k for k in range(1, config.rows + 1)],
        values=out,
    )


@dataclass
class NoiseReport:
    """Spread of re-inferred couplings from a structureless surrogate model."""

    sigma_noise: float
    sigma_J: float
    ratio: float
    config: dict


def noise_ratio(real_fit: FitReport, config: SamplerConfig, method: str) -> NoiseReport:
    """Noise floor of an inversion method at sample length T = config.rows.

    Builds a homogeneous surrogate (every off-diagonal coupling equal to the
    mean inferred coupling, zero fields) of the real fit's size N, samples T
    rows, re-infers with the same method, and compares coupling spreads: any
    spread in the re-inferred matrix is pure estimation noise.
    """
    n = real_fit.model.n
    iu = np.triu_indices(n, k=1)
    real_off = real_fit.model.J[iu]
    mean_j, sigma_j = mean_std(real_off)
    if sigma_j <= 1e-12 * (1.0 + np.abs(real_off).max()):
        raise DegenerateRatioError("real couplings are constant; noise ratio undefined")

    homogeneous = np.full((n, n), mean_j)
    np.fill_diagonal(homogeneous, 0.0)
    surrogate = IsingModel(J=homogeneous, h=np.zeros(n))

    refit = inverse.fit(method, glauber_sample(surrogate, config))
    sigma_noise = mean_std(refit.model.J[iu])[1]
    echo = asdict(config) | {"method": method, "N": n, "mean_J": mean_j}
    return NoiseReport(
        sigma_noise=sigma_noise,
        sigma_J=sigma_j,
        ratio=sigma_noise / sigma_j,
        config=echo,
    )
