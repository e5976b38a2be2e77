"""Glauber (heat-bath) sampling of spin configurations and noise floors.

Single-spin updates: spin i is set to +1 with probability
sigma(2 * (h_i + sum_j J_ij s_j)), one sweep visits all N spins in a fresh
random order, and rows are recorded every `thin` sweeps after burn-in.  The
chain is fully deterministic given the seed.  The C source _glauber.c,
compiled on first use, runs it in batches of sweeps and two stages: the one
thread of a one-worker pool draws each batch's visiting orders and uniforms u
from the seeded numpy Generator, as rng.permuted and then rng.random would,
and writes each uniform's logit threshold t = ln(u / (1 - u)) into a third
buffer, while the calling thread sweeps the batch before it.  A sweep sets a
spin to +1 iff its z = 2 (h_i + sum_j J_ij s_j) exceeds t, which needs no exp;
near t, past |z| = 40 and for u within 2^-40 of 1 it runs the reference's
exact test u < 1 / (1 + exp(-z)) instead, so every decision, and the chain, is
the one that test gives (see _glauber.c for the bound).  Only the pool's thread
touches the Generator and it draws the batches in order, so the chain does
not depend on how the two threads are scheduled.  The pool is joined on every
exit from glauber_sample.
"""

from __future__ import annotations

import ctypes
from dataclasses import asdict, dataclass

import numpy as np

from . import _native, inverse
from .errors import ConfigError, DegenerateRatioError, DivergenceError
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
        if self.burn_in + self.rows * self.thin >= 2**63:  # the kernel counts sweeps in int64
            raise ConfigError(f"burn_in + rows * thin must be < 2^63, got "
                              f"{self.burn_in} + {self.rows} * {self.thin}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _draw():
    """The stream stage of _glauber.c: one batch's visiting orders, then its uniforms."""
    return _native.load("_glauber.c", "glauber_draw", None, (
        ctypes.c_int64, ctypes.c_int64, *[ctypes.c_void_p] * 3))


def _sweeps():
    """The sweep stage of _glauber.c, reading the orders and uniforms _draw made and
    their _thresholds."""
    return _native.load("_glauber.c", "glauber_sweeps", ctypes.c_int64, (
        ctypes.c_int64, ctypes.c_int64, *[ctypes.c_void_p] * 7,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p))


def _thresholds(u: np.ndarray, t: np.ndarray) -> None:
    """t = ln(u / (1 - u)) in place, -inf where u = 0: the logit that each update's
    z is compared against.  Only numpy, as it runs on the pool's thread."""
    np.subtract(1.0, u, out=t)
    np.divide(u, t, out=t)
    with np.errstate(divide="ignore"):
        np.log(t, out=t)


def _labels(count: int) -> list[str]:
    """["t1", ..., "t<count>"], zero-padded to one width, from one table of digit bytes."""
    width = len(str(count))
    table = np.empty((count, width + 2), dtype=np.uint8)
    table[:, 0], table[:, -1] = ord("t"), ord("\n")
    rest = np.arange(1, count + 1)
    for column in range(width, 0, -1):  # least significant digit first
        rest, digit = np.divmod(rest, 10)
        table[:, column] = digit + ord("0")
    return table.tobytes().decode("ascii").split()


def glauber_sample(model: IsingModel, config: SamplerConfig) -> SpinMatrix:
    """Sample a (rows, N) spin matrix from the model's Gibbs distribution; DivergenceError
    where (N+1) max|J|, which bounds every field, overflows (a huge h only pins its spin)."""
    n = model.n
    top = float(np.abs(model.J).max(initial=0.0))
    if not np.isfinite((n + 1) * top):
        raise DivergenceError(f"Glauber fields overflow: max |J_ij| = {top:.6g} at N = {n}")
    draw, sweeps = _draw(), _sweeps()
    rng = np.random.default_rng(config.seed)
    coupling = np.ascontiguousarray(model.J)
    h = np.ascontiguousarray(model.h)

    s = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)
    try:
        out = np.empty((config.rows, n), dtype=np.int8)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an index holds
        raise ConfigError(f"cannot hold {config.rows} x {n} sampled spins") from exc

    total_sweeps = config.burn_in + config.rows * config.thin
    starts = range(0, total_sweeps, _SWEEP_BATCH)
    bitgen = rng.bit_generator.ctypes.bit_generator
    buffers = [(np.empty((_SWEEP_BATCH, n), dtype=np.int32), np.empty((_SWEEP_BATCH, n)),
                np.empty((_SWEEP_BATCH, n))) for _ in range(2)]

    def fill(k):  # batch k's visiting orders, uniforms and thresholds, into buffers[k % 2]
        orders, u, t = buffers[k % 2]
        batch = min(_SWEEP_BATCH, total_sweeps - starts[k])
        draw(n, batch, bitgen, orders.ctypes.data, u.ctypes.data)
        _thresholds(u[:batch], t[:batch])
        return orders, u, t

    from concurrent.futures import ThreadPoolExecutor  # loads logging, so not at import

    recorded = 0
    with ThreadPoolExecutor(1, "glauber-draw") as pool:
        ahead = [pool.submit(fill, k) for k in range(min(2, len(starts)))]
        for k, start in enumerate(starts):
            fields = coupling @ s  # afresh each batch: sheds the updates' rounding
            orders, u, t = ahead[k % 2].result()
            recorded += sweeps(n, min(_SWEEP_BATCH, total_sweeps - start), coupling.ctypes.data,
                               h.ctypes.data, fields.ctypes.data, s.ctypes.data,
                               orders.ctypes.data, u.ctypes.data, t.ctypes.data, start,
                               config.burn_in, config.thin, out[recorded:].ctypes.data)
            if k + 2 < len(starts):  # into the buffer these sweeps have freed
                ahead[k % 2] = pool.submit(fill, k + 2)

    width_n = len(str(max(n - 1, 1)))
    return SpinMatrix(
        tickers=[f"s{i:0{width_n}d}" for i in range(n)],
        dates=_labels(config.rows),
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
    if n < 2:
        raise DegenerateRatioError(f"N={n} has no couplings; noise ratio undefined")
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
