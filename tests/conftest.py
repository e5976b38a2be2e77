"""Shared helpers: planted models and independent brute-force oracles.

The oracles enumerate configurations with itertools and per-state arithmetic,
deliberately avoiding the package's blockwise split-spin enumeration.
"""

import itertools
import math

import numpy as np
import pytest

from isingmarket import IsingModel


def brute_states(n):
    return [np.array(s, dtype=float) for s in itertools.product([-1.0, 1.0], repeat=n)]


def brute_energy(J, h, s):
    n = len(h)
    e = 0.0
    for i in range(n):
        e += h[i] * s[i]
        for j in range(n):
            e += 0.5 * J[i, j] * s[i] * s[j]
    return e


def brute_log_partition(J, h):
    energies = [brute_energy(J, h, s) for s in brute_states(len(h))]
    peak = max(energies)
    return peak + math.log(sum(math.exp(e - peak) for e in energies))


def brute_probabilities(J, h):
    energies = np.array([brute_energy(J, h, s) for s in brute_states(len(h))])
    weights = np.exp(energies - energies.max())
    return weights / weights.sum()


def brute_moments(J, h):
    n = len(h)
    p = brute_probabilities(J, h)
    states = brute_states(n)
    q = np.zeros(n)
    big_q = np.zeros((n, n))
    for prob, s in zip(p, states):
        q += prob * s
        big_q += prob * np.outer(s, s)
    return q, big_q


def brute_entropy(J, h):
    p = brute_probabilities(J, h)
    return float(-(p * np.log(p)).sum())


def planted_model(n, j_sd, h_sd, seed, h_dist="normal"):
    rng = np.random.default_rng(seed)
    coupling = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    coupling[iu] = rng.normal(0.0, j_sd, len(iu[0]))
    coupling = coupling + coupling.T
    if h_dist == "uniform":
        h = rng.uniform(-h_sd, h_sd, n)
    else:
        h = rng.normal(0.0, h_sd, n)
    return IsingModel(J=coupling, h=h)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
