"""The benchmark's own references: brute-force Gibbs moments and entropies.

Written independently of the program: one dense enumeration of all 2^N
states, no chunking and no shared helpers.
"""

from __future__ import annotations

import numpy as np


def all_states(n: int) -> np.ndarray:
    """(2^N, N) array of ±1 states; spin j is bit j of the row index."""
    index = np.arange(1 << n, dtype=np.int64)
    return (((index[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(np.float64)


def gibbs(coupling: np.ndarray, field: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """(ln Z, <s_i>, <s_i s_j>, entropy) for p(s) ∝ exp(0.5 s'Js + h's)."""
    states = all_states(field.size)
    energy = 0.5 * np.einsum("ti,ti->t", states @ coupling, states) + states @ field
    peak = energy.max()
    weights = np.exp(energy - peak)
    total = weights.sum()
    p = weights / total
    log_z = float(peak + np.log(total))
    q = p @ states
    pair = states.T @ (states * p[:, None])
    return log_z, q, pair, float(log_z - p @ energy)


def empirical(spins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in <s_i> and <s_i s_j> of a (T, N) ±1 matrix."""
    s = spins.astype(np.float64)
    return s.mean(axis=0), s.T @ s / s.shape[0]


def independent_entropy(q: np.ndarray) -> float:
    p = np.stack([(1.0 + q) / 2.0, (1.0 - q) / 2.0])
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def plugin_entropy(spins: np.ndarray) -> float:
    """Entropy of the observed configuration histogram, in nats."""
    _, counts = np.unique(spins, axis=0, return_counts=True)
    p = counts / spins.shape[0]
    return float(-(p * np.log(p)).sum())


def tap_inverse(q: np.ndarray, pair: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(J, h, clamped pairs) of the second-order mean-field inversion.

    Solves (C^-1)_ij = -J_ij - J_ij^2 q_i q_j as J = -2c / (1 + sqrt(1 - 4 q_i q_j c)),
    the form of the small root that stays finite at q_i q_j = 0.  A pair whose
    discriminant is negative takes the double root -1 / (2 q_i q_j), and fields
    come from h_i = atanh(q_i) - sum_j J_ij q_j + q_i sum_j J_ij^2 (1 - q_j^2).
    """
    c_inv = np.linalg.inv(pair - np.outer(q, q))
    a = np.outer(q, q)
    disc = 1.0 - 4.0 * a * c_inv
    np.fill_diagonal(disc, 1.0)
    with np.errstate(divide="ignore"):
        coupling = np.where(disc < 0.0, -0.5 / a, -2.0 * c_inv / (1.0 + np.sqrt(np.abs(disc))))
    coupling = 0.5 * (coupling + coupling.T)
    np.fill_diagonal(coupling, 0.0)
    field = np.arctanh(q) - coupling @ q + q * ((coupling ** 2) @ (1.0 - q ** 2))
    return coupling, field, int(np.count_nonzero(np.triu(disc < 0.0, 1)))


def tap_residual(coupling: np.ndarray, field: np.ndarray, m: np.ndarray) -> float:
    """Largest violation of m_i = tanh(h_i + sum_j J_ij m_j - m_i sum_j J_ij^2 (1 - m_j^2))."""
    reaction = m * ((coupling ** 2) @ (1.0 - m ** 2))
    return float(np.abs(m - np.tanh(field + coupling @ m - reaction)).max())


def logistic_pseudo_likelihood(spins: np.ndarray, ridge: float,
                               tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """(J, h) maximizing each spin's conditional likelihood with an L2 penalty.

    For spin i, w = (h_i, J_i.) maximizes
    mean_t log(1 / (1 + exp(-2 s_i x_t.w))) - ridge |w|^2, with x_t = s(t) and
    its i-th entry set to 1; J is the average of the row estimates and their
    transpose.  Plain Newton steps, halved while they lower the objective.
    """
    s = spins.astype(np.float64)
    t, n = s.shape
    rows = np.zeros((n, n))
    for i in range(n):
        x = s.copy()
        x[:, i] = 1.0
        y = s[:, i]

        def objective(w):
            return -np.logaddexp(0.0, -2.0 * y * (x @ w)).mean() - ridge * (w @ w)

        w = np.zeros(n)
        value = objective(w)
        for _ in range(100):
            p = 1.0 / (1.0 + np.exp(2.0 * y * (x @ w)))  # 1 - sigma(2 y x.w)
            grad = 2.0 * (x.T @ (y * p)) / t - 2.0 * ridge * w
            if np.abs(grad).max() < tol:
                break
            curvature = 4.0 * p * (1.0 - p) / t
            step = np.linalg.solve(x.T @ (x * curvature[:, None]) + 2.0 * ridge * np.eye(n), grad)
            while True:
                trial = objective(w + step)
                if trial >= value or np.abs(step).max() < 1e-15:
                    break
                step *= 0.5
            w, value = w + step, trial
        rows[i] = w
    field = np.diag(rows).copy()
    np.fill_diagonal(rows, 0.0)
    return 0.5 * (rows + rows.T), field


def jarque_bera(values: np.ndarray) -> float:
    """n/6 (skewness^2 + excess kurtosis^2 / 4), from central moments."""
    d = values - values.mean()
    m2, m3, m4 = (np.mean(d ** k) for k in (2, 3, 4))
    return float(values.size / 6.0 * (m3 ** 2 / m2 ** 3 + (m4 / m2 ** 2 - 3.0) ** 2 / 4.0))
