import math

import numpy as np
import pytest

from conftest import (
    brute_entropy,
    brute_log_partition,
    brute_moments,
    brute_probabilities,
    planted_model,
)
from isingmarket import (
    FitReport,
    IsingModel,
    SpinMatrix,
    entropy_empirical,
    entropy_exact,
    entropy_independent,
    exact_moments,
    fit_maxent_exact,
    gibbs_probabilities,
    log_partition,
    multi_information_ratio,
)
from isingmarket.errors import (
    BoundaryError,
    ConvergenceError,
    DegenerateRatioError,
    SizeLimitError,
)
from isingmarket.exact import FIT_LIMIT
from isingmarket.moments import MomentSet, empirical_moments


def single_spin(h):
    return IsingModel(J=np.zeros((1, 1)), h=np.array([h]))


def pair_model(j, h=(0.0, 0.0)):
    coupling = np.array([[0.0, j], [j, 0.0]])
    return IsingModel(J=coupling, h=np.array(h))


# ------------------------------------------------------------ log_partition

def test_logz_single_spin_closed_form():
    assert log_partition(single_spin(0.5)) == pytest.approx(math.log(2 * math.cosh(0.5)))


def test_logz_pair_hand_enumeration():
    # four states: +- aligned give e^{+-1}; ln(2e + 2/e)
    assert log_partition(pair_model(1.0)) == pytest.approx(math.log(2 * math.e + 2 / math.e))


def test_logz_zero_model_is_n_log2():
    model = IsingModel(J=np.zeros((6, 6)), h=np.zeros(6))
    assert log_partition(model) == pytest.approx(6 * math.log(2), abs=1e-12)


def test_logz_matches_brute_force(rng):
    for seed in range(5):
        model = planted_model(6, 0.4, 0.5, seed)
        assert log_partition(model) == pytest.approx(
            brute_log_partition(model.J, model.h), abs=1e-10)


def test_logz_permutation_invariant():
    model = planted_model(7, 0.3, 0.4, 3)
    perm = np.array([4, 0, 6, 2, 1, 5, 3])
    permuted = IsingModel(J=model.J[np.ix_(perm, perm)], h=model.h[perm])
    assert log_partition(permuted) == pytest.approx(log_partition(model), abs=1e-10)


def test_logz_overflow_safe():
    model = IsingModel(J=np.zeros((3, 3)), h=np.full(3, 400.0))
    assert log_partition(model) == pytest.approx(1200.0, abs=1e-6)


def test_logz_size_guard():
    with pytest.raises(SizeLimitError, match="sampler"):
        log_partition(IsingModel(J=np.zeros((26, 26)), h=np.zeros(26)))


def test_fit_and_histogram_size_guards():
    n = 21
    targets = MomentSet(q=np.zeros(n), Q=np.eye(n), C=np.eye(n), sample_size=math.inf)
    with pytest.raises(SizeLimitError):
        fit_maxent_exact(targets)
    rows = np.ones((3, n), dtype=np.int8)
    big = SpinMatrix(tickers=[f"t{i}" for i in range(n)],
                     dates=["d0", "d1", "d2"], values=rows)
    with pytest.raises(SizeLimitError):
        entropy_empirical(big)


# ------------------------------------------------------------ exact moments

def test_pair_moment_tanh():
    mom = exact_moments(pair_model(1.0))
    assert mom.q == pytest.approx([0.0, 0.0], abs=1e-12)
    assert mom.Q[0, 1] == pytest.approx(math.tanh(1.0))
    assert mom.is_exact


def test_independent_moments_factorize():
    model = IsingModel(J=np.zeros((3, 3)), h=np.array([0.3, -0.7, 1.1]))
    mom = exact_moments(model)
    assert np.allclose(mom.q, np.tanh(model.h))
    expected = np.outer(np.tanh(model.h), np.tanh(model.h))
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(mom.Q[off], expected[off])


def test_spin_flip_negates_means():
    h = np.array([0.4, -0.2, 0.9])
    up = exact_moments(IsingModel(J=np.zeros((3, 3)), h=h))
    down = exact_moments(IsingModel(J=np.zeros((3, 3)), h=-h))
    assert np.allclose(up.q, -down.q)


# odd and even N, N=1 (empty low half of the spin split) and the N=5/6 originals
SPLIT_SIZES = (1, 2, 5, 6, 9)


def test_moments_match_brute_force():
    for n in SPLIT_SIZES:
        model = planted_model(n, 0.5, 0.6, 8)
        q, big_q = brute_moments(model.J, model.h)
        mom = exact_moments(model)
        assert np.allclose(mom.q, q, atol=1e-12)
        assert np.allclose(mom.Q, big_q, atol=1e-12)


def test_gibbs_probabilities_normalized():
    from conftest import brute_states

    for n in SPLIT_SIZES:
        for seed in range(3):
            model = planted_model(n, 0.4, 0.5, 20 + seed)
            p = gibbs_probabilities(model)
            assert abs(p.sum() - 1.0) <= 1e-12
            # reindex oracle states to the package convention: bit j <-> spin j
            idx = [int(sum((1 << j) for j in range(n) if s[j] > 0)) for s in brute_states(n)]
            assert np.allclose(p[idx], brute_probabilities(model.J, model.h), atol=1e-13)


def test_multi_block_enumeration_joins_decoupled_clusters():
    # N=22 is four enumeration blocks; cluster a (spins 5-14) straddles the low half 0-10
    a = np.arange(5, 15)
    b = np.setdiff1d(np.arange(22), a)
    parts = [(idx, planted_model(len(idx), 0.4, 0.5, 60 + len(idx))) for idx in (a, b)]
    coupling, field = np.zeros((22, 22)), np.zeros(22)
    for idx, part in parts:
        coupling[np.ix_(idx, idx)] = part.J
        field[idx] = part.h
    model = IsingModel(J=coupling, h=field)

    q, big_q = np.zeros(22), np.zeros((22, 22))
    for idx, part in parts:
        q[idx], big_q[np.ix_(idx, idx)] = brute_moments(part.J, part.h)
    in_a = np.isin(np.arange(22), a)
    across = in_a[:, None] != in_a[None, :]  # pairs of independent spins
    big_q[across] = np.outer(q, q)[across]
    mom = exact_moments(model)
    assert np.allclose(mom.q, q, atol=1e-12)
    assert np.allclose(mom.Q, big_q, atol=1e-12)
    assert log_partition(model) == pytest.approx(
        sum(brute_log_partition(part.J, part.h) for _, part in parts), abs=1e-10)
    assert entropy_exact(model) == pytest.approx(
        sum(brute_entropy(part.J, part.h) for _, part in parts), abs=1e-10)


# ----------------------------------------------------- gradient certificates

def test_logz_field_gradient_is_mean():
    step = 1e-4
    for seed in range(10):
        model = planted_model(6, 0.3, 0.4, 100 + seed)
        mom = exact_moments(model)
        i = seed % 6
        h_plus, h_minus = model.h.copy(), model.h.copy()
        h_plus[i] += step
        h_minus[i] -= step
        fd = (log_partition(IsingModel(J=model.J, h=h_plus))
              - log_partition(IsingModel(J=model.J, h=h_minus))) / (2 * step)
        assert abs(fd - mom.q[i]) <= 1e-6


def test_logz_coupling_gradient_is_pair_moment():
    step = 1e-4
    for seed in range(10):
        model = planted_model(6, 0.3, 0.4, 200 + seed)
        mom = exact_moments(model)
        i, j = (seed % 5, 5)
        up, down = model.J.copy(), model.J.copy()
        up[i, j] += step
        up[j, i] += step
        down[i, j] -= step
        down[j, i] -= step
        fd = (log_partition(IsingModel(J=up, h=model.h))
              - log_partition(IsingModel(J=down, h=model.h))) / (2 * step)
        assert abs(fd - mom.Q[i, j]) <= 1e-6


# ------------------------------------------------------------------ fitting

def test_fit_round_trip_planted():
    true = planted_model(5, 0.2, 0.5, 4)
    targets = exact_moments(true)
    fit = fit_maxent_exact(targets, tol=1e-8)
    refitted = exact_moments(fit.model)
    assert fit.residual <= 1e-8
    assert np.abs(refitted.q - targets.q).max() <= 1e-8
    assert np.abs(refitted.Q - targets.Q).max() <= 1e-8
    assert fit.method == "exact"


def test_fit_identifiability():
    for seed in range(4):
        true = planted_model(8, 1.0 / 8, 0.4, 30 + seed)
        fit = fit_maxent_exact(exact_moments(true), tol=1e-9)
        assert np.abs(fit.model.h - true.h).max() <= 1e-6
        assert np.abs(fit.model.J - true.J).max() <= 1e-6


def test_fit_uniform_targets_give_zero_model():
    n = 4
    targets = MomentSet(q=np.zeros(n), Q=np.eye(n), C=np.eye(n), sample_size=math.inf)
    fit = fit_maxent_exact(targets)
    assert np.abs(fit.model.h).max() <= 1e-8
    assert np.abs(fit.model.J).max() <= 1e-8


def test_fit_single_biased_spin():
    n = 3
    q = np.array([0.9, 0.0, 0.0])
    big_q = np.eye(n)
    big_q[0, 1] = big_q[1, 0] = q[0] * q[1]
    big_q[0, 2] = big_q[2, 0] = q[0] * q[2]
    targets = MomentSet(q=q, Q=big_q, C=big_q - np.outer(q, q), sample_size=math.inf)
    fit = fit_maxent_exact(targets)
    assert fit.model.h[0] == pytest.approx(math.atanh(0.9), abs=1e-6)
    assert np.abs(fit.model.h[1:]).max() <= 1e-7
    assert np.abs(fit.model.J).max() <= 1e-7


def test_fit_at_the_size_limit():
    # a fit enumerates one block per trial point: a FIT_LIMIT past the block
    # size fails here, as the block unpacking in fit_maxent_exact raises
    true = planted_model(FIT_LIMIT, 0.05, 0.3, 1)
    targets = exact_moments(true)
    fit = fit_maxent_exact(targets, tol=1e-8)
    refitted = exact_moments(fit.model)
    assert fit.residual <= 1e-8 and fit.warnings == []
    assert np.abs(refitted.q - targets.q).max() <= 1e-8
    assert np.abs(refitted.Q - targets.Q).max() <= 1e-8
    assert np.abs(fit.model.J - true.J).max() <= 1e-6


def test_fit_warns_about_pairs_with_an_empty_sign_cell():
    rng = np.random.default_rng(3)
    rows = rng.choice([-1, 1], size=(400, 5)).astype(np.int8)
    rows[rows[:, 0] == 1, 1] = 1  # (s_0, s_1) = (+1, -1) never shows
    moments = empirical_moments(spins_of(rows))
    couplings = []
    for tol in (1e-6, 1e-8, 1e-10):
        fit = fit_maxent_exact(moments, tol=tol)
        assert len(fit.warnings) == 1 and "pairs (0, 1) never show" in fit.warnings[0]
        couplings.append(abs(fit.model.J[0, 1]))
    assert couplings[0] < couplings[1] < couplings[2]  # tol, not the data, sets J_01
    assert np.isfinite(multi_information_ratio(spins_of(rows)).ratio)  # still a ratio

    duplicated = rng.choice([-1, 1], size=(400, 6)).astype(np.int8)
    duplicated[:, 4] = duplicated[:, 2]
    fit = fit_maxent_exact(empirical_moments(spins_of(duplicated)))
    assert len(fit.warnings) == 1 and "pairs (2, 4) never show" in fit.warnings[0]
    duplicated[:, 4] = rng.choice([-1, 1], size=400)
    assert fit_maxent_exact(empirical_moments(spins_of(duplicated))).warnings == []


def test_fit_not_converged_raises_with_best_iterate():
    targets = exact_moments(planted_model(6, 0.3, 0.4, 5))
    with pytest.raises(ConvergenceError) as caught:
        fit_maxent_exact(targets, tol=1e-20, max_iter=3)
    best = caught.value.best
    assert isinstance(best, FitReport) and best.method == "exact"
    assert np.isfinite(best.model.J).all() and np.isfinite(best.model.h).all()
    assert best.residual > 1e-20


def test_fit_boundary_targets_error():
    targets = MomentSet(q=np.array([1.0, 0.0]), Q=np.eye(2), C=np.eye(2),
                        sample_size=math.inf)
    with pytest.raises(BoundaryError):
        fit_maxent_exact(targets)


# ---------------------------------------------------------------- entropies

def test_entropy_uniform():
    model = IsingModel(J=np.zeros((3, 3)), h=np.zeros(3))
    assert entropy_exact(model) == pytest.approx(3 * math.log(2), abs=1e-10)


def test_entropy_single_spin_closed_form():
    p = (1 + math.tanh(0.5)) / 2
    expected = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    assert entropy_exact(single_spin(0.5)) == pytest.approx(expected, abs=1e-12)


def test_entropy_decreases_with_coupling():
    values = [entropy_exact(pair_model(j)) for j in (0.0, 0.5, 1.0)]
    assert values[0] > values[1] > values[2]
    for j, s in zip((0.0, 0.5, 1.0), values):
        assert s == pytest.approx(brute_entropy(pair_model(j).J, np.zeros(2)), abs=1e-12)


def test_entropy_matches_brute_force():
    for n in SPLIT_SIZES:
        model = planted_model(n, 0.5, 0.5, 77)
        assert entropy_exact(model) == pytest.approx(brute_entropy(model.J, model.h), abs=1e-10)


def test_entropy_independent_values():
    assert entropy_independent(np.zeros(3)) == pytest.approx(3 * math.log(2))
    assert entropy_independent(np.array([1.0, -1.0])) == 0.0
    p = 0.75
    h_b = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    assert entropy_independent(np.array([0.5])) == pytest.approx(h_b)


def test_entropy_independent_rejects_out_of_range():
    with pytest.raises(BoundaryError):
        entropy_independent(np.array([1.2]))


def spins_of(rows):
    rows = np.asarray(rows, dtype=np.int8)
    return SpinMatrix(tickers=[f"t{i}" for i in range(rows.shape[1])],
                      dates=[f"d{i}" for i in range(rows.shape[0])],
                      values=rows)


def test_entropy_empirical_cases():
    assert entropy_empirical(spins_of([[1, -1]] * 7)) == 0.0
    two_state = spins_of([[1, 1], [-1, -1]] * 2)
    assert entropy_empirical(two_state) == pytest.approx(math.log(2))
    full = spins_of([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    assert entropy_empirical(full) == pytest.approx(2 * math.log(2))


# --------------------------------------------------------- multi-information

def test_multi_information_planted_pairwise():
    from isingmarket import SamplerConfig, glauber_sample

    model = planted_model(6, 0.35, 0.2, 9)
    mat = glauber_sample(model, SamplerConfig(rows=20000, burn_in=500, thin=1, seed=9))
    report = multi_information_ratio(mat)
    assert report.S1 >= report.S2 >= report.SN - 0.05
    assert report.I2 >= -1e-9 and report.IN >= -1e-9
    assert report.ratio >= 0.9
    assert not report.small_sample
    assert report.units == "nats"


def test_multi_information_repeated_configuration_degenerate():
    with pytest.raises(DegenerateRatioError):
        multi_information_ratio(spins_of([[1, -1, 1]] * 50))


def test_multi_information_independent_biased_degenerate():
    from isingmarket import SamplerConfig, glauber_sample

    model = IsingModel(J=np.zeros((5, 5)), h=np.full(5, 0.4))
    mat = glauber_sample(model, SamplerConfig(rows=4000, burn_in=200, thin=1, seed=2))
    with pytest.raises(DegenerateRatioError):
        multi_information_ratio(mat, tol=0.05)


def test_multi_information_small_sample_flag():
    from isingmarket import SamplerConfig, glauber_sample

    model = planted_model(6, 0.35, 0.2, 10)
    mat = glauber_sample(model, SamplerConfig(rows=300, burn_in=200, thin=1, seed=1))
    report = multi_information_ratio(mat)
    assert report.small_sample  # 300 < 10 * 2^6
