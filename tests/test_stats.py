import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, ndtri  # test oracles only

from conftest import spin_matrix
from isingmarket import (
    IsingModel,
    bias_decomposition,
    critical_spectrum_demo,
    negative_fraction,
    normality_tests,
    powerlaw_fit,
    qq_compare,
    trim_upper_tail,
)
from isingmarket.errors import (
    DegenerateDataError,
    DimensionMismatchError,
    DomainError,
    InsufficientSampleError,
)
from isingmarket.stats import _chi2_sf, _normal_quantiles, chi2_gaussian, jarque_bera


# -------------------------------------------------------------------- qq

def test_qq_gaussian_on_diagonal():
    rng = np.random.default_rng(2)
    vals = rng.normal(2.0, 3.0, 100000)
    pairs = qq_compare(vals, 1000)
    assert pairs.shape == (999, 2)
    assert np.abs(pairs[:, 0] - pairs[:, 1]).max() <= 0.05 * vals.std()


def test_qq_contaminated_upper_tail_departs_upward():
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.normal(0, 1, 19000), rng.normal(8, 1, 1000)])
    pairs = qq_compare(vals, 1000)
    top = pairs[-10:]
    assert np.all(top[:, 0] > top[:, 1])  # empirical above the Gaussian line


def test_qq_constant_vector_flagged():
    with pytest.warns(UserWarning, match="constant"):
        pairs = qq_compare(np.full(2000, 3.0), 1000)
    assert np.allclose(pairs[:, 1], 3.0)


def test_qq_insufficient_data():
    with pytest.raises(InsufficientSampleError):
        qq_compare(np.arange(10.0), 1000)


# -------------------------------------------------------------------- trim

def test_trim_zero_fraction_identity():
    vals = np.array([3.0, 1.0, 2.0])
    assert np.array_equal(trim_upper_tail(vals, 0.0), vals)


def test_trim_matches_declared_count():
    rng = np.random.default_rng(0)
    vals = rng.normal(0, 1, 4950)
    kept = trim_upper_tail(vals, 200 / 4950)
    assert kept.size == 4750
    assert kept.max() < np.sort(vals)[-200:].min()


def test_trim_half_minus_eps_keeps_lower_half():
    vals = np.arange(1.0, 11.0)
    kept = trim_upper_tail(vals, 0.5 - 1e-9)
    assert np.array_equal(kept, np.arange(1.0, 6.0))


def test_trim_rejects_bad_fraction():
    with pytest.raises(DomainError):
        trim_upper_tail(np.arange(5.0), 0.5)
    with pytest.raises(DomainError):
        normality_tests(np.random.default_rng(0).normal(size=200), trim_fraction=-0.1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
       st.floats(0.0, 0.499))
def test_trim_is_ordered_upper_tail_subsequence(values, fraction):
    vals = np.array(values)
    kept = trim_upper_tail(vals, fraction)
    assert abs(kept.size - (vals.size - fraction * vals.size)) <= 1.0
    # the retained multiset is exactly the n-k smallest values
    assert np.array_equal(np.sort(kept), np.sort(vals)[:kept.size])
    # kept values appear in the input in the same order
    it = iter(vals.tolist())
    assert all(any(v == w for w in it) for v in kept.tolist())


# -------------------------------------------------------------- normality

def test_normality_gaussian_calibration():
    passed = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rep = normality_tests(rng.normal(0, 1, 10000), bins=20)
        passed += (rep.chi2_p >= 0.01 and rep.jb_p >= 0.01)
    assert passed >= 18


def test_normality_rejects_uniform_and_exponential():
    rng = np.random.default_rng(3)
    uniform = normality_tests(rng.uniform(0, 1, 10000), bins=20)
    assert uniform.jb_p < 0.01 and uniform.chi2_p < 0.01
    exponential = normality_tests(rng.exponential(1.0, 10000), bins=20)
    assert exponential.jb_p < 0.01 and exponential.chi2_p < 0.01


def test_normality_records_trimming():
    rng = np.random.default_rng(4)
    rep = normality_tests(rng.normal(0, 1, 1000), bins=20, trim_fraction=0.04)
    assert rep.trimmed == 40
    assert rep.n == 960
    assert 0.0 <= rep.chi2_p <= 1.0 and 0.0 <= rep.jb_p <= 1.0


def test_normality_insufficient_sample():
    with pytest.raises(InsufficientSampleError):
        normality_tests(np.random.default_rng(0).normal(0, 1, 30))


@pytest.mark.parametrize("test", [jarque_bera, chi2_gaussian])
def test_constant_sample_is_degenerate(test):
    with pytest.raises(DegenerateDataError):
        test(np.full(100, 0.3))


def test_chi2_reduces_bins_for_small_samples():
    rng = np.random.default_rng(6)
    _, _, bins_used = chi2_gaussian(rng.normal(0, 1, 60), bins=20)
    assert bins_used == 12  # 60 // 5


@settings(max_examples=50, deadline=None)
@given(st.floats(-100, 100), st.floats(0.01, 100))
def test_jb_location_scale_invariant(shift, scale):
    rng = np.random.default_rng(9)
    vals = rng.normal(0, 1, 500)
    base, _ = jarque_bera(vals)
    moved, _ = jarque_bera(vals * scale + shift)
    assert abs(base - moved) <= 1e-9 * max(1.0, base)


@pytest.mark.parametrize("exponent", [-900, -400, 400, 900])
def test_scale_free_statistics_keep_their_bits_under_a_power_of_two(exponent):
    # 2^900 * N(0, 1) overflows the fourth powers in Jarque-Bera and the squares in
    # a standard deviation; 2^-900 underflows them.  Neither may show in the results.
    vals = np.random.default_rng(4).normal(0, 1, 300)
    scaled = np.ldexp(vals, exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jarque_bera(scaled) == jarque_bera(vals)
        assert chi2_gaussian(scaled) == chi2_gaussian(vals)
        assert np.array_equal(qq_compare(scaled, 50), np.ldexp(qq_compare(vals, 50), exponent))
        report, base = normality_tests(scaled), normality_tests(vals)
    assert (report.mean, report.std) == (math.ldexp(base.mean, exponent),
                                         math.ldexp(base.std, exponent))
    assert (report.chi2_stat, report.jb_stat) == (base.chi2_stat, base.jb_stat)


def test_chi2_tail_matches_scipy_for_every_k_up_to_300():
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-30, 1e-8], np.geomspace(1e-3, 2000.0, 70)])
    for k in range(1, 301):
        expected = chdtrc(k, x)
        got = np.array([_chi2_sf(k, v) for v in x.tolist()])
        shown = expected > 1e-290  # deeper tails underflow in the oracle
        assert np.all(np.abs(got - expected)[shown] <= 1e-12 * expected[shown]), k


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e308))
def test_chi2_tail_at_two_degrees_is_exp_of_minus_half_x(x):
    assert _chi2_sf(2, x) == math.exp(-x / 2)  # bit for bit


def test_normal_quantiles_match_scipy():
    probs = np.arange(1, 100_001) / 100_001
    assert np.abs(_normal_quantiles(probs) - ndtri(probs)).max() <= 4e-15


# -------------------------------------------------------- negative fraction

def test_negative_fraction_cases():
    n = 6
    positive = np.abs(np.random.default_rng(1).normal(0, 1, (n, n)))
    positive = positive + positive.T
    np.fill_diagonal(positive, 0.0)
    assert negative_fraction(positive) == 0.0

    rng = np.random.default_rng(5)
    coupling = np.zeros((80, 80))
    iu = np.triu_indices(80, 1)
    coupling[iu] = rng.normal(0, 1, len(iu[0]))
    coupling = coupling + coupling.T
    frac = negative_fraction(coupling)
    assert abs(frac - 0.5) <= 3.0 / np.sqrt(len(iu[0]))
    flipped = negative_fraction(-coupling)
    zeros = np.count_nonzero(coupling[iu] == 0.0) / len(iu[0])
    assert flipped == pytest.approx(1.0 - frac - zeros)
    with pytest.raises(InsufficientSampleError):  # N=1: no upper-triangle coupling
        negative_fraction(np.zeros((1, 1)))
    with pytest.raises(DomainError):
        negative_fraction(np.array([[0.0, 1.0], [-1.0, 0.0]]))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_negative_fraction_in_unit_interval(n, seed):
    rng = np.random.default_rng(seed)
    coupling = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    coupling[iu] = rng.normal(0, 1, len(iu[0]))
    coupling = coupling + coupling.T
    assert 0.0 <= negative_fraction(coupling) <= 1.0


# -------------------------------------------------------------- power law

def test_powerlaw_exact_inverse_scaling():
    sizes = np.array([20.0, 40.0, 80.0, 160.0])
    fit = powerlaw_fit(sizes, 2.0 / sizes)
    assert abs(fit.alpha_hat - 1.0) <= 1e-12
    assert abs(fit.r2 - 1.0) <= 1e-12
    assert abs(fit.a_hat - 2.0) <= 1e-10
    assert fit.alpha_se <= 1e-12


def test_powerlaw_with_noise():
    rng = np.random.default_rng(8)
    sizes = np.array([20.0, 40.0, 80.0, 160.0, 320.0])
    means = 2.0 / sizes * (1.0 + 0.01 * rng.standard_normal(5))
    fit = powerlaw_fit(sizes, means)
    assert abs(fit.alpha_hat - 1.0) <= 0.05
    assert fit.r2 > 0.99


def test_powerlaw_permutation_invariant():
    sizes = np.array([20.0, 40.0, 80.0, 160.0])
    means = np.array([0.11, 0.052, 0.027, 0.012])
    fit = powerlaw_fit(sizes, means)
    perm = [2, 0, 3, 1]
    fit_p = powerlaw_fit(sizes[perm], means[perm])
    assert fit_p.alpha_hat == fit.alpha_hat
    assert fit_p.r2 == fit.r2


def test_powerlaw_preconditions():
    with pytest.raises(InsufficientSampleError):
        powerlaw_fit(np.array([10.0, 20.0]), np.array([1.0, 0.5]))
    with pytest.raises(DimensionMismatchError):
        powerlaw_fit(np.array([10.0, 20.0, 40.0]), np.array([1.0, 0.5]))
    with pytest.raises(DomainError, match="finite"):
        powerlaw_fit(np.array([10.0, 20.0, 40.0]), np.array([1.0, np.nan, 0.2]))
    with pytest.raises(DomainError, match="sizes must be strictly positive"):
        powerlaw_fit(np.array([-10.0, 20.0, 40.0]), np.array([1.0, 0.5, 0.2]))
    with pytest.raises(DomainError):
        powerlaw_fit(np.array([10.0, 20.0, 40.0]), np.array([1.0, -0.5, 0.2]))
    with pytest.raises(DegenerateDataError):  # the slope would be 0/0
        powerlaw_fit(np.array([10.0, 10.0, 10.0]), np.array([1.0, 0.5, 0.2]))
    with pytest.raises(DegenerateDataError):  # r2 would be 0/0
        powerlaw_fit(np.array([10.0, 20.0, 40.0]), np.array([0.1, 0.1, 0.1]))


# -------------------------------------------------------------------- bias

def test_bias_zero_couplings():
    model = IsingModel(J=np.zeros((3, 3)), h=np.array([0.1, 0.2, 0.3]))
    table = bias_decomposition(model, spin_matrix([[1, -1, 1], [-1, 1, 1]]))
    assert all(r.h_int_mean == 0.0 and r.h_int_std == 0.0 for r in table)
    assert [r.h for r in table] == [0.1, 0.2, 0.3]


def test_bias_single_row_formula():
    coupling = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = IsingModel(J=coupling, h=np.zeros(2))
    table = bias_decomposition(model, spin_matrix([[1, 1]]))
    assert table[0].h_int_mean == pytest.approx(0.5)  # 0.5 * J_12 * s_2
    assert table[1].h_int_mean == pytest.approx(0.5)


def test_bias_linear_in_couplings():
    rng = np.random.default_rng(12)
    coupling = np.zeros((4, 4))
    iu = np.triu_indices(4, 1)
    coupling[iu] = rng.normal(0, 0.5, len(iu[0]))
    coupling = coupling + coupling.T
    rows = rng.integers(0, 2, (30, 4)) * 2 - 1
    single = bias_decomposition(IsingModel(J=coupling, h=np.zeros(4)), spin_matrix(rows))
    double = bias_decomposition(IsingModel(J=2 * coupling, h=np.zeros(4)), spin_matrix(rows))
    for a, b in zip(single, double):
        assert b.h_int_mean == pytest.approx(2 * a.h_int_mean)
        assert b.h_int_std == pytest.approx(2 * a.h_int_std)


def test_bias_at_couplings_whose_squares_overflow():
    rng = np.random.default_rng(13)
    coupling = np.triu(rng.normal(0, 0.5, (5, 5)), 1)
    coupling = coupling + coupling.T
    spins = spin_matrix(rng.integers(0, 2, (40, 5)) * 2 - 1)
    base = bias_decomposition(IsingModel(J=coupling, h=np.zeros(5)), spins)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = bias_decomposition(IsingModel(J=np.ldexp(coupling, 900), h=np.zeros(5)), spins)
        assert [(r.h_int_mean, r.h_int_std) for r in big] == [
            (math.ldexp(r.h_int_mean, 900), math.ldexp(r.h_int_std, 900)) for r in base]
        huge = np.full((4, 4), 1.5e308) - np.diag(np.full(4, 1.5e308))
        with pytest.raises(DomainError, match="overflow"):  # 0.5 * 3 * 1.5e308
            bias_decomposition(IsingModel(J=huge, h=np.zeros(4)), spin_matrix([[1, 1, 1, 1]]))


def test_bias_dimension_mismatch():
    model = IsingModel(J=np.zeros((3, 3)), h=np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        bias_decomposition(model, spin_matrix([[1, -1]]))


# ---------------------------------------------------------- critical demo

def test_critical_demo_escape_and_containment():
    hot = critical_spectrum_demo(40, 1.0, 800, seed=3)
    assert hot.market_mode > hot.mp_upper
    assert hot.matrix_kind == "covariance"
    cold = critical_spectrum_demo(40, 0.0, 800, seed=3)
    assert cold.eigenvalues[0] >= cold.edge_lower
    assert cold.market_mode <= cold.edge_upper


def test_critical_demo_deterministic():
    a = critical_spectrum_demo(20, 0.5, 300, seed=11)
    b = critical_spectrum_demo(20, 0.5, 300, seed=11)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_critical_demo_preconditions():
    with pytest.raises(DomainError):
        critical_spectrum_demo(10, 1.0, 500, seed=0)
    with pytest.raises(DomainError):
        critical_spectrum_demo(40, 1.0, 100, seed=0)
    with pytest.raises(DomainError):
        critical_spectrum_demo(20, 1.0, 200, seed=-1)
