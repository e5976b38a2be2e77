import numpy as np
import pytest

from conftest import spin_matrix
from isingmarket import (
    correlation_spectrum,
    covariance_spectrum,
    empirical_moments,
    finite_size_band,
    marchenko_pastur_bounds,
)
from isingmarket.errors import DegenerateDataError, FormatError, InsufficientSampleError


def test_all_ones():
    m = empirical_moments(spin_matrix(np.ones((5, 2))))
    assert np.allclose(m.q, [1.0, 1.0])
    assert m.Q[0, 1] == 1.0
    assert m.C[0, 1] == 0.0


def test_anticorrelated_pair(rng):
    col = rng.integers(0, 2, size=12) * 2 - 1
    m = empirical_moments(spin_matrix(np.column_stack([col, -col])))
    assert m.Q[0, 1] == -1.0
    assert np.isclose(m.C[0, 1], -1.0 + m.q[0] ** 2)


def test_four_row_hand_sum():
    # hand sum over {(+,+), (-,-), (+,-), (-,+)}: q = 0, q_12 = 0, C_12 = 0
    m = empirical_moments(spin_matrix([[1, 1], [-1, -1], [1, -1], [-1, 1]]))
    assert np.allclose(m.q, 0.0)
    assert m.Q[0, 1] == 0.0
    assert m.C[0, 1] == 0.0


def test_moment_invariants(rng):
    m = empirical_moments(spin_matrix(rng.integers(0, 2, size=(40, 6)) * 2 - 1))
    assert np.array_equal(m.Q, m.Q.T)
    assert np.all(np.diag(m.Q) == 1.0)
    assert np.allclose(np.diag(m.C), 1.0 - m.q**2)
    assert np.all(np.abs(m.q) <= 1.0)
    assert np.all(np.abs(m.Q) <= 1.0 + 1e-15)
    # sample covariance of bounded variables is PSD up to rounding
    assert np.linalg.eigvalsh(m.C).min() >= -1e-10


def test_row_permutation_invariance(rng):
    rows = rng.integers(0, 2, size=(30, 4)) * 2 - 1
    m1 = empirical_moments(spin_matrix(rows))
    m2 = empirical_moments(spin_matrix(rows[rng.permutation(30)]))
    assert np.allclose(m1.q, m2.q, atol=1e-12)
    assert np.allclose(m1.Q, m2.Q, atol=1e-12)


def test_single_row_insufficient():
    with pytest.raises(InsufficientSampleError):
        empirical_moments(spin_matrix([[1, -1]]))


def test_moments_json_round_trip(rng):
    from isingmarket.moments import MomentSet

    m = empirical_moments(spin_matrix(rng.integers(0, 2, size=(20, 3)) * 2 - 1))
    back = MomentSet.from_dict(m.to_dict())
    assert np.allclose(back.q, m.q)
    assert np.allclose(back.C, m.C)
    assert back.sample_size == 20
    # the written C is for readers; C is derived from q and Q on the way back
    written = m.to_dict() | {"C": [[0.0]]}
    assert np.array_equal(MomentSet.from_dict(written).C, m.C)


GOOD_MOMENTS = {"N": 2, "sample_size": 100, "q": [0.1, -0.2], "Q": [[1.0, 0.3], [0.3, 1.0]]}


@pytest.mark.parametrize("change, message", [
    ({"Q": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0]]}, "N x N"),
    ({"q": [[0.1, -0.2], [0.1, -0.2]]}, "vector"),
    ({"q": [0.1, float("nan")]}, "finite"),
    ({"Q": [[1.0, float("inf")], [float("inf"), 1.0]]}, "finite"),
    ({"Q": [[1.0, 0.3], [0.4, 1.0]]}, "symmetric"),
    ({"Q": [[0.9, 0.3], [0.3, 1.0]]}, "unit diagonal"),
    ({"q": [1.5, -0.2]}, r"\[-1, 1\]"),
    ({"Q": [[1.0, 2.5], [2.5, 1.0]]}, r"\[-1, 1\]"),
    ({"sample_size": -5}, "sample_size"),
    ({"sample_size": 1}, "sample_size"),
    ({"sample_size": 2.5}, "sample_size"),
    ({"sample_size": True}, "sample_size"),
    ({"sample_size": "100"}, "sample_size"),
])
def test_moments_from_dict_rejects_impossible_moments(change, message):
    from isingmarket.moments import MomentSet

    assert MomentSet.from_dict(GOOD_MOMENTS).sample_size == 100
    with pytest.raises(FormatError, match=message):
        MomentSet.from_dict(GOOD_MOMENTS | change)


def test_moments_from_dict_reads_q_off_by_rounding_as_symmetric_with_a_unit_diagonal():
    from isingmarket.moments import MomentSet

    # a float sum S^T diag(p) S of three states: its diagonal is p's sum, 1 - 1.1e-16
    states = np.array([[1, 1], [1, -1], [-1, -1]], float)
    p = np.array([0.7, 0.2, 0.1])
    q, big_q = p @ states, states.T @ (p[:, None] * states)
    assert np.all(np.diag(big_q) != 1.0)
    for within in (big_q, big_q + [[9e-13, 9e-13], [0.0, -8e-13]]):
        read = MomentSet.from_dict({"q": q.tolist(), "Q": within.tolist()})
        assert np.array_equal(read.Q, read.Q.T) and np.all(np.diag(read.Q) == 1.0)
        assert np.abs(read.Q - within).max() <= 1e-12 and np.array_equal(read.q, q)
    for beyond in ([[2e-12, 0.0], [0.0, 0.0]], [[0.0, 2e-12], [0.0, 0.0]]):
        with pytest.raises(FormatError, match="Q must be symmetric with a unit diagonal"):
            MomentSet.from_dict({"q": q.tolist(), "Q": (big_q + beyond).tolist()})


def test_moments_from_dict_reads_a_moment_past_one_by_rounding_as_one():
    from isingmarket.moments import MomentSet

    above = np.nextafter(1.0, 2.0)
    read = MomentSet.from_dict({"q": [-above, -above], "Q": [[1.0, above], [above, 1.0]]})
    assert np.array_equal(read.q, [-1.0, -1.0]) and np.array_equal(read.Q, np.ones((2, 2)))
    past = 1.0 + 2e-12
    for change in ({"q": [0.0, -past]}, {"Q": [[1.0, past], [past, 1.0]]}):
        with pytest.raises(FormatError, match=r"moments of \+-1 spins must lie in \[-1, 1\]"):
            MomentSet.from_dict({"q": [0.0, 0.0], "Q": [[1.0, 0.0], [0.0, 1.0]]} | change)


def test_float32_moment_sums_equal_the_float64_ones_bit_for_bit(rng):
    from isingmarket.moments import moment_matrix

    column = rng.choice([-1, 1], size=(6000, 1))
    spins = np.hstack([rng.choice([-1, 1], size=(6000, 40)), np.ones((6000, 1)),
                       -np.ones((6000, 1)), column, column, -column])
    for rows in (spins, spins[:7], spins[:4097]):
        wide = moment_matrix(rows.astype(np.float64))
        assert np.array_equal(moment_matrix(rows.astype(np.float32)), wide)
        assert np.array_equal(empirical_moments(spin_matrix(rows)).Q, wide[1:, 1:])


def test_spectrum_anticorrelated_pair(rng):
    col = rng.integers(0, 2, size=50) * 2 - 1
    spec = correlation_spectrum(spin_matrix(np.column_stack([col, -col])))
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_spectrum_trace_is_n(rng):
    n = 7
    mat = spin_matrix(rng.integers(0, 2, size=(300, n)) * 2 - 1)
    spec = correlation_spectrum(mat)
    assert abs(spec.eigenvalues.sum() - n) <= 1e-8 * n
    assert spec.matrix_kind == "correlation"
    assert spec.market_mode == spec.eigenvalues[-1]


def test_spectrum_constant_column_errors():
    rows = np.ones((30, 3), dtype=np.int8)
    rows[:, 0] = [1, -1] * 15
    rows[:, 2] = [1, 1, -1] * 10
    with pytest.raises(DegenerateDataError, match="mid"):
        correlation_spectrum(spin_matrix(rows, tickers=["lo", "mid", "hi"]))


def test_spectrum_warns_when_t_not_larger():
    mat = spin_matrix([[1, -1, 1], [-1, 1, 1]])
    with pytest.warns(UserWarning):
        covariance_spectrum(mat)


def test_mp_bounds_formula():
    lo, hi = marchenko_pastur_bounds(100, 400)
    assert np.isclose(lo, 0.25)
    assert np.isclose(hi, 2.25)
    edge_lo, edge_hi = finite_size_band(100, 400)
    assert edge_lo < lo and edge_hi > hi


def test_mp_containment_iid_coins():
    """Independent fair coins: spectra stay in the finite-size noise band.

    Monte Carlo over 100 seeds at N=8, T=1e4.  The asymptotic MP support
    alone is crossed by Tracy-Widom edge fluctuations in ~7% of seeds
    (measured 93/100 on this seed family), so strict containment is asserted
    against the edge band and near-containment against the asymptotic edges.
    """
    inside_band = 0
    inside_asymptotic = 0
    for seed in range(100):
        gen = np.random.default_rng(seed)
        mat = spin_matrix(gen.integers(0, 2, size=(10000, 8)) * 2 - 1)
        spec = correlation_spectrum(mat)
        lo, hi = spec.eigenvalues[0], spec.eigenvalues[-1]
        inside_band += (lo >= spec.edge_lower and hi <= spec.edge_upper)
        inside_asymptotic += (lo >= spec.mp_lower and hi <= spec.mp_upper)
    assert inside_band >= 99
    assert inside_asymptotic >= 85
