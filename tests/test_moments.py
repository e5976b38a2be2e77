import numpy as np
import pytest

from isingmarket import (
    SpinMatrix,
    correlation_spectrum,
    covariance_spectrum,
    empirical_moments,
    finite_size_band,
    marchenko_pastur_bounds,
)
from isingmarket.errors import DegenerateDataError, FormatError, InsufficientSampleError


def matrix_of(rows, tickers=None):
    rows = np.asarray(rows, dtype=np.int8)
    t, n = rows.shape
    return SpinMatrix(
        tickers=tickers or [f"t{i}" for i in range(n)],
        dates=[f"d{i}" for i in range(t)],
        values=rows,
    )


def test_all_ones():
    m = empirical_moments(matrix_of(np.ones((5, 2))))
    assert np.allclose(m.q, [1.0, 1.0])
    assert m.Q[0, 1] == 1.0
    assert m.C[0, 1] == 0.0


def test_anticorrelated_pair(rng):
    col = rng.integers(0, 2, size=12) * 2 - 1
    m = empirical_moments(matrix_of(np.column_stack([col, -col])))
    assert m.Q[0, 1] == -1.0
    assert np.isclose(m.C[0, 1], -1.0 + m.q[0] ** 2)


def test_four_row_hand_sum():
    # hand sum over {(+,+), (-,-), (+,-), (-,+)}: q = 0, q_12 = 0, C_12 = 0
    m = empirical_moments(matrix_of([[1, 1], [-1, -1], [1, -1], [-1, 1]]))
    assert np.allclose(m.q, 0.0)
    assert m.Q[0, 1] == 0.0
    assert m.C[0, 1] == 0.0


def test_moment_invariants(rng):
    m = empirical_moments(matrix_of(rng.integers(0, 2, size=(40, 6)) * 2 - 1))
    assert np.array_equal(m.Q, m.Q.T)
    assert np.all(np.diag(m.Q) == 1.0)
    assert np.allclose(np.diag(m.C), 1.0 - m.q**2)
    assert np.all(np.abs(m.q) <= 1.0)
    assert np.all(np.abs(m.Q) <= 1.0 + 1e-15)
    # sample covariance of bounded variables is PSD up to rounding
    assert np.linalg.eigvalsh(m.C).min() >= -1e-10


def test_row_permutation_invariance(rng):
    rows = rng.integers(0, 2, size=(30, 4)) * 2 - 1
    m1 = empirical_moments(matrix_of(rows))
    m2 = empirical_moments(matrix_of(rows[rng.permutation(30)]))
    assert np.allclose(m1.q, m2.q, atol=1e-12)
    assert np.allclose(m1.Q, m2.Q, atol=1e-12)


def test_single_row_insufficient():
    with pytest.raises(InsufficientSampleError):
        empirical_moments(matrix_of([[1, -1]]))


def test_moments_json_round_trip(rng):
    from isingmarket.moments import MomentSet

    m = empirical_moments(matrix_of(rng.integers(0, 2, size=(20, 3)) * 2 - 1))
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


def test_spectrum_anticorrelated_pair(rng):
    col = rng.integers(0, 2, size=50) * 2 - 1
    spec = correlation_spectrum(matrix_of(np.column_stack([col, -col])))
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_spectrum_trace_is_n(rng):
    n = 7
    mat = matrix_of(rng.integers(0, 2, size=(300, n)) * 2 - 1)
    spec = correlation_spectrum(mat)
    assert abs(spec.eigenvalues.sum() - n) <= 1e-8 * n
    assert spec.matrix_kind == "correlation"
    assert spec.market_mode == spec.eigenvalues[-1]


def test_spectrum_constant_column_errors():
    rows = np.ones((30, 3), dtype=np.int8)
    rows[:, 0] = [1, -1] * 15
    rows[:, 2] = [1, 1, -1] * 10
    with pytest.raises(DegenerateDataError, match="mid"):
        correlation_spectrum(matrix_of(rows, tickers=["lo", "mid", "hi"]))


def test_spectrum_warns_when_t_not_larger():
    mat = matrix_of([[1, -1, 1], [-1, 1, 1]])
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
        mat = matrix_of(gen.integers(0, 2, size=(10000, 8)) * 2 - 1)
        spec = correlation_spectrum(mat)
        lo, hi = spec.eigenvalues[0], spec.eigenvalues[-1]
        inside_band += (lo >= spec.edge_lower and hi <= spec.edge_upper)
        inside_asymptotic += (lo >= spec.mp_lower and hi <= spec.mp_upper)
    assert inside_band >= 99
    assert inside_asymptotic >= 85
