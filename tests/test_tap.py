import math
import warnings

import numpy as np
import pytest

from conftest import planted_model
from isingmarket import IsingModel, exact_moments, stability_x, tap_fixed_point
from isingmarket.errors import DimensionMismatchError, DivergenceError


def test_zero_coupling_converges_immediately():
    model = IsingModel(J=np.zeros((4, 4)), h=np.array([0.3, -0.5, 0.0, 1.2]))
    sol = tap_fixed_point(model)
    assert sol.converged
    assert sol.iterations == 1
    assert np.allclose(sol.m, np.tanh(model.h))


def test_pair_paramagnetic_fixed_point():
    coupling = np.array([[0.0, 0.2], [0.2, 0.0]])
    sol = tap_fixed_point(IsingModel(J=coupling, h=np.zeros(2)))
    assert sol.converged
    assert np.allclose(sol.m, 0.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_matches_enumeration_at_weak_coupling(seed):
    n = 8 if seed % 2 == 0 else 10
    model = planted_model(n, 1.0 / n, 0.5, 300 + seed, h_dist="uniform")
    exact_q = exact_moments(model).q
    assert stability_x(exact_q) > 0.0
    sol = tap_fixed_point(model)
    assert sol.converged
    assert np.abs(sol.m - exact_q).max() <= 0.02


def test_spin_flip_covariance():
    model = planted_model(6, 0.15, 0.6, 17)
    up = tap_fixed_point(model)
    down = tap_fixed_point(IsingModel(J=model.J, h=-model.h))
    assert np.allclose(up.m, -down.m, atol=1e-8)


def test_derived_fields_satisfy_identities():
    model = planted_model(7, 0.2, 0.4, 23)
    sol = tap_fixed_point(model)
    assert np.all(np.abs(sol.m) < 1.0)
    assert np.array_equal(sol.variances, 1.0 - sol.m**2)
    assert np.array_equal(sol.third_cumulants, 2.0 * (sol.m**3 - sol.m))
    assert sol.x_stability == stability_x(sol.m)


def test_stability_x_values():
    # direct evaluation: Q2 = 0.25, Q4 = 0.0625 -> x = 0.4375
    assert stability_x(np.full(5, 0.5)) == pytest.approx(0.4375)
    assert stability_x(np.zeros(4)) == 0.0
    assert stability_x(np.array([1.0, -1.0, 1.0])) == pytest.approx(1.0)


def test_non_convergence_reported_not_raised():
    # strong couplings with undamped iteration oscillate
    model = planted_model(6, 2.0, 0.5, 5)
    sol = tap_fixed_point(model, damping=1.0, max_iter=50)
    assert not sol.converged
    assert sol.iterations == 50
    assert np.isfinite(sol.m).all()


def test_bad_damping_raises():
    model = planted_model(3, 0.1, 0.1, 1)
    with pytest.raises(DivergenceError):
        tap_fixed_point(model, damping=2.0)


@pytest.mark.parametrize("scale, n", [(1e160, 2), (1e300, 6), (1e154, 3)])
def test_couplings_whose_terms_overflow_raise_before_numpy_warns(scale, n):
    coupling = scale * (np.ones((n, n)) - np.eye(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="overflow"):
            tap_fixed_point(IsingModel(J=coupling, h=np.zeros(n)))
        # the largest scale whose terms stay finite still iterates
        top = 0.5 * math.sqrt(np.finfo(float).max / n)
        sol = tap_fixed_point(IsingModel(J=top * (np.ones((n, n)) - np.eye(n)),
                                          h=np.full(n, 0.1)), max_iter=5)
    assert np.isfinite(sol.m).all()


def test_nan_init_raises():
    model = planted_model(3, 0.1, 0.1, 1)
    with pytest.raises(DivergenceError):
        tap_fixed_point(model, init=np.array([0.0, np.nan, 0.0]))


def test_custom_init_used():
    model = planted_model(5, 0.1, 0.3, 2)
    sol_default = tap_fixed_point(model)
    sol_init = tap_fixed_point(model, init=np.zeros(5))
    assert sol_init.converged
    assert np.allclose(sol_default.m, sol_init.m, atol=1e-8)


def test_an_init_of_any_shape_but_n_is_refused():
    model = planted_model(5, 0.1, 0.3, 2)
    for init in (np.zeros((5, 5)), np.zeros(4), np.zeros(6), np.float64(0.0), [[0.0] * 5]):
        with pytest.raises(DimensionMismatchError, match="N=5"):
            tap_fixed_point(model, init=init)
