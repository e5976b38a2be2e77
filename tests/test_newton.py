import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from isingmarket.newton import _cg, newton


def test_step_halving_converges_with_one_state_alive():
    # sum_k sqrt(1 + x_k^2): smooth and convex, but so flat away from 0 that
    # the damped Newton step from x = 2 overshoots to x = -3 and is halved
    live = {"states": 0}
    seen_at_evaluate = []

    def release():
        live["states"] -= 1

    class Weights:
        """Hessian weights 1 / (1 + x^2)^1.5; a finalizer counts live states."""

        def __init__(self, x):
            self.values = (1.0 + x * x) ** -1.5
            live["states"] += 1
            weakref.finalize(self, release)

    def evaluate(x):
        seen_at_evaluate.append(live["states"])
        return Weights(x), -x / np.sqrt(1.0 + x * x)

    def hessp(state, v):
        return state[0].values * v

    x, steps, residual = newton(evaluate, hessp, np.array([2.0, -1.5]), 1e-12, 50)
    assert residual <= 1e-12
    assert np.abs(x).max() < 1e-12
    assert len(seen_at_evaluate) > steps + 1  # some trial point was rejected
    assert seen_at_evaluate == [0] * len(seen_at_evaluate)  # no earlier state alive


def test_stops_when_no_step_size_reduces_the_gradient():
    # at tol=0 the quadratic's gradient b - A x ends at rounding level, not at 0
    a, b = np.array([[1.0, 0.9], [0.9, 1.0]]), np.array([0.1, 0.2])
    x, steps, residual = newton(lambda x: (b - a @ x,), lambda state, v: a @ v,
                                np.zeros(2), 0.0, 100)
    assert steps < 100 and residual > 0.0
    assert np.allclose(x, np.linalg.solve(a, b), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("case", ["solve", "maxiter", "zero", "psolve", "psolve-maxiter"])
def test_cg_matches_scipy_bit_for_bit(n, case):
    # scipy's cg is the oracle: the same arithmetic gives the same bits, also
    # with a preconditioner (psolve: M^-1 r, scipy's M)
    rng = np.random.default_rng(n)
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    maxiter = case.endswith("maxiter")
    condition = 1e12 if maxiter else 1e2
    a = (rotation * np.logspace(0, np.log10(condition), n)) @ rotation.T
    b = np.zeros(n) if case == "zero" else rng.normal(size=n)
    # newton's atol 0.1 |b|, or one never reached (with scipy's 1e-5 |b| floor off)
    atol, rtol = (1e-300, 0.0) if maxiter else (0.1 * np.linalg.norm(b), 1e-5)
    psolve, scipy_m = None, None
    if case.startswith("psolve"):  # M^-1 symmetric positive definite, in another basis
        other, _ = np.linalg.qr(rng.normal(size=(n, n)))
        m_inv = (other * np.logspace(0, 1, n)) @ other.T
        psolve = lambda r: m_inv @ r  # noqa: E731
        scipy_m = LinearOperator((n, n), matvec=psolve, dtype=float)
    expected, info = cg(a, b, atol=atol, rtol=rtol, M=scipy_m)
    assert np.array_equal(_cg(lambda v: a @ v, b, atol, psolve), expected)
    if maxiter and n > 1:  # one step solves a 1 x 1 system exactly
        assert info == 10 * n
