import weakref

import numpy as np

from isingmarket.newton import newton


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
