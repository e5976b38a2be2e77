import json
import math
import sys
import threading

import numpy as np
import pytest

from conftest import planted_model, reference_glauber
from isingmarket import (
    FitReport,
    IsingModel,
    SamplerConfig,
    empirical_moments,
    exact_moments,
    glauber_sample,
    noise_ratio,
)
from isingmarket import _native, sampler
from isingmarket.cli import main
from isingmarket.errors import (
    ConfigError,
    DegenerateRatioError,
    DivergenceError,
    KernelBuildError,
)
from isingmarket.exact import gibbs_probabilities, state_index
from isingmarket.sampler import _SWEEP_BATCH


def test_config_invariants():
    with pytest.raises(ConfigError):
        SamplerConfig(rows=0)
    with pytest.raises(ConfigError):
        SamplerConfig(rows=10, burn_in=-1)
    with pytest.raises(ConfigError):
        SamplerConfig(rows=10, thin=0)
    with pytest.raises(ConfigError):
        SamplerConfig(rows=5, seed=-1)


def test_matches_reference_loop_bit_for_bit():
    # J sd 5 at N=50 drives |z| past both 40 clamps; 301 + 730 sweeps span three
    # batches with a partial last one, and rows=1 records only the final sweep
    for n in (1, 2, 3, 5, 8, 50):
        for thin in (1, 3):
            for j_sd, h_sd in ((0.0, 0.0), (0.2, 0.5), (1.5, 3.0), (5.0, 3.0)):
                model = planted_model(n, j_sd, h_sd, seed=n + int(10 * j_sd))
                for rows, burn_in in ((730, 301), (1, 1100)):
                    config = SamplerConfig(rows=rows, burn_in=burn_in, thin=thin,
                                           seed=7 * n + thin)
                    case = (n, thin, j_sd, rows)
                    assert np.array_equal(glauber_sample(model, config).values,
                                          reference_glauber(model, config)), case


def test_matches_reference_loop_bit_for_bit_at_the_critical_demo_size():
    # N=100 as critical-demo samples it; 230 + 301 sweeps cross one batch boundary
    for thin, (j_sd, h_sd) in [(1, (0.1, 0.0)), (2, (0.1, 0.3)), (1, (5.0, 3.0))]:
        model = planted_model(100, j_sd, h_sd, seed=thin + int(10 * j_sd))
        config = SamplerConfig(rows=230 // thin, burn_in=301, thin=thin, seed=thin)
        assert np.array_equal(glauber_sample(model, config).values,
                              reference_glauber(model, config)), (thin, j_sd)


def test_matches_reference_loop_when_the_sweeps_fill_whole_batches():
    model = planted_model(5, 0.4, 0.2, seed=12)
    for rows, burn_in, thin in [(212, 300, 1), (362, 300, 2), (1, _SWEEP_BATCH - 1, 1)]:
        assert (rows * thin + burn_in) % _SWEEP_BATCH == 0
        config = SamplerConfig(rows=rows, burn_in=burn_in, thin=thin, seed=rows)
        assert np.array_equal(glauber_sample(model, config).values,
                              reference_glauber(model, config)), rows


@pytest.mark.parametrize("compiler, message", [
    (["no-such-cc", *_native._CC[1:]], "no-such-cc"),  # not installed
    ([*_native._CC, "--no-such-option"], "--no-such-option"),  # fails
])
def test_kernel_build_failure_is_a_typed_error(tmp_path, monkeypatch, compiler, message):
    model = planted_model(3, 0.2, 0.1, 0)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_dict()))
    build = tmp_path / "build"
    monkeypatch.setattr(_native, "_CC", compiler)
    monkeypatch.setattr(_native, "_BUILD_DIR", build)
    _native.load.cache_clear()
    try:
        with pytest.raises(KernelBuildError) as exc:
            glauber_sample(model, SamplerConfig(rows=5))
        assert message in exc.value.stderr
        out = tmp_path / "out"
        assert main(["sample", "--model", str(model_path), "--rows", "5", "-o", str(out)]) == 1
        assert not out.exists()
        assert not build.exists() or not any(build.iterdir())  # no partial library left
    finally:
        _native.load.cache_clear()


def test_fair_coins():
    n, t = 5, 40000
    model = IsingModel(J=np.zeros((n, n)), h=np.zeros(n))
    mat = glauber_sample(model, SamplerConfig(rows=t, burn_in=100, thin=1, seed=8))
    bound = 3.0 / math.sqrt(t)
    moments = empirical_moments(mat)
    assert np.abs(moments.q).max() <= bound
    off = moments.Q[np.triu_indices(n, 1)]
    assert np.abs(off).max() <= bound


def test_single_biased_spin_mean():
    t = 40000
    model = IsingModel(J=np.zeros((2, 2)), h=np.array([1.0, 0.0]))
    mat = glauber_sample(model, SamplerConfig(rows=t, burn_in=100, thin=1, seed=3))
    q1 = mat.values[:, 0].mean()
    se = math.sqrt((1 - math.tanh(1.0) ** 2) / t)
    assert abs(q1 - math.tanh(1.0)) <= 3 * se


def test_planted_moments_match_exact():
    model = planted_model(8, 0.3, 0.2, 77)
    mat = glauber_sample(model, SamplerConfig(rows=100000, burn_in=1000, thin=1, seed=7))
    emp = empirical_moments(mat)
    ex = exact_moments(model)
    assert np.abs(emp.q - ex.q).max() <= 0.01
    assert np.abs(emp.Q - ex.Q).max() <= 0.01


def test_detailed_balance_small_system():
    # shortened variant of the acceptance protocol
    model = planted_model(3, 0.2, 0.1, 11)
    probs = gibbs_probabilities(model)
    mat = glauber_sample(model, SamplerConfig(rows=300000, burn_in=1000, thin=1, seed=2))
    freqs = np.bincount(state_index(mat.values), minlength=8) / mat.t
    assert np.abs(freqs / probs - 1.0).max() <= 0.02


def test_seed_determinism():
    model = planted_model(6, 0.2, 0.3, 5)
    config = SamplerConfig(rows=500, burn_in=50, thin=2, seed=99)
    a = glauber_sample(model, config)
    b = glauber_sample(model, config)
    assert np.array_equal(a.values, b.values)
    assert a.dates == b.dates and a.tickers == b.tickers
    c = glauber_sample(model, SamplerConfig(rows=500, burn_in=50, thin=2, seed=100))
    assert not np.array_equal(a.values, c.values)


def test_output_is_valid_spin_matrix():
    model = planted_model(4, 0.4, 0.2, 1)
    mat = glauber_sample(model, SamplerConfig(rows=50, burn_in=10, thin=3, seed=0))
    assert mat.values.shape == (50, 4)
    assert set(np.unique(mat.values)) <= {-1, 1}
    mat.validate()


def test_thinning_changes_row_count_only():
    model = planted_model(3, 0.2, 0.1, 2)
    thin = glauber_sample(model, SamplerConfig(rows=100, burn_in=10, thin=5, seed=4))
    assert thin.values.shape == (100, 3)


# ------------------------------------------------------------- noise floors

def real_fit_surrogate(n=12, seed=600):
    model = planted_model(n, 0.05, 0.0, seed)
    return FitReport(model=model, method="tap-inv", iterations=1)


def test_noise_ratio_decreases_with_t():
    fit = real_fit_surrogate()
    lo = noise_ratio(fit, SamplerConfig(rows=1500, burn_in=500, thin=1, seed=601), "tap-inv")
    hi = noise_ratio(fit, SamplerConfig(rows=30000, burn_in=500, thin=1, seed=601), "tap-inv")
    assert hi.ratio < lo.ratio
    assert lo.sigma_noise >= 0 and lo.sigma_J > 0


def test_noise_ratio_deterministic():
    fit = real_fit_surrogate()
    config = SamplerConfig(rows=2000, burn_in=200, thin=1, seed=42)
    a = noise_ratio(fit, config, "nmf")
    b = noise_ratio(fit, config, "nmf")
    assert a == b


def test_noise_ratio_constant_couplings_degenerate():
    n = 6
    homogeneous = np.full((n, n), 0.1)
    np.fill_diagonal(homogeneous, 0.0)
    fit = FitReport(model=IsingModel(J=homogeneous, h=np.zeros(n)),
                    method="nmf", iterations=1)
    with pytest.raises(DegenerateRatioError):
        noise_ratio(fit, SamplerConfig(rows=1000, seed=0), "nmf")


def test_noise_ratio_of_a_single_spin_is_degenerate():
    fit = FitReport(model=IsingModel(J=np.zeros((1, 1)), h=np.zeros(1)),
                    method="nmf", iterations=1)
    with pytest.raises(DegenerateRatioError, match="N=1 has no couplings"):
        noise_ratio(fit, SamplerConfig(rows=100, seed=0), "nmf")


def test_noise_ratio_unknown_method():
    with pytest.raises(ConfigError):
        noise_ratio(real_fit_surrogate(), SamplerConfig(rows=1000, seed=0), "bogus")


# ------------------------------------------------------------- the two stages

def _run_joined(calls, timeout=60.0):
    """Run each call on a thread of its own, joined with a timeout so that a hang fails
    the test instead of blocking it; return what each call raised, or None."""
    raised = [None] * len(calls)

    def run(k):
        try:
            calls[k]()
        except BaseException as exc:
            raised[k] = exc

    runners = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(len(calls))]
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join(timeout)
    assert not any(runner.is_alive() for runner in runners), "glauber_sample did not return"
    return raised


def test_two_stage_chains_match_the_reference_loop_under_contention():
    # rows=1, burn_in=0 is a single sweep; 700 * 3 + 10 sweeps span five batches.  Four
    # concurrent callers, more than the cores, and a short switch interval press on the
    # buffer handoff: a batch swept before it is drawn, or redrawn while it is swept,
    # changes the chain
    model = planted_model(7, 0.6, 0.3, seed=31)
    configs = [SamplerConfig(rows=1, burn_in=0, seed=1),
               SamplerConfig(rows=700, burn_in=10, thin=3, seed=2)]
    expected = [reference_glauber(model, config) for config in configs]

    def sample_twice():
        for _ in range(2):
            for config, values in zip(configs, expected):
                assert np.array_equal(glauber_sample(model, config).values, values), config

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _run_joined([sample_twice] * 4) == [None] * 4
    finally:
        sys.setswitchinterval(interval)


def _failing_after(calls, stage):
    """A stage loader whose function runs the real stage `calls` times, then raises."""
    real = stage()
    count = iter(range(calls + 1))

    def function(*args):
        if next(count) == calls:
            raise RuntimeError(f"stage failed after {calls} calls")
        return real(*args)

    return lambda: function


def test_no_helper_thread_outlives_a_sample(monkeypatch):
    model = planted_model(5, 0.4, 0.2, seed=3)
    config = SamplerConfig(rows=3 * _SWEEP_BATCH, burn_in=10, seed=4)  # four batches
    before = threading.active_count()
    assert _run_joined([lambda: glauber_sample(model, config)]) == [None]
    assert threading.active_count() == before
    # the pool's draw fails on batch 0 or 2; then the sweeps fail on batch 0 or 2
    # (the pool has drawn ahead, or is drawing, the next batch or two)
    for name, stage in [("_draw", sampler._draw), ("_sweeps", sampler._sweeps)]:
        for calls in (0, 2):
            with monkeypatch.context() as patch:
                patch.setattr(sampler, name, _failing_after(calls, stage))
                raised, = _run_joined([lambda: glauber_sample(model, config)])
            assert isinstance(raised, RuntimeError), (name, calls)
            assert f"after {calls} calls" in str(raised)
            assert threading.active_count() == before, (name, calls)


def test_chain_lengths_past_int64_are_config_errors():
    for rows, burn_in, thin in [(1, 2**63, 1), (2, 0, 2**63), (2**62, 0, 4), (1, 2**63 - 1, 1)]:
        with pytest.raises(ConfigError, match="2\\^63"):
            SamplerConfig(rows=rows, burn_in=burn_in, thin=thin)
    SamplerConfig(rows=1, burn_in=2**63 - 2, thin=1)  # 2^63 - 1 sweeps still count


def test_couplings_whose_fields_overflow_are_refused_and_a_huge_field_pins_its_spin():
    config = SamplerConfig(rows=20, burn_in=5, seed=3)
    for top in (3e307, 1.7e308):  # (N+1) max|J| past the largest float at N = 6
        coupling = top * (1.0 - np.eye(6))
        with pytest.raises(DivergenceError, match="Glauber fields overflow"):
            glauber_sample(IsingModel(J=coupling, h=np.zeros(6)), config)
    near = IsingModel(J=2.5e307 * (1.0 - np.eye(6)), h=np.zeros(6))  # 7 x 2.5e307 is finite
    values = glauber_sample(near, config).values
    assert (values == values[:, :1]).all()  # each spin follows the others' majority
    h = np.array([1e308, -1e308, 0.1, -0.2, 1.7e308, 0.0])
    values = glauber_sample(IsingModel(J=0.1 * (1.0 - np.eye(6)), h=h), config).values
    assert (values[:, [0, 1, 4]] == [1, -1, 1]).all()
