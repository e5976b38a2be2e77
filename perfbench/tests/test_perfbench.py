"""Tests of the benchmark's own code: generator, span arithmetic, oracle, checks."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from isingmarket import exact, ingest, moments, stats  # noqa: E402
from isingmarket.model import IsingModel  # noqa: E402


def small_market(seed):
    return gen.generate_market(seed, n_tickers=4, n_days=300)


def test_generator_is_deterministic_per_seed_and_varies_across_seeds():
    a, b, c = small_market(7), small_market(7), small_market(8)
    assert a.files == b.files and a.dropped == b.dropped and a.dates == b.dates
    assert np.array_equal(a.spins, b.spins)
    assert a.files != c.files
    assert not np.array_equal(a.spins[:50], c.spins[:50])


def test_generator_answers_match_what_ingest_must_produce():
    market = small_market(3)
    series = [ingest.parse_ohlc(market.files[t], ticker=t) for t in market.tickers]
    assert {s.ticker: s.dropped for s in series} == market.dropped
    assert all(count >= 4 for count in market.dropped.values())
    matrix = ingest.binarize(series)
    assert matrix.dates == market.dates
    assert len(market.dates) < 300  # missing dates shrink the intersection
    assert np.array_equal(matrix.values, market.spins)


def _span(name, start, end, parent):
    return [name, start, end, parent, {}]


def test_self_time_and_coverage_on_a_hand_built_tree():
    tree = [
        _span("cli.step.a", 0.0, 10.0, -1),   # 0: children cover [1,4] and [5,9]
        _span("exact.fit", 1.0, 4.0, 0),      # 1: child covers [2,3]
        _span("exact.log_z", 2.0, 3.0, 1),    # 2: leaf
        _span("exact.log_z", 5.0, 9.0, 0),    # 3: child covers [6,7]
        _span("exact.log_z", 6.0, 7.0, 3),    # 4: nested in a span of its own name
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    assert spans.covered(tree, ["exact.log_z"]) == pytest.approx(1.0 + 4.0)
    assert spans.covered(tree, ["exact.fit", "exact.log_z"]) == pytest.approx(3.0 + 4.0)
    overlapping = [_span("root", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0),
                   _span("y", 3.0, 6.0, 0)]
    assert spans.self_times(overlapping)[0] == pytest.approx(5.0)


def test_tracer_patches_every_binding_and_restores_them():
    sampler_fn, moments_fn = stats.glauber_sample, moments.empirical_moments
    assert exact.empirical_moments is moments_fn  # exact binds it by ``from .moments import``
    tracer = spans.Tracer()
    patched = spans.install(tracer, {})
    try:
        assert stats.glauber_sample is not sampler_fn
        assert exact.empirical_moments is not moments_fn
        model = IsingModel(J=np.zeros((2, 2)), h=np.zeros(2))
        exact.exact_moments(model)
        names = [span[spans.NAME] for span in tracer.spans]
        assert names == ["exact.exact_moments", "exact.log_partition"]
        assert tracer.spans[1][spans.PARENT] == 0
    finally:
        spans.uninstall(patched)
    assert stats.glauber_sample is sampler_fn
    assert exact.empirical_moments is moments_fn


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_oracle_agrees_with_exact_enumeration(n):
    rng = np.random.default_rng(n)
    coupling = np.triu(rng.normal(0.0, 0.4, (n, n)), 1)
    model = IsingModel(J=coupling + coupling.T, h=rng.normal(0.0, 0.5, n))
    log_z, q, pair, entropy = oracle.gibbs(model.J, model.h)
    enumerated = exact.exact_moments(model)
    assert log_z == pytest.approx(exact.log_partition(model), abs=1e-10)
    assert np.allclose(q, enumerated.q, atol=1e-12)
    assert np.allclose(pair, enumerated.Q, atol=1e-12)
    assert entropy == pytest.approx(exact.entropy_exact(model), abs=1e-10)


def test_corrupted_artifacts_fail_their_checks(tmp_path):
    market = small_market(5)
    spins_path = tmp_path / "spins.csv"
    spins_path.write_text(gen.spin_csv_text(market.tickers, market.dates, market.spins))
    assert workloads.check_spins(spins_path, market.tickers, market.dates, market.spins) == []
    flipped = market.spins.copy()
    flipped[10, 2] *= -1
    spins_path.write_text(gen.spin_csv_text(market.tickers, market.dates, flipped))
    assert workloads.check_spins(spins_path, market.tickers, market.dates, market.spins)

    q, pair = oracle.empirical(market.spins)
    payload = {"q": q.tolist(), "Q": pair.tolist(), "C": (pair - np.outer(q, q)).tolist(),
               "sample_size": len(market.dates)}
    moments_path = tmp_path / "moments.json"
    moments_path.write_text(json.dumps(payload))
    assert workloads.check_moments(moments_path, market.spins) == []
    payload["q"][0] += 1e-6
    moments_path.write_text(json.dumps(payload))
    assert workloads.check_moments(moments_path, market.spins)

    step = tmp_path / "fit-exact"
    step.mkdir()
    sub = market.spins[:, :3]
    fit = exact.fit_maxent_exact(moments.empirical_moments(
        ingest.SpinMatrix(tickers=market.tickers[:3], dates=market.dates, values=sub)))
    (step / "fit.manifest.json").write_text(json.dumps({"config": {"tol": 1e-8}}))
    (step / "fit.json").write_text(json.dumps(fit.to_dict()))
    assert workloads.check_exact_fit(step, sub) == []
    broken = fit.to_dict()
    broken["model"]["h"][0] += 1e-3
    (step / "fit.json").write_text(json.dumps(broken))
    assert workloads.check_exact_fit(step, sub)


def test_multiinfo_check_catches_an_entropy_off_the_fitted_model(tmp_path):
    market = small_market(6)
    sub = market.spins[:, :4]
    matrix = ingest.SpinMatrix(tickers=market.tickers[:4], dates=market.dates, values=sub)
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    (fit_dir / "fit.json").write_text(json.dumps(
        exact.fit_maxent_exact(moments.empirical_moments(matrix)).to_dict()))
    report = exact.multi_information_ratio(matrix).to_dict()
    path = tmp_path / "multiinfo.json"
    path.write_text(json.dumps(report))
    assert workloads.check_multiinfo(path, sub, fit_dir) == []
    report["S2"] += 1e-4  # now inconsistent with I2 and the ratio
    path.write_text(json.dumps(report))
    assert workloads.check_multiinfo(path, sub)
    report["I2"] -= 1e-4
    report["ratio"] = report["I2"] / report["IN"]  # consistent, but not the model's S2
    path.write_text(json.dumps(report))
    assert workloads.check_multiinfo(path, sub) == []
    assert workloads.check_multiinfo(path, sub, fit_dir)


def test_desk_fit_checks_pass_on_program_output_and_catch_corruption(tmp_path):
    from isingmarket import cli

    market = gen.generate_market(9, n_tickers=50, n_days=1000)
    ohlc = workloads.write_inputs("desk_fit", tmp_path, market)
    for _, argv in workloads.plan("desk_fit", tmp_path, 9, ohlc)["variants"][0]:
        assert cli.main(argv) == 0
    out = tmp_path / "out" / "0"
    assert workloads._check_variant("desk_fit", out, 0, market) == {}

    def corrupt(relative, edit):
        path = out / relative
        original = path.read_text()
        payload = json.loads(original)
        edit(payload)
        path.write_text(json.dumps(payload))
        found = workloads._check_variant("desk_fit", out, 0, market)
        path.write_text(original)
        return found

    def nudge(values, index=0):
        values[index] += 1e-5

    assert "fit-tap-inv" in corrupt("fit-tap-inv/fit.json", lambda p: nudge(p["model"]["J"], 1))
    assert "fit-plm" in corrupt("fit-plm/fit.json", lambda p: nudge(p["model"]["h"]))
    assert "tap" in corrupt("tap/tap.json", lambda p: nudge(p["m"]))
    assert "bias" in corrupt("bias/bias.json", lambda p: p["rows"][3].update(h_int_std=0.5))
    assert "normality" in corrupt("normality/normality.json",
                                  lambda p: p.update(jb_stat=p["jb_stat"] * 1.001))


def test_a_step_whose_artifacts_change_between_passes_counts_as_failed():
    import run

    def record(variant, code_a, digest_b):
        return {"variant": variant, "codes": {"a": code_a, "b": 0},
                "digests": {"a": "x", "b": digest_b}, "errors": {}}

    passes = [record(0, 0, "y"), record(1, 0, "w"), record(0, 0, "z"), record(1, 1, "w")]
    attempted, failed, reasons = run.account(passes, {})
    assert (attempted, failed) == (8, 2)
    assert set(reasons) == {"a", "b"}
    assert run.account(passes[:1], {"a": ["bad"]})[1] == 1
