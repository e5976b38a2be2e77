"""Per-layer metrics: what each traced call counts and how a pass is summed.

A layer is one module of the program; ``cli`` is the layer of the step
spans the worker opens around each ``isingmarket.cli.main`` call.  Every
metric is computed on the spans of one traced pass; the benchmark reports
the median over traced passes.  Every workload reports every metric, 0 where
the layer does not run.

Which end-to-end metric a layer's metrics should move, and on which workload:

    layer      moves                  on
    cli        setup_s; pass_s        all; desk_fit
    serialize  pass_s                 desk_fit
    ingest     pass_s                 desk_fit (parse, reads); maxent_exact (write)
    moments    pass_s                 desk_fit
    exact      pass_s, peak_rss_mb    maxent_exact only
    inverse    pass_s                 desk_fit (plm); mc_noise (tap-inv refits)
    tap        pass_s                 desk_fit
    sampler    pass_s                 mc_noise (n50, n100); maxent_exact (n8)
    stats      pass_s                 desk_fit; mc_noise
    trace      (overhead of tracing)  all
"""

from __future__ import annotations

import os
import re

from spans import COUNTS, END, LAYERS, NAME, PARENT, START, covered, self_times
from workloads import EXACT_SUBSETS

SAMPLER_SIZES = (8, 50, 100)
STEP_PREFIX = "cli.step."

_CLAMPED = re.compile(r"clamped (\d+) of")


def _spin_updates(a, result):
    n = a["model"].n
    config = a["config"]
    return {"n": n, "updates": n * (config.burn_in + config.rows * config.thin)}


COUNTERS = {
    "ingest.parse_ohlc": lambda a, r: {"rows": len(r.rows), "dropped": r.dropped},
    "ingest.write_spin_csv": lambda a, r: {"rows": a["matrix"].t},
    "exact.log_partition": lambda a, r: {"n": a["model"].n},
    "exact.exact_moments": lambda a, r: {"n": a["model"].n},
    "exact.fit_maxent_exact": lambda a, r: {
        "n": a["targets"].n, "iterations": r.iterations, "residual": r.residual},
    "inverse.plm_fit": lambda a, r: {"iterations": r.iterations},
    "inverse.tap_invert": lambda a, r: {
        "clamped": sum(int(m.group(1)) for w in r.warnings for m in [_CLAMPED.search(w)] if m)},
    "tap.tap_fixed_point": lambda a, r: {"iterations": r.iterations,
                                         "converged": int(r.converged)},
    "sampler.glauber_sample": _spin_updates,
    "serialize.atomic_write_text": lambda a, r: {"bytes": len(a["text"].encode())},
    "serialize.sha256_file": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


def _named(spans, name):
    return [s for s in spans if s[NAME] == name]


def _total(spans, name, key):
    return sum(s[COUNTS].get(key, 0) for s in _named(spans, name))


def pass_metrics(spans: list[list], step_names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (import time and overhead excluded)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    out["cli.self_s"] = sum(t for s, t in zip(spans, selfs) if s[NAME].startswith(STEP_PREFIX))
    for step in step_names:
        out[f"cli.step_s.{step}"] = covered(spans, [STEP_PREFIX + step])

    writes = ["serialize.write_json", "serialize.write_csv", "serialize.atomic_write_text"]
    out["serialize.write_s"] = covered(spans, writes)
    out["serialize.bytes_written"] = _total(spans, "serialize.atomic_write_text", "bytes")
    out["serialize.hash_s"] = covered(spans, ["serialize.sha256_file"])
    out["serialize.bytes_hashed"] = _total(spans, "serialize.sha256_file", "bytes")

    out["ingest.parse_s"] = covered(spans, ["ingest.parse_ohlc"])
    out["ingest.rows_parsed"] = _total(spans, "ingest.parse_ohlc", "rows")
    out["ingest.rows_dropped"] = _total(spans, "ingest.parse_ohlc", "dropped")
    out["ingest.binarize_s"] = covered(spans, ["ingest.binarize"])
    out["ingest.spin_read_s"] = covered(spans, ["ingest.read_spin_csv"])
    out["ingest.spin_reads"] = len(_named(spans, "ingest.read_spin_csv"))
    out["ingest.spin_write_s"] = covered(spans, ["ingest.write_spin_csv"])
    out["ingest.spin_rows_written"] = _total(spans, "ingest.write_spin_csv", "rows")

    out["moments.empirical_s"] = covered(spans, ["moments.empirical_moments"])
    out["moments.empirical_calls"] = len(_named(spans, "moments.empirical_moments"))
    out["moments.spectrum_s"] = covered(
        spans, ["moments.correlation_spectrum", "moments.covariance_spectrum"])

    fits = _named(spans, "exact.fit_maxent_exact")
    for n in EXACT_SUBSETS:
        at_n = [s for s in fits if s[COUNTS].get("n") == n]
        out[f"exact.fit_s.n{n}"] = sum(s[END] - s[START] for s in at_n)
        out[f"exact.fit_iterations.n{n}"] = sum(s[COUNTS]["iterations"] for s in at_n)
    out["exact.fit_residual_max"] = max(
        [s[COUNTS]["residual"] for s in fits if s[COUNTS].get("residual") is not None],
        default=0.0)
    enumerations = ["exact.log_partition", "exact.exact_moments"]
    out["exact.log_partition_calls"] = len(_named(spans, enumerations[0]))
    out["exact.exact_moments_calls"] = len(_named(spans, enumerations[1]))
    out["exact.states_enumerated"] = sum(
        2 ** s[COUNTS]["n"] for s in spans if s[NAME] in enumerations and s[COUNTS])
    enumeration_s = covered(spans, enumerations)
    out["exact.states_per_s"] = (out["exact.states_enumerated"] / enumeration_s
                                 if enumeration_s > 0 else 0.0)
    out["exact.entropy_s"] = covered(
        spans, ["exact.entropy_exact", "exact.entropy_empirical", "exact.entropy_independent"])

    out["inverse.plm_s"] = covered(spans, ["inverse.plm_fit"])
    out["inverse.plm_iterations"] = _total(spans, "inverse.plm_fit", "iterations")
    out["inverse.tap_inv_s"] = covered(spans, ["inverse.tap_invert"])
    out["inverse.tap_inv_clamped"] = _total(spans, "inverse.tap_invert", "clamped")

    out["tap.solve_s"] = covered(spans, ["tap.tap_fixed_point"])
    out["tap.iterations"] = _total(spans, "tap.tap_fixed_point", "iterations")
    out["tap.converged"] = _total(spans, "tap.tap_fixed_point", "converged")

    samples = _named(spans, "sampler.glauber_sample")
    out["sampler.glauber_s"] = covered(spans, ["sampler.glauber_sample"])
    out["sampler.spin_updates"] = sum(s[COUNTS].get("updates", 0) for s in samples)
    for n in SAMPLER_SIZES:
        at_n = [s for s in samples if s[COUNTS].get("n") == n]
        updates = sum(s[COUNTS]["updates"] for s in at_n)
        seconds = sum(s[END] - s[START] for s in at_n)
        out[f"sampler.ns_per_update.n{n}"] = 1e9 * seconds / updates if updates else 0.0
    index = {id(s): i for i, s in enumerate(spans)}
    refit = 0.0
    for span in _named(spans, "sampler.noise_ratio"):
        i = index[id(span)]
        inner = sum(s[END] - s[START] for s in samples if s[PARENT] == i)
        refit += span[END] - span[START] - inner
    out["sampler.noise_refit_s"] = refit

    out["stats.normality_s"] = covered(spans, [
        "stats.normality_tests", "stats.qq_compare", "stats.trim_upper_tail",
        "stats.negative_fraction", "stats.chi2_gaussian", "stats.jarque_bera"])
    out["stats.bias_s"] = covered(spans, ["stats.bias_decomposition"])
    out["stats.critical_demo_self_s"] = sum(
        t for s, t in zip(spans, selfs) if s[NAME] == "stats.critical_spectrum_demo")
    return out


def layer_shares(spans: list[list], pass_seconds: float) -> dict[str, float]:
    """Share of a pass spent inside each layer's outermost spans (children included)."""
    shares = {}
    for layer in LAYERS:
        names = {s[NAME] for s in spans if s[NAME].startswith(layer + ".")}
        shares[layer] = covered(spans, names) / pass_seconds
    shares["ingest+plm"] = covered(
        spans, {s[NAME] for s in spans if s[NAME].startswith("ingest.")}
        | {"inverse.plm_fit"}) / pass_seconds
    shares["sampler.glauber_sample"] = covered(spans, ["sampler.glauber_sample"]) / pass_seconds
    return shares

