"""The three workloads: their inputs, their CLI step lists and their output checks.

Each workload is a closed loop with one client: a step starts when the
previous one returns, and a pass is the full step list.  Steps write to one
directory each, so every artifact of a pass is still there to check and hash
when the pass ends.  A workload may have several variants of its pass, which
the passes take in turn: ``maxent_exact`` runs on EXACT_VARIANTS blocks of
tickers, because the exact fit's cost depends on the data (7-22 s at N=18,
with 65-137 log-partition evaluations) and one block per run would make the
run's median follow that one draw.  Checks compare artifacts with references the
benchmark computes itself (``gen`` and ``oracle``) and return, per step, the
problems found.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from statistics import NormalDist

import numpy as np

import gen
import oracle

EXACT_SUBSETS = (8, 12, 16, 18)  # nested: the first N tickers of a block
EXACT_VARIANTS = 3  # blocks of 18 tickers starting 16 apart, one per pass in turn
SAMPLE_ROWS = 30000
ROUND_TRIP_BAND = (0.9, 1.1)  # I2/IN of data sampled from a pairwise model (seen: 0.99)
MOMENT_TOL = 1e-7  # oracle moments vs targets, above the fit's 1e-8 residual tol
ENTROPY_TOL = 1e-9
# S2 of a fit within 1e-8 of its moments vs the exact entropy of another such fit:
# the gap is at most sum |parameter| * 1e-8, about 1e-7 at N=8.
S2_TOL = 1e-6
FIT_TOL = 1e-9  # closed-form tap-inv parameters vs the benchmark's own (seen: 6e-11)
PLM_TOL = 1e-6  # the program's PLM stops at a gradient of 1e-8 (seen: 2e-9 apart)
TAP_TOL = 1e-8  # the TAP iteration stops once a damped update is below 1e-10
STAT_RTOL = 1e-9
SAMPLE_MOMENT_TOL = 0.05  # 30000 Glauber rows: one standard error is about 0.006
PLM_RIDGE = 1e-3  # the CLI default for ``fit --method plm``
NORMALITY_TRIM, NORMALITY_BINS, QUANTILES = 0.04, 20, 1000  # ``normality`` defaults

WORKLOADS = ("desk_fit", "maxent_exact", "mc_noise")  # why each: BENCHMARK.json


def write_inputs(workload: str, run_dir: Path, market: gen.Market) -> list[str]:
    """Write the files the program reads; return the OHLC paths (if any)."""
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "maxent_exact":
        for k in range(EXACT_VARIANTS):
            for n in EXACT_SUBSETS:
                block = _block(k, n)
                (inputs / f"spins_v{k}_n{n}.csv").write_text(gen.spin_csv_text(
                    market.tickers[block], market.dates, market.spins[:, block]))
        return []
    paths = []
    for ticker in market.tickers:
        path = inputs / f"{ticker}.csv"
        path.write_text(market.files[ticker])
        paths.append(str(path))
    return paths


def _block(variant: int, n: int) -> slice:
    """Columns of the N-ticker subset of a maxent_exact variant."""
    start = variant * 16
    return slice(start, start + n)


def plan(workload: str, run_dir: Path, seed: int, ohlc: list[str]) -> dict:
    """The workload's prep steps and pass variants, each step [name, argv].

    argv is what ``isingmarket.cli.main`` gets; variant k writes under out/k.
    """
    inputs = run_dir / "inputs"
    prep: list = []
    step_seed = str(seed % (1 << 31))
    variants = []
    if workload == "desk_fit":
        out = run_dir / "out" / "0"
        spins = str(out / "ingest" / "spins.csv")
        model = str(out / "fit-tap-inv" / "fit.json")
        variants.append([
            ["ingest", ["ingest", *ohlc]],
            ["moments", ["moments", "--spins", spins]],
            ["spectrum", ["spectrum", "--spins", spins]],
            ["fit-tap-inv", ["fit", "--method", "tap-inv", "--spins", spins]],
            ["tap", ["tap", "--model", model, "--spins", spins]],
            ["bias", ["bias", "--model", model, "--spins", spins]],
            ["normality", ["normality", "--model", model]],
            ["fit-plm", ["fit", "--method", "plm", "--spins", spins]],
        ])
    elif workload == "maxent_exact":
        for k in range(EXACT_VARIANTS):
            subset = {n: str(inputs / f"spins_v{k}_n{n}.csv") for n in EXACT_SUBSETS}
            out = run_dir / "out" / str(k)
            variants.append([
                ["multiinfo-n8", ["multiinfo", "--spins", subset[8]]],
                ["multiinfo-n12", ["multiinfo", "--spins", subset[12]]],
                ["multiinfo-n16", ["multiinfo", "--spins", subset[16]]],
                ["fit-exact-n8", ["fit", "--method", "exact", "--spins", subset[8]]],
                ["sample-n8", ["sample", "--model", str(out / "fit-exact-n8" / "fit.json"),
                               "--rows", str(SAMPLE_ROWS), "--seed", step_seed]],
                ["multiinfo-sample", ["multiinfo", "--spins",
                                      str(out / "sample-n8" / "spins.csv")]],
                ["fit-exact-n18", ["fit", "--method", "exact", "--spins", subset[18]]],
            ])
    elif workload == "mc_noise":
        prep_dir = run_dir / "prep"
        prep = [
            ["ingest", ["ingest", *ohlc, "-o", str(prep_dir)]],
            ["fit-tap-inv", ["fit", "--method", "tap-inv", "--spins",
                             str(prep_dir / "spins.csv"), "-o", str(prep_dir)]],
        ]
        fit = str(prep_dir / "fit.json")
        variants.append([
            ["noise-t1500", ["noise", "--fit", fit, "--t", "1500", "--seed", step_seed]],
            ["noise-t30000", ["noise", "--fit", fit, "--t", "30000", "--seed", step_seed]],
            ["critical-demo", ["critical-demo", "--n", "100", "--t", "5000",
                               "--coupling", "1.0", "--seed", step_seed]],
        ])
    else:
        raise KeyError(f"unknown workload {workload!r}")
    for k, steps in enumerate(variants):
        for name, argv in steps:
            argv += ["-o", str(run_dir / "out" / str(k) / name)]
    return {"prep": prep, "variants": variants}


def step_commands(workload: str) -> list[tuple[str, str]]:
    """(step name, subcommand) pairs of one pass."""
    return [(name, argv[0]) for name, argv in plan(workload, Path(), 0, [])["variants"][0]]


# ---------------------------------------------------------------- checks

def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_spin_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    values = np.array([[int(c) for c in row[1:]] for row in rows], dtype=np.int8)
    return header[1:], [row[0] for row in rows], values.reshape(len(rows), len(header) - 1)


def check_manifest(step_dir: Path, command: str) -> list[str]:
    """Every artifact the step's manifest lists exists."""
    manifest = step_dir / f"{command}.manifest.json"
    if not manifest.exists():
        return [f"{manifest.name} missing"]
    return [f"{name} listed but missing" for name in _json(manifest)["artifacts"]
            if not (step_dir / name).exists()]


def check_spins(path: Path, tickers, dates, spins: np.ndarray) -> list[str]:
    got_tickers, got_dates, got = read_spin_csv(path)
    if got_tickers != list(tickers):
        return [f"{path.name}: tickers differ"]
    if got_dates != list(dates):
        return [f"{path.name}: dates differ"]
    if got.shape != spins.shape or not np.array_equal(got, spins):
        return [f"{path.name}: spin values differ from the reference binarization"]
    return []


def check_moments(path: Path, spins: np.ndarray) -> list[str]:
    payload = _json(path)
    q, pair = oracle.empirical(spins)
    np.fill_diagonal(pair, 1.0)
    expected = {"q": q, "Q": pair, "C": pair - np.outer(q, q)}
    errors = []
    for key, value in expected.items():
        got = np.asarray(payload[key], dtype=np.float64)
        if got.shape != value.shape or not np.allclose(got, value, rtol=0.0, atol=1e-12):
            errors.append(f"{path.name}: {key} differs from the numpy recomputation")
    if payload["sample_size"] != spins.shape[0]:
        errors.append(f"{path.name}: sample_size {payload['sample_size']} != {spins.shape[0]}")
    return errors


def check_exact_fit(step_dir: Path, spins: np.ndarray) -> list[str]:
    """Residual within the fit's own tol, and Gibbs moments equal the data's."""
    fit = _json(step_dir / "fit.json")
    tol = _json(step_dir / "fit.manifest.json")["config"]["tol"]
    errors = []
    if fit["residual"] is None or fit["residual"] > tol:
        errors.append(f"fit residual {fit['residual']} > tol {tol}")
    coupling, field = _model(step_dir / "fit.json")
    n = field.size
    _, q, pair, _ = oracle.gibbs(coupling, field)
    q_t, pair_t = oracle.empirical(spins)
    gap = max(np.abs(q - q_t).max(), np.abs(pair - pair_t).max())
    if gap > MOMENT_TOL:
        errors.append(f"N={n} fit moments miss the data's by {gap:.3e} (brute force)")
    return errors


def check_multiinfo(path: Path, spins: np.ndarray, fit_dir: Path | None = None) -> list[str]:
    """S1 and SN equal the references; SN <= S2 <= S1, since the pairwise model has
    the most entropy given the data's pair moments and the independent one given
    its means; I2, IN and the ratio follow from the entropies.  With ``fit_dir``,
    a fit of the same data and tol, S2 equals that model's exact entropy."""
    report = _json(path)
    errors = []
    s1 = oracle.independent_entropy(oracle.empirical(spins)[0])
    sn = oracle.plugin_entropy(spins)
    if abs(report["S1"] - s1) > ENTROPY_TOL:
        errors.append(f"S1 {report['S1']} != reference {s1}")
    if abs(report["SN"] - sn) > ENTROPY_TOL:
        errors.append(f"SN {report['SN']} != reference {sn}")
    s1, s2, sn = report["S1"], report["S2"], report["SN"]
    if not sn - S2_TOL <= s2 <= s1 + S2_TOL:
        errors.append(f"S2 {s2} outside [SN, S1] = [{sn}, {s1}]")
    derived = {"I2": s1 - s2, "IN": s1 - sn, "ratio": (s1 - s2) / (s1 - sn)}
    for key, value in derived.items():
        if not np.isclose(report[key], value, rtol=STAT_RTOL, atol=ENTROPY_TOL):
            errors.append(f"{key} {report[key]} != {value} from S1, S2, SN")
    if fit_dir is not None:
        coupling, field = _model(fit_dir / "fit.json")
        exact_s2 = oracle.gibbs(coupling, field)[3]
        if abs(s2 - exact_s2) > S2_TOL:
            errors.append(f"S2 {s2} != {exact_s2}, the exact entropy of the fitted model")
    return errors


def _model(fit_path: Path) -> tuple[np.ndarray, np.ndarray]:
    model = _json(fit_path)["model"]
    n = model["N"]
    return (np.asarray(model["J"], dtype=np.float64).reshape(n, n),
            np.asarray(model["h"], dtype=np.float64))


def _close(name: str, got, expected, rtol: float = 0.0, atol: float = FIT_TOL) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != np.shape(expected) or not np.allclose(got, expected, rtol=rtol, atol=atol):
        gap = np.abs(got - expected).max() if got.shape == np.shape(expected) else "shape"
        return [f"{name} differs from the benchmark's own value (gap {gap})"]
    return []


def check_tap_inverse(step_dir: Path, spins: np.ndarray) -> list[str]:
    """J and h equal the closed-form inversion of the numpy moments."""
    coupling, field = _model(step_dir / "fit.json")
    ref_j, ref_h, clamped = oracle.tap_inverse(*oracle.empirical(spins))
    errors = _close("tap-inv J", coupling, ref_j) + _close("tap-inv h", field, ref_h)
    reported = sum(int(w.split()[1]) for w in _json(step_dir / "fit.json")["warnings"]
                   if w.startswith("clamped "))
    if reported != clamped:
        errors.append(f"{reported} clamped pairs reported, {clamped} expected")
    return errors


def check_plm(step_dir: Path, spins: np.ndarray) -> list[str]:
    """J and h equal the benchmark's own pseudo-likelihood fit at the CLI's ridge."""
    coupling, field = _model(step_dir / "fit.json")
    ref_j, ref_h = oracle.logistic_pseudo_likelihood(spins, PLM_RIDGE)
    return _close("plm J", coupling, ref_j, atol=PLM_TOL) + _close("plm h", field, ref_h,
                                                                   atol=PLM_TOL)


def check_tap(path: Path, fit_path: Path) -> list[str]:
    """The TAP solution converged and satisfies the TAP equation of the model."""
    solution = _json(path)
    m = np.asarray(solution["m"], dtype=np.float64)
    errors = [] if solution["converged"] else ["TAP iteration did not converge"]
    residual = oracle.tap_residual(*_model(fit_path), m)
    if residual > TAP_TOL:
        errors.append(f"m misses the TAP equation by {residual:.3e}")
    errors += _close("TAP variances", solution["variances"], 1.0 - m ** 2)
    return errors


def check_bias(path: Path, fit_path: Path, tickers, spins: np.ndarray) -> list[str]:
    """Rows are (ticker, h_i, mean and std over days of 0.5 sum_j J_ij s_j)."""
    coupling, field = _model(fit_path)
    rows = _json(path)["rows"]
    if [row["ticker"] for row in rows] != list(tickers):
        return [f"{path.name}: tickers differ"]
    internal = 0.5 * spins.astype(np.float64) @ coupling
    errors = _close("bias h", [r["h"] for r in rows], field, atol=0.0)
    errors += _close("bias h_int_mean", [r["h_int_mean"] for r in rows], internal.mean(axis=0),
                     rtol=STAT_RTOL, atol=1e-12)
    errors += _close("bias h_int_std", [r["h_int_std"] for r in rows], internal.std(axis=0),
                     rtol=STAT_RTOL, atol=1e-12)
    return errors


def check_normality(step_dir: Path, fit_path: Path) -> list[str]:
    """Report and QQ table of the upper-triangle couplings, the largest 4% trimmed."""
    coupling, _ = _model(fit_path)
    values = coupling[np.triu_indices(coupling.shape[0], k=1)]
    trimmed = int(np.ceil(NORMALITY_TRIM * values.size - 1e-9))
    kept = np.sort(values)[:values.size - trimmed]
    mean, std = kept.mean(), kept.std()
    normal = NormalDist(mean, std)
    edges = [normal.inv_cdf(k / NORMALITY_BINS) for k in range(1, NORMALITY_BINS)]
    bounds = [-np.inf, *edges, np.inf]
    counts = np.array([np.count_nonzero((kept >= lo) & (kept < hi))
                       for lo, hi in zip(bounds[:-1], bounds[1:])])
    expected = kept.size / NORMALITY_BINS
    jb = oracle.jarque_bera(kept)
    reference = {"mean": mean, "std": std, "jb_stat": jb, "jb_p": np.exp(-jb / 2.0),
                 "chi2_stat": ((counts - expected) ** 2 / expected).sum(),
                 "negative_fraction": np.count_nonzero(values < 0.0) / values.size}
    report = _json(step_dir / "normality.json")
    errors = [] if (report["n"], report["trimmed"]) == (kept.size, trimmed) else [
        f"n, trimmed = {report['n']}, {report['trimmed']}; expected {kept.size}, {trimmed}"]
    for key, value in reference.items():
        errors += _close(f"normality {key}", report[key], value, rtol=STAT_RTOL, atol=1e-12)
    lines = (step_dir / "qq.csv").read_text().splitlines()[1:]
    theoretical = [float(line.split(",")[1]) for line in lines]
    errors += _close("QQ theoretical quantiles", theoretical,
                     [normal.inv_cdf(k / QUANTILES) for k in range(1, QUANTILES)],
                     rtol=STAT_RTOL, atol=1e-12)
    return errors


def check_above(path: Path, edge: str) -> list[str]:
    """The spectrum's top eigenvalue lies above its noise edge ``edge``."""
    spectrum = _json(path)
    if spectrum["market_mode"] <= spectrum[edge]:
        return [f"{path.name}: top eigenvalue {spectrum['market_mode']} not above {edge}"]
    return []


def check_round_trip(path: Path) -> list[str]:
    ratio = _json(path)["ratio"]
    if not ROUND_TRIP_BAND[0] <= ratio <= ROUND_TRIP_BAND[1]:
        return [f"round-trip I2/IN {ratio} outside {ROUND_TRIP_BAND}"]
    return []


def check_noise_falls(short: Path, long: Path) -> list[str]:
    before, after = _json(short)["ratio"], _json(long)["ratio"]
    return [] if after < before else [f"noise ratio {after} at the longer T not below {before}"]


def check_dropped(path: Path, expected: dict[str, int]) -> list[str]:
    if _json(path)["dropped_rows"] != expected:
        return ["dropped_rows differ from the generator's bad-row counts"]
    return []


def check_sample(path: Path, fit_path: Path, rows: int) -> list[str]:
    """The sample has the model's size and, within sampling error, its moments."""
    coupling, field = _model(fit_path)
    spins = read_spin_csv(path)[2]
    if spins.shape != (rows, field.size):
        return [f"sample has shape {spins.shape}, expected {(rows, field.size)}"]
    _, q, pair, _ = oracle.gibbs(coupling, field)
    q_s, pair_s = oracle.empirical(spins)
    gap = max(np.abs(q_s - q).max(), np.abs(pair_s - pair).max())
    if gap > SAMPLE_MOMENT_TOL:
        return [f"sample moments miss the model's by {gap:.3f}"]
    return []


def check(workload: str, run_dir: Path, market: gen.Market) -> dict[str, list[str]]:
    """Content checks on every variant's last artifacts; step name -> problems."""
    errors: dict[str, list[str]] = defaultdict(list)
    for k in range(len(plan(workload, Path(), 0, [])["variants"])):
        for step, problems in _check_variant(workload, run_dir / "out" / str(k), k,
                                             market).items():
            errors[step] += [f"variant {k}: {p}" for p in problems]
    return dict(errors)


def _check_variant(workload: str, out: Path, variant: int,
                   market: gen.Market) -> dict[str, list[str]]:
    missing = {step: check_manifest(out / step, command)
               for step, command in step_commands(workload)}
    if any(missing.values()):  # the content checks would only trip over absent files
        return {step: problems for step, problems in missing.items() if problems}
    spins = market.spins
    if workload == "desk_fit":
        tap_fit = out / "fit-tap-inv" / "fit.json"
        checks = [
            ("ingest", lambda: check_spins(out / "ingest" / "spins.csv", market.tickers,
                                           market.dates, spins)),
            ("ingest", lambda: check_dropped(out / "ingest" / "ingest.json", market.dropped)),
            ("moments", lambda: check_moments(out / "moments" / "moments.json", spins)),
            ("spectrum", lambda: check_above(out / "spectrum" / "spectrum.json", "edge_upper")),
            ("fit-tap-inv", lambda: check_tap_inverse(out / "fit-tap-inv", spins)),
            ("tap", lambda: check_tap(out / "tap" / "tap.json", tap_fit)),
            ("bias", lambda: check_bias(out / "bias" / "bias.json", tap_fit, market.tickers,
                                        spins)),
            ("normality", lambda: check_normality(out / "normality", tap_fit)),
            ("fit-plm", lambda: check_plm(out / "fit-plm", spins)),
        ]
    elif workload == "maxent_exact":
        sample = out / "sample-n8" / "spins.csv"
        checks = [(f"multiinfo-n{n}", lambda n=n: check_multiinfo(
            out / f"multiinfo-n{n}" / "multiinfo.json", spins[:, _block(variant, n)],
            out / "fit-exact-n8" if n == 8 else None))
            for n in (8, 12, 16)]
        checks += [
            ("fit-exact-n8", lambda: check_exact_fit(
                out / "fit-exact-n8", spins[:, _block(variant, 8)])),
            ("fit-exact-n18", lambda: check_exact_fit(
                out / "fit-exact-n18", spins[:, _block(variant, 18)])),
            ("sample-n8", lambda: check_sample(sample, out / "fit-exact-n8" / "fit.json",
                                               SAMPLE_ROWS)),
            ("multiinfo-sample", lambda: check_multiinfo(
                out / "multiinfo-sample" / "multiinfo.json", read_spin_csv(sample)[2])),
            ("multiinfo-sample", lambda: check_round_trip(
                out / "multiinfo-sample" / "multiinfo.json")),
        ]
    else:
        checks = [
            ("noise-t30000", lambda: check_noise_falls(out / "noise-t1500" / "noise.json",
                                                       out / "noise-t30000" / "noise.json")),
            ("critical-demo", lambda: check_above(
                out / "critical-demo" / "critical_spectrum.json", "mp_upper")),
        ]
    errors: dict[str, list[str]] = defaultdict(list)
    for step, run_check in checks:
        try:
            errors[step] += run_check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors[step].append(f"malformed artifact: {exc!r}")
    return {step: problems for step, problems in errors.items() if problems}
