"""Command-line front door: file-based pipeline over the library modules.

Each subcommand reads the previous stage's artifacts, writes JSON/CSV
outputs plus a manifest, and is deterministic given its flags and seed.

Every option is declared once, in COMMANDS.  That table builds the argparse
flags and gives config-file values the same type, choices and checks.  A
value comes from its flag, else from the --config file (key=value lines or
a JSON object), else from the default; the output directory falls back to
$ISINGMARKET_OUTDIR, then ./artifacts.

Exit codes: 0 success; 1 domain error, including malformed file content;
2 usage error: unknown flag or key, a wrong type, a value out of range, a
missing or unreadable path, an unwritable artifact.  Handlers write nothing:
main writes the artifacts a handler returns, and a result that is not finite
is a domain error when its artifact is written (see serialize).  On 1 or 2
main removes whatever this run wrote, so nothing is left behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, exact, ingest, inverse, moments, sampler, serialize, stats, tap
from .errors import (DimensionMismatchError, DomainError, FormatError, ToolkitError,
                     UsageError)
from .model import FitReport, IsingModel
from .serialize import histogram_rows, write_csv, write_json, write_manifest

ENV_OUTDIR = "ISINGMARKET_OUTDIR"


def _at_least(low):
    return (lambda v: v >= low, f">= {low}")


_POSITIVE = (lambda v: v > 0, "> 0")


@dataclass(frozen=True)
class Opt:
    """One option: config key ``name``, flag ``--name`` with '-' for '_'.

    type is str, int, float, bool (a switch) or list (one or more paths);
    check is a (predicate, rule) pair applied to any value that is set.
    """

    name: str
    type: type = str
    default: object = None
    check: tuple | None = None
    choices: tuple = ()
    required: bool = False
    help: str | None = None

    @property
    def flag_name(self) -> str:
        return "--" + self.name.replace("_", "-")


def _typed(opt: Opt, value):
    """A config-file value as the option's type; key=value text is parsed."""
    if isinstance(value, str) and opt.type in (int, float):
        try:
            value = opt.type(value)
        except ValueError:
            pass
    elif isinstance(value, str) and opt.type is bool and value.lower() in ("true", "false"):
        value = value.lower() == "true"
    elif isinstance(value, str) and opt.type is list:
        value = [value]
    elif type(value) is int and opt.type is float:
        value = float(value)
    if type(value) is not opt.type or (
            opt.type is list and not all(isinstance(v, str) for v in value)):
        raise UsageError(f"{opt.name} must be of type {opt.type.__name__}, got {value!r}")
    return value


def _check(opt: Opt, value) -> None:
    if opt.type is float and not math.isfinite(value):
        raise UsageError(f"{opt.flag_name} must be finite, got {value!r}")
    if opt.choices and value not in opt.choices:
        raise UsageError(f"{opt.flag_name} must be one of {'|'.join(opt.choices)}, "
                         f"got {value!r}")
    if opt.check and not opt.check[0](value):
        raise UsageError(f"{opt.flag_name} must be {opt.check[1]}, got {value!r}")


def _load_config_file(path: str) -> dict:
    """Accept a JSON object or simple key=value lines (# comments allowed)."""
    try:
        text = serialize.read_bytes(path).decode("utf-8")
    except FormatError as exc:  # not UTF-8
        raise UsageError(str(exc)) from exc
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from exc
    config = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _resolve(ns: argparse.Namespace, options: list[Opt]) -> dict:
    """Precedence: explicit flag > config file > built-in default."""
    file_config = _load_config_file(ns.config) if ns.config else {}
    for key in file_config:
        if key not in {opt.name for opt in options} | {"outdir"}:
            raise UsageError(f"unknown config key {key!r}")
    resolved = {"files": ns.files} if "files" in ns else {}
    for opt in options:
        value = getattr(ns, opt.name, None)
        if value is None and file_config.get(opt.name) is not None:
            value = _typed(opt, file_config[opt.name])
        if value is None and opt.required:
            raise UsageError(f"{ns.command} requires {opt.flag_name}")
        if value is not None:
            _check(opt, value)
        resolved[opt.name] = opt.default if value is None else value
    outdir = ns.outdir if ns.outdir is not None else file_config.get("outdir")
    resolved["outdir"] = (os.environ.get(ENV_OUTDIR, "artifacts") if outdir is None
                          else _typed(Opt("outdir"), outdir))
    return resolved


def _load(path: str, parse):
    """parse(JSON content of path); malformed content is a FormatError naming path."""
    text = serialize.read_bytes(path).decode("utf-8")
    try:
        return parse(json.loads(text))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed content ({exc!r})") from exc


def _load_model(path: str) -> IsingModel:
    # a FitReport wraps the model
    return _load(path, lambda d: IsingModel.from_dict(d["model"] if "model" in d else d))


def _spectrum_artifacts(spectrum, bins: int, stem: str) -> dict:
    return {f"{stem}.json": spectrum,
            f"{stem}_hist.csv": (["bin_left", "bin_right", "density"],
                                 histogram_rows(spectrum.eigenvalues, bins))}


# ---------------------------------------------------------------- commands
# Each handler takes the resolved config and returns its artifacts,
# {file name in outdir: content}, which main writes in order: a SpinMatrix as
# a spin CSV, a (header, rows) tuple as a table, anything else (a dict or a
# report dataclass) as JSON.  Every file it reads goes through serialize.read_bytes,
# which records the file's sha256 while main runs the handler.

def _cmd_ingest(cfg) -> dict:
    fmt = ingest.OhlcFormat(
        delimiter=cfg["delimiter"],
        date_column=cfg["date_col"],
        open_column=cfg["open_col"],
        close_column=cfg["close_col"],
        date_format=cfg["date_format"],
    )
    series, paths = [], {}
    for path in cfg["files"]:
        ticker = Path(path).stem
        if ticker in paths:
            raise UsageError(f"{paths[ticker]} and {path} both name ticker {ticker!r}")
        paths[ticker] = path
        try:  # the ticker must be a name that a spin file can hold
            ingest.SpinMatrix(tickers=[ticker], dates=["date"], values=[[1]])
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        series.append(ingest.read_ohlc(path, fmt, ticker))
    matrix = ingest.binarize(series)
    return {"spins.csv": matrix, "ingest.json": {
        "tickers": matrix.tickers,
        "rows": matrix.t,
        "first_date": matrix.dates[0],
        "last_date": matrix.dates[-1],
        "dropped_rows": {s.ticker: s.dropped for s in series},
    }}


def _cmd_moments(cfg) -> dict:
    matrix = ingest.read_spin_csv(cfg["spins"])
    result = moments.empirical_moments(matrix)
    return {"moments.json": result.to_dict() | {"tickers": matrix.tickers}}


def _cmd_spectrum(cfg) -> dict:
    matrix = ingest.read_spin_csv(cfg["spins"])
    if cfg["kind"] == "correlation":
        spectrum = moments.correlation_spectrum(matrix)
    else:
        spectrum = moments.covariance_spectrum(matrix)
    return _spectrum_artifacts(spectrum, cfg["bins"], "spectrum")


def _cmd_fit(cfg) -> dict:
    method = cfg["method"]
    from_spins = inverse.FIT_METHODS[method][1]
    if from_spins or cfg["moments"] is None:
        if cfg["spins"] is None:
            raise UsageError(f"{method} fits from raw spins; pass --spins" if from_spins
                             else f"{method} needs --moments (or --spins to derive them)")
        data = ingest.read_spin_csv(cfg["spins"])
    else:
        data = _load(cfg["moments"], moments.MomentSet.from_dict)
    report = inverse.fit(method, data, tol=cfg["tol"], max_iter=cfg["max_iter"],
                         ridge=cfg["ridge"], strict=cfg["strict"])
    return {"fit.json": report.to_dict(),
            "coupling.csv": ([f"j{i}" for i in range(report.model.n)], report.model.J)}


def _cmd_tap(cfg) -> dict:
    model = _load_model(cfg["model"])
    if cfg["spins"] is not None:
        matrix = ingest.read_spin_csv(cfg["spins"])
        if matrix.n != model.n:
            raise DimensionMismatchError(f"model has N={model.n}, spins have N={matrix.n}")
        empirical = moments.empirical_moments(matrix)
    solution = tap.tap_fixed_point(model, damping=cfg["damping"],
                                   tol=cfg["tol"], max_iter=cfg["max_iter"])
    artifacts = {"tap.json": solution}
    if cfg["spins"] is not None:
        artifacts["tap_pairs.csv"] = (["ticker", "empirical_mean", "tap_mean"],
                                      zip(matrix.tickers, empirical.q, solution.m))
    return artifacts


def _cmd_multiinfo(cfg) -> dict:
    matrix = ingest.read_spin_csv(cfg["spins"])
    report = exact.multi_information_ratio(matrix, tol=cfg["tol"], fit_tol=cfg["fit_tol"],
                                           max_iter=cfg["max_iter"])
    return {"multiinfo.json": report}


def _cmd_sample(cfg) -> dict:
    model = _load_model(cfg["model"])
    matrix = sampler.glauber_sample(model, sampler.SamplerConfig(
        rows=cfg["rows"], burn_in=cfg["burn_in"], thin=cfg["thin"], seed=cfg["seed"]))
    return {"spins.csv": matrix}


def _cmd_noise(cfg) -> dict:
    real_fit = _load(cfg["fit"], FitReport.from_dict)
    report = sampler.noise_ratio(
        real_fit,
        sampler.SamplerConfig(rows=cfg["t"], burn_in=cfg["burn_in"],
                              thin=cfg["thin"], seed=cfg["seed"]),
        cfg["method"],
    )
    return {"noise.json": report}


def _cmd_normality(cfg) -> dict:
    model = _load_model(cfg["model"])
    values = model.J[np.triu_indices(model.n, k=1)]
    report = stats.normality_tests(values, bins=cfg["bins"], trim_fraction=cfg["trim"])
    pairs = stats.qq_compare(stats.trim_upper_tail(values, cfg["trim"]),
                             quantile_count=cfg["quantiles"])
    return {
        "normality.json": asdict(report) | {
            "negative_fraction": stats.negative_fraction(model.J)},
        "qq.csv": (["empirical", "theoretical"], pairs)}


def _cmd_scaling(cfg) -> dict:
    if cfg["points"] is not None:
        lines = serialize.read_bytes(cfg["points"]).decode("utf-8").splitlines()[1:]
        try:
            if not any(line.strip() for line in lines):
                raise ValueError("no rows")
            rows = np.loadtxt(lines, delimiter=",", ndmin=2)
            sizes, means = rows[:, 0], rows[:, 1]
        except (ValueError, IndexError) as exc:  # IndexError: one column
            raise FormatError(f"{cfg['points']}: expected rows N,mean ({exc})") from exc
    elif cfg["models"]:
        sizes, means = [], []
        for path in cfg["models"]:
            model = _load_model(path)
            if model.n < 2:
                raise DomainError(f"{path}: N={model.n} has no couplings to average")
            upper = model.J[np.triu_indices(model.n, k=1)]
            sizes.append(model.n)
            means.append(np.abs(upper).mean() if cfg["use_abs"] else upper.mean())
    else:
        raise UsageError("scaling requires --points or --models")
    fit = stats.powerlaw_fit(np.asarray(sizes, float), np.asarray(means, float))
    return {
        "scaling.json": asdict(fit) | {"mean_kind": "abs" if cfg["use_abs"] else "signed"},
        "scaling_points.csv": (["N", "mean_coupling"], zip(fit.sizes, fit.means))}


def _cmd_bias(cfg) -> dict:
    model = _load_model(cfg["model"])
    matrix = ingest.read_spin_csv(cfg["spins"])
    rows = stats.bias_decomposition(model, matrix)
    return {
        "bias.json": {"rows": rows},
        "bias.csv": (["ticker", "h", "h_int_mean", "h_int_std"],
                     ((r.ticker, r.h, r.h_int_mean, r.h_int_std) for r in rows))}


def _cmd_critical_demo(cfg) -> dict:
    if cfg["t"] < 10 * cfg["n"]:
        raise UsageError(f"t must be >= 10*n, got {cfg['t']}")
    spectrum = stats.critical_spectrum_demo(cfg["n"], cfg["coupling"], cfg["t"],
                                            seed=cfg["seed"], burn_in=cfg["burn_in"])
    return _spectrum_artifacts(spectrum, cfg["bins"], "critical_spectrum")


# ---------------------------------------------------------------- options

_SPINS = Opt("spins", required=True)
_MODEL = Opt("model", required=True)
_SAMPLER = [Opt("burn_in", int, 1000, _at_least(0)), Opt("thin", int, 1, _at_least(1)),
            Opt("seed", int, 0, _at_least(0))]
_TOL = Opt("tol", float, check=_POSITIVE)
_MAX_ITER = Opt("max_iter", int, check=_at_least(1))


# subcommand -> (handler, help, options)
COMMANDS = {
    "ingest": (_cmd_ingest, "parse OHLC files and binarize into a spin CSV", [
        Opt("delimiter", default=",", check=(lambda v: len(v) == 1, "one character")),
        Opt("date_col", default="Date"),
        Opt("open_col", default="Open"),
        Opt("close_col", default="Close"),
        Opt("date_format", help="strptime format if not ISO-8601")]),
    "moments": (_cmd_moments, "empirical moments of a spin CSV", [_SPINS]),
    "spectrum": (_cmd_spectrum, "correlation/covariance eigenvalue spectrum", [
        _SPINS,
        Opt("bins", int, 50, _at_least(1)),
        Opt("kind", default="correlation", choices=("correlation", "covariance"))]),
    "fit": (_cmd_fit, "infer couplings and fields", [
        Opt("method", choices=tuple(inverse.FIT_METHODS), required=True),
        Opt("moments"),
        Opt("spins"),
        replace(_TOL, default=1e-8),
        replace(_MAX_ITER, default=500),
        Opt("ridge", float, check=_at_least(0)),
        Opt("strict", bool, False)]),
    "tap": (_cmd_tap, "forward TAP solve plus stability statistic", [
        replace(_MODEL, help="model JSON or fit JSON"),
        Opt("spins", help="optional spins for an empirical-vs-TAP table"),
        Opt("damping", float, 0.5, (lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
        replace(_TOL, default=1e-10),
        replace(_MAX_ITER, default=10000)]),
    "multiinfo": (_cmd_multiinfo, "pairwise share of the total correlation structure", [
        _SPINS,
        replace(_TOL, default=1e-6),
        Opt("fit_tol", float, 1e-8, _POSITIVE),
        replace(_MAX_ITER, default=500)]),
    "sample": (_cmd_sample, "Glauber-sample synthetic spins from a model", [
        _MODEL, Opt("rows", int, check=_at_least(1), required=True), *_SAMPLER]),
    "noise": (_cmd_noise, "noise floor of an inversion via a homogeneous surrogate", [
        Opt("fit", required=True, help="fit JSON from real data"),
        Opt("t", int, check=_at_least(2), required=True, help="synthetic sample length"),
        Opt("method", default="tap-inv", choices=tuple(inverse.FIT_METHODS)),
        *_SAMPLER]),
    "normality": (_cmd_normality, "coupling-bulk normality tests and QQ table", [
        _MODEL,
        Opt("bins", int, 20, _at_least(4)),
        Opt("trim", float, 0.04, (lambda v: 0.0 <= v < 0.5, "in [0, 0.5)")),
        Opt("quantiles", int, 1000, _at_least(2))]),
    "scaling": (_cmd_scaling, "power-law fit of mean coupling versus system size", [
        Opt("models", list),
        Opt("points", help="CSV with header and rows N,mean"),
        Opt("use_abs", bool, False)]),
    "bias": (_cmd_bias, "field versus internal-bias decomposition table", [_MODEL, _SPINS]),
    "critical-demo": (_cmd_critical_demo, "eigenvalue escape at the critical coupling scale", [
        Opt("n", int, 100, _at_least(20)),
        Opt("t", int, 5000),
        Opt("coupling", float, 1.0, _at_least(0), help="coupling scale J (1.0 = transition)"),
        Opt("seed", int, 0, _at_least(0)),
        Opt("burn_in", int, 1000, _at_least(0)),
        Opt("bins", int, 50, _at_least(1))]),
}


@functools.cache  # one parser per process: main runs once per in-process step
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingmarket",
        description="Pairwise maximum-entropy modelling of binarized market data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--outdir",
                       help=f"output directory (default ${ENV_OUTDIR} or ./artifacts)")
        p.add_argument("--config", help="key=value or JSON config file")
        if name == "ingest":
            p.add_argument("files", nargs="+", help="one OHLC CSV per ticker")
        for opt in options:
            kind = ({"action": "store_const", "const": True} if opt.type is bool
                    else {"nargs": "+"} if opt.type is list
                    else {"type": opt.type, "choices": opt.choices or None})
            p.add_argument(opt.flag_name, help=opt.help, **kind)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    handler, _, options = COMMANDS[ns.command]
    written = []  # unlinked if a later write fails: a failed run leaves nothing behind
    try:
        config = _resolve(ns, options)
        serialize.recorder = inputs = {}
        try:
            artifacts = handler(config)
        finally:
            serialize.recorder = None
        paths = [Path(config["outdir"]) / name for name in artifacts]
        for path, content in zip(paths, artifacts.values()):
            if isinstance(content, ingest.SpinMatrix):
                ingest.write_spin_csv(content, path)
            elif isinstance(content, tuple):
                write_csv(path, *content)
            else:
                write_json(path, content)
            written.append(path)
        written.append(write_manifest(config["outdir"], ns.command, config, inputs, paths))
    except (UsageError, OSError) as exc:
        code, message = 2, f"usage error: {exc}"
    except ToolkitError as exc:
        code, message = 1, f"error: {exc}"
    else:
        for path in written:
            print(path)
        return 0
    for path in written:
        path.unlink(missing_ok=True)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
