import datetime
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isingmarket
from conftest import planted_model
from isingmarket import SamplerConfig, glauber_sample, inverse
from isingmarket.cli import COMMANDS, main
from isingmarket.ingest import SpinMatrix, read_spin_csv, write_spin_csv
from isingmarket.moments import covariance_spectrum
from isingmarket.newton import newton

PRICES = {
    "aaa": [10.0, 10.5, 10.2, 10.8, 11.0, 10.4, 10.9, 11.2, 10.7, 11.5],
    "bbb": [20.0, 19.5, 19.8, 19.2, 19.9, 20.3, 19.7, 20.1, 20.6, 20.2],
    "ccc": [5.0, 5.2, 5.1, 5.4, 5.3, 5.6, 5.2, 5.5, 5.8, 5.4],
}


def write_ohlc(tmp_path):
    paths = []
    for ticker, closes in PRICES.items():
        lines = ["Date,Open,High,Low,Close,Volume"]
        open_price = closes[0]
        for day, close in enumerate(closes, start=1):
            lines.append(f"2021-03-{day:02d},{open_price},{max(open_price, close)},"
                         f"{min(open_price, close)},{close},100")
            open_price = close
        path = tmp_path / f"{ticker}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    return paths


def test_ingest_reads_crlf_and_cr_line_endings(tmp_path):
    files = write_ohlc(tmp_path)
    assert main(["ingest", *files, "-o", str(tmp_path / "lf")]) == 0
    expected = (tmp_path / "lf" / "spins.csv").read_bytes()
    texts = [Path(path).read_text() for path in files]
    for name, ending in [("crlf", "\r\n"), ("cr", "\r")]:
        for path, text in zip(files, texts):
            Path(path).write_bytes(text.replace("\n", ending).encode())
        assert main(["ingest", *files, "-o", str(tmp_path / name)]) == 0
        assert (tmp_path / name / "spins.csv").read_bytes() == expected, name


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded():
    # Start-up cost: neither module is needed until a command uses it.
    code = ("import sys, isingmarket.cli; "
            "print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(isingmarket.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def run_fresh(code, *args):
    """stdout of code run by a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(isingmarket.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    code = ("import sys, isingmarket.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh(code).strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    # the sampler and the PLM fit import concurrent.futures, which loads logging, only
    # when they make their pool, so no command pays for it at import
    code = ("import sys, isingmarket.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'logging')))")
    assert run_fresh(code).strip() == "[]"


def test_commands_off_normality_and_ridge_0_plm_load_no_scipy_subpackage(tmp_path):
    # Only normality loads a SciPy subpackage. The manifest's version string
    # imports scipy itself, which is cheap, and a ridge-0 plm fit certifies its
    # maximum with numpy alone.
    runs = tmp_path / "runs"
    spins, fit = runs / "ingest" / "spins.csv", runs / "exact" / "fit.json"
    steps = [
        ["ingest", *write_ohlc(tmp_path)],
        ["moments", "--spins", spins],
        ["fit", "--method", "tap-inv", "--moments", runs / "moments" / "moments.json"],
        ["fit", "--method", "exact", "--moments", runs / "moments" / "moments.json"],
        ["fit", "--method", "plm", "--ridge", "0.01", "--spins", spins],
        ["sample", "--model", model_json(tmp_path, n=3, scale=0.5, seed=1), "--rows", "3000",
         "--burn-in", "200", "--seed", "7"],
        ["multiinfo", "--spins", runs / "sample" / "spins.csv"],
        ["fit", "--method", "plm", "--ridge", "0", "--spins", runs / "sample" / "spins.csv"],
        ["noise", "--fit", fit, "--t", "500", "--seed", "3"],
        ["critical-demo", "--n", "20", "--t", "200", "--coupling", "0.0", "--seed", "1",
         "--burn-in", "100"],
    ]
    argvs = [[*map(str, argv), "-o", str(runs / (argv[2] if argv[0] == "fit" else argv[0]))]
             for argv in steps]
    code = ("import json, sys; from isingmarket.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "loaded = {'scipy.sparse', 'scipy.linalg', 'scipy.special', 'scipy.stats', "
            "'scipy.optimize'} & set(sys.modules); "
            "print(json.dumps([codes, sorted(loaded)]))")
    codes, loaded = json.loads(run_fresh(code, json.dumps(argvs)).splitlines()[-1])
    assert codes == [0] * len(steps)
    assert loaded == []


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency; C12's steps cover all 12 commands.
    runs = tmp_path / "runs"
    spins, fit = runs / "spins.csv", runs / "fit.json"
    steps = [
        ["ingest", *write_ohlc(tmp_path)],
        ["sample", "--model", model_json(tmp_path, n=12, scale=0.2, seed=1), "--rows", "2000",
         "--burn-in", "200", "--seed", "13"],
        ["moments", "--spins", spins],
        ["spectrum", "--spins", spins, "--bins", "12"],
        ["fit", "--method", "tap-inv", "--spins", spins],
        ["tap", "--model", fit, "--spins", spins],
        ["multiinfo", "--spins", spins],
        ["bias", "--model", fit, "--spins", spins],
        ["normality", "--model", fit, "--quantiles", "10", "--bins", "4", "--trim", "0.0"],
        ["scaling", "--points",
         write_file(tmp_path, "points.csv", "N,mean\n20,0.11\n40,0.049\n80,0.026\n")],
        ["noise", "--fit", fit, "--t", "400", "--method", "nmf", "--seed", "4"],
        ["critical-demo", "--n", "20", "--t", "200", "--coupling", "0.0", "--seed", "6",
         "--burn-in", "100"],
    ]
    assert sorted({argv[0] for argv in steps}) == sorted(COMMANDS)
    argvs = [[*map(str, argv), "-o", str(runs)] for argv in steps]
    code = ("import json, sys; sys.modules['scipy'] = None; from isingmarket.cli import main; "
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
    assert json.loads(run_fresh(code, json.dumps(argvs)).splitlines()[-1]) == [0] * len(steps)


def model_json(tmp_path, n=3, scale=0.5, seed=0, name="model.json"):
    rng = np.random.default_rng(seed)
    coupling = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    coupling[iu] = rng.normal(0.0, scale, len(iu[0]))
    coupling = coupling + coupling.T
    payload = {"N": n, "h": rng.normal(0, 0.2, n).tolist(), "J": coupling.ravel().tolist()}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_ingest_moments_spectrum_fit_tap_bias(tmp_path):
    files = write_ohlc(tmp_path)
    out = tmp_path / "run"
    assert main(["ingest", *files, "-o", str(out)]) == 0
    spins = out / "spins.csv"
    report = json.loads((out / "ingest.json").read_text())
    assert report["tickers"] == ["aaa", "bbb", "ccc"]
    assert report["rows"] == 10

    assert main(["moments", "--spins", str(spins), "-o", str(out)]) == 0
    moments = json.loads((out / "moments.json").read_text())
    assert moments["N"] == 3 and moments["sample_size"] == 10

    assert main(["spectrum", "--spins", str(spins), "--bins", "10", "-o", str(out)]) == 0
    spectrum = json.loads((out / "spectrum.json").read_text())
    assert len(spectrum["eigenvalues"]) == 3
    assert (out / "spectrum_hist.csv").read_text().startswith("bin_left,bin_right,density")

    assert main(["fit", "--method", "exact", "--moments", str(out / "moments.json"),
                 "-o", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["method"] == "exact"
    assert fit["residual"] <= 1e-8
    assert (out / "coupling.csv").exists()

    assert main(["tap", "--model", str(out / "fit.json"), "--spins", str(spins),
                 "-o", str(out)]) == 0
    pairs = (out / "tap_pairs.csv").read_text().splitlines()
    assert pairs[0] == "ticker,empirical_mean,tap_mean"
    assert len(pairs) == 4

    assert main(["bias", "--model", str(out / "fit.json"), "--spins", str(spins),
                 "-o", str(out)]) == 0
    assert (out / "bias.csv").read_text().splitlines()[0] == "ticker,h,h_int_mean,h_int_std"

    manifest = json.loads((out / "fit.manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert "outdir" not in manifest["config"]
    assert str(out / "moments.json") in manifest["inputs"]
    assert all(len(v) == 64 for v in manifest["inputs"].values())


def test_spectrum_of_the_covariance_kind(tmp_path):
    out = tmp_path / "run"
    assert main(["ingest", *write_ohlc(tmp_path), "-o", str(out)]) == 0
    spins = out / "spins.csv"
    assert main(["spectrum", "--spins", str(spins), "--kind", "covariance", "--bins", "5",
                 "-o", str(out)]) == 0
    spectrum = json.loads((out / "spectrum.json").read_text())
    assert spectrum["matrix_kind"] == "covariance"
    expected = covariance_spectrum(read_spin_csv(spins)).eigenvalues
    assert spectrum["eigenvalues"] == expected.tolist()


def test_sample_multiinfo_noise(tmp_path):
    model = model_json(tmp_path, n=3, scale=0.5, seed=1)
    out = tmp_path / "run"
    assert main(["sample", "--model", model, "--rows", "3000", "--burn-in", "200",
                 "--seed", "7", "-o", str(out)]) == 0
    spins = out / "spins.csv"

    assert main(["multiinfo", "--spins", str(spins), "-o", str(out)]) == 0
    info = json.loads((out / "multiinfo.json").read_text())
    assert 0.0 <= info["ratio"] <= 1.2
    assert info["units"] == "nats"

    assert main(["fit", "--method", "nmf", "--spins", str(spins), "-o", str(out)]) == 0
    assert main(["noise", "--fit", str(out / "fit.json"), "--t", "500",
                 "--method", "nmf", "--seed", "3", "-o", str(out)]) == 0
    noise = json.loads((out / "noise.json").read_text())
    assert noise["sigma_J"] > 0 and noise["ratio"] > 0


def test_normality_and_scaling_and_demo(tmp_path):
    big = model_json(tmp_path, n=50, scale=0.1, seed=2, name="big.json")
    out = tmp_path / "run"
    assert main(["normality", "--model", big, "--quantiles", "500", "-o", str(out)]) == 0
    report = json.loads((out / "normality.json").read_text())
    assert report["jb_p"] >= 0.0 and report["trimmed"] == 49  # 4% of 1225
    qq = (out / "qq.csv").read_text().splitlines()
    assert qq[0] == "empirical,theoretical" and len(qq) == 500

    points = tmp_path / "points.csv"
    points.write_text("N,mean\n20,0.1\n40,0.05\n80,0.025\n")
    assert main(["scaling", "--points", str(points), "-o", str(out)]) == 0
    scaling = json.loads((out / "scaling.json").read_text())
    assert scaling["alpha_hat"] == pytest.approx(1.0, abs=1e-9)

    models = [model_json(tmp_path, n=n, scale=2.0 / n, seed=3 + n, name=f"m{n}.json")
              for n in (20, 30, 40)]
    code = main(["scaling", "--models", *models, "--use-abs", "-o", str(out)])
    assert code == 0

    assert main(["critical-demo", "--n", "20", "--t", "200", "--coupling", "0.0",
                 "--seed", "1", "--burn-in", "100", "-o", str(out)]) == 0
    demo = json.loads((out / "critical_spectrum.json").read_text())
    assert demo["matrix_kind"] == "covariance"
    assert len(demo["eigenvalues"]) == 20


def write_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _refuse(constant):
    raise ValueError(f"{constant} in a JSON artifact")


def _number(cell):
    """A CSV cell as a float ('nan' and 'inf' included), or None if it is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def assert_finite_artifacts(out, case):
    """Every JSON artifact in out loads without NaN or Infinity; every CSV number is finite."""
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_refuse)
        else:
            numbers = [_number(cell) for line in text.splitlines()[1:]
                       for cell in line.split(",")]
            assert np.isfinite([x for x in numbers if x is not None]).all(), (case, path)


def run_cli(argv, out, cwd="."):
    """The exit code of main([*argv, "-o", out]) run from cwd, under the CLI's contract.

    Every warning is an error but spectrum's documented one for T <= N; argparse's
    SystemExit is exit 2; the code is 0, 1 or 2; exit 0 leaves only finite artifacts
    and exit 1 or 2 leaves out empty or absent; no thread outlives the call.
    """
    threads, home = threading.active_count(), os.getcwd()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", r"T=\d+ not larger than N=\d+", UserWarning)
        os.chdir(cwd)
        try:
            code = main([*argv, "-o", str(out)])
        except SystemExit as exc:  # argparse rejecting the command line
            assert exc.code == 2, argv
            code = 2
        finally:
            os.chdir(home)
    assert code in (0, 1, 2), argv
    if code == 0:
        assert_finite_artifacts(out, argv)
    else:
        assert not out.exists() or not any(out.iterdir()), argv
    assert threading.active_count() == threads, argv
    return code


def usage_error_cases(tmp_path):
    """argv lists that must exit 2: a bad value from a flag or a config file, a missing path."""
    model = model_json(tmp_path)
    spins = write_file(tmp_path, "spins.csv", "date,a,b,c\nd1,1,-1,1\nd2,-1,-1,1\nd3,1,1,-1\n")
    missing = str(tmp_path / "missing.csv")
    ohlc = "Date,Open,Close\n2021-03-01,10,11\n2021-03-02,11,10\n"
    for sub in ("d1", "d2"):
        (tmp_path / sub).mkdir()
    return {
        "kind=foo": ["spectrum", "--spins", spins,
                     "--config", write_file(tmp_path, "kind.cfg", "kind=foo\n")],
        "bins=abc": ["spectrum", "--spins", spins,
                     "--config", write_file(tmp_path, "bins.cfg", "bins=abc\n")],
        "rows 1.5": ["sample", "--model", model,
                     "--config", write_file(tmp_path, "rows.json", '{"rows": 1.5}')],
        "missing config": ["moments", "--spins", spins, "--config", missing],
        "missing spins": ["moments", "--spins", missing],
        "missing ingest file": ["ingest", missing],
        "missing points": ["scaling", "--points", missing],
        "tap missing spins": ["tap", "--model", model, "--spins", missing],
        "negative seed": ["sample", "--model", model, "--rows", "10", "--seed", "-1"],
        "demo bins 0": ["critical-demo", "--n", "20", "--t", "200", "--burn-in", "10",
                        "--bins", "0"],
        "fit_tol=-1": ["multiinfo", "--spins", spins,
                       "--config", write_file(tmp_path, "fit_tol.cfg", "fit_tol=-1\n")],
        "tap max-iter 0": ["tap", "--model", model, "--max-iter", "0"],
        "seed=1 for moments": ["moments", "--spins", spins,
                               "--config", write_file(tmp_path, "seed.cfg", "seed=1\n")],
        "two ingest files with one ticker stem": [
            "ingest", write_file(tmp_path / "d1", "aaa.csv", ohlc),
            write_file(tmp_path / "d2", "aaa.csv", ohlc)],
        "one ingest file twice": ["ingest", *[str(tmp_path / "d1" / "aaa.csv")] * 2],
        "demo t below 10 n": ["critical-demo", "--n", "20", "--t", "199", "--burn-in", "10"],
        "plm without spins": ["fit", "--method", "plm"],
        "scaling without points or models": ["scaling"],
        "config brace not JSON": ["spectrum", "--spins", spins, "--config",
                                  write_file(tmp_path, "brace.cfg", "{bins: 10}\n")],
        "config line without =": ["spectrum", "--spins", spins, "--config",
                                  write_file(tmp_path, "no_equals.cfg", "# bins\nbins 10\n")],
    }


def moments_json(tmp_path, name, **change):
    """A 2-spin moments file, with the given keys changed."""
    payload = {"N": 2, "sample_size": 100, "q": [0.1, -0.2], "Q": [[1.0, 0.3], [0.3, 1.0]]}
    return write_file(tmp_path, name, json.dumps(payload | change))


def domain_error_cases(tmp_path):
    """argv lists that must exit 1: a file whose content is malformed or does not fit."""
    model = model_json(tmp_path)
    fit = {"method": "nmf", "iterations": 2.5, "residual": None, "warnings": [],
           "model": json.loads(Path(model).read_text())}
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"date,a\nd1,\xff\xfe\n")
    constant = write_file(tmp_path, "constant.csv", "date,a,b\nd1,1,-1\nd2,1,1\nd3,1,-1\n")
    ohlc = "Date,Open,Close\n2021-03-01,10,11\n2021-03-02,11,10\n"
    return {
        "malformed model JSON": ["tap", "--model", write_file(tmp_path, "bad.json", "{not json")],
        "model without N": ["tap", "--model",
                            write_file(tmp_path, "no_n.json", '{"h": [0.0], "J": [0.0]}')],
        "model with N=0": ["tap", "--model",
                           write_file(tmp_path, "n0.json", '{"N": 0, "h": [], "J": []}')],
        "model with N=2.5": ["tap", "--model", write_file(
            tmp_path, "n_float.json", '{"N": 2.5, "h": [0, 0], "J": [0, 0, 0, 0]}')],
        "model with N=true": ["tap", "--model", write_file(
            tmp_path, "n_bool.json", '{"N": true, "h": [0], "J": [0]}')],
        "model is a list": ["tap", "--model", write_file(tmp_path, "list.json", "[1, 2]")],
        "noise on a bare model": ["noise", "--fit", model, "--t", "100"],
        "noise on a fit of 2.5 iterations": ["noise", "--fit", write_file(
            tmp_path, "fit_iterations.json", json.dumps(fit)), "--t", "100"],
        "moments with Q_12 = 2.5": ["fit", "--method", "nmf", "--moments", moments_json(
            tmp_path, "q25.json", Q=[[1.0, 2.5], [2.5, 1.0]])],
        "moments with an asymmetric Q": ["fit", "--method", "tap-inv", "--moments", moments_json(
            tmp_path, "asymmetric.json", Q=[[1.0, 0.3], [0.4, 1.0]])],
        "moments of sample size -5": ["fit", "--method", "exact", "--moments", moments_json(
            tmp_path, "size.json", sample_size=-5)],
        "moments with q_1 = 1.5": ["fit", "--method", "exact", "--moments", moments_json(
            tmp_path, "q15.json", q=[1.5, -0.2])],
        "moments with N=5 and two means": ["fit", "--method", "nmf", "--moments", moments_json(
            tmp_path, "n5.json", N=5)],
        "header-only points": ["scaling", "--points",
                               write_file(tmp_path, "points.csv", "N,mean\n")],
        "scaling an N=1 model": ["scaling", "--models", model, write_file(
            tmp_path, "n1.json", '{"N": 1, "h": [0.1], "J": [0.0]}')],
        "tap spins of another N": ["tap", "--model", model, "--spins",
                                   write_file(tmp_path, "n2.csv", "date,a,b\nd1,1,-1\nd2,-1,1\n")],
        "spin cell 255": ["moments", "--spins",
                          write_file(tmp_path, "wrap.csv", "date,a,b\nd1,255,1\nd2,-1,1\n")],
        "spins not UTF-8": ["moments", "--spins", str(binary)],
        "ticker stem holding a comma": ["ingest", write_file(tmp_path, "a,b.csv", ohlc),
                                        write_file(tmp_path, "c.csv", ohlc)],
        "quoted cell over the csv field limit": ["ingest", write_file(
            tmp_path, "wide.csv", "Date,Open,Close,Note\n"
            f'2021-03-01,10,11,"{"x" * 140_000}"\n2021-03-02,11,12,ok\n')],
        "quoted 140,000-character ticker in a spin header": ["moments", "--spins", write_file(
            tmp_path, "wide_spins.csv", f'date,a,"{"b" * 140_000}"\nd1,1,-1\nd2,-1,1\n')],
        "nmf with a constant column": ["fit", "--method", "nmf", "--ridge", "0.1",
                                       "--spins", constant],
        "ridge-0 plm on three rows that separate b": [
            "fit", "--method", "plm", "--ridge", "0", "--spins",
            write_file(tmp_path, "separable.csv", "date,a,b\nd1,1,-1\nd2,1,1\nd3,-1,-1\n")],
        "spectrum of one row": ["spectrum", "--spins",
                                write_file(tmp_path, "one_row.csv", "date,a,b\nd1,1,-1\n")],
    }


def test_usage_errors_exit_2_and_write_nothing(tmp_path):
    model = model_json(tmp_path)
    # invalid flag value: damping outside (0, 1]
    assert run_cli(["tap", "--model", model, "--damping", "2.0"], tmp_path / "empty") == 2
    # missing required input
    assert run_cli(["moments"], tmp_path / "empty") == 2
    for case, argv in usage_error_cases(tmp_path).items():
        assert run_cli(argv, tmp_path / "out" / case) == 2, case


def test_a_malformed_config_file_is_named_on_stderr(tmp_path, capsys):
    cases = usage_error_cases(tmp_path)
    for case, where in [("config brace not JSON", "brace.cfg: "),
                        ("config line without =", "no_equals.cfg:2: ")]:
        capsys.readouterr()
        assert run_cli(cases[case], tmp_path / "out" / case) == 2, case
        assert str(tmp_path / where) in capsys.readouterr().err, case


def test_failed_write_exits_2_and_removes_what_this_run_wrote(tmp_path, capsys):
    # a directory where an artifact or the manifest goes makes that write fail
    # after earlier artifacts of the same run were written
    spins = str(tmp_path / "spins" / "spins.csv")
    cases = {"ingest.json": ["ingest", *write_ohlc(tmp_path)],
             "moments.manifest.json": ["moments", "--spins", spins]}
    assert main(["ingest", *write_ohlc(tmp_path), "-o", str(tmp_path / "spins")]) == 0
    for blocker, argv in cases.items():
        out = tmp_path / "out" / blocker
        (out / blocker).mkdir(parents=True)
        capsys.readouterr()
        assert main([*argv, "-o", str(out)]) == 2, blocker
        assert "usage error" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [blocker], blocker


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--bogus", "1"])
    assert exc.value.code == 2


def test_domain_error_exit_1(tmp_path):
    spins = write_file(tmp_path, "one_row.csv", "date,a,b\nd1,1,-1\n")
    assert run_cli(["moments", "--spins", spins], tmp_path / "out") == 1
    for case, argv in domain_error_cases(tmp_path).items():
        assert run_cli(argv, tmp_path / "out" / case) == 1, case


@pytest.mark.parametrize("second", [{"x": [1.0, float("nan")]},
                                    (["name", "x"], [("a", 0.5), ("b", float("inf"))])])
def test_a_non_finite_artifact_exits_1_and_removes_what_this_run_wrote(
        tmp_path, capsys, monkeypatch, second):
    name = "second.json" if isinstance(second, dict) else "second.csv"
    monkeypatch.setitem(COMMANDS, "moments", (lambda cfg: {"first.json": {"x": 1.0}, name: second},
                                              *COMMANDS["moments"][1:]))
    out = tmp_path / "out"
    spins = write_file(tmp_path, "spins.csv", "date,a\nd1,1\nd2,-1\n")
    assert main(["moments", "--spins", spins, "-o", str(out)]) == 1
    assert name in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _coupled_model(tmp_path, name, top, h=None):
    """An N=6 model and a plm fit of it, whose off-diagonal |J_ij| alternate between top
    and 0.95 top, so that max|J| = top."""
    coupling = np.zeros((6, 6))
    iu = np.triu_indices(6, 1)
    coupling[iu] = np.where(np.arange(len(iu[0])) % 2, 0.95, 1.0) * top
    model = {"N": 6, "h": h or [0.1, -0.2, 0.0, 0.3, -0.1, 0.2],
             "J": (coupling + coupling.T).ravel().tolist()}
    fit = {"method": "plm", "iterations": 1, "residual": None, "warnings": [], "model": model}
    return (write_file(tmp_path, f"m6_{name}.json", json.dumps(model)),
            write_file(tmp_path, f"fit6_{name}.json", json.dumps(fit)))


def overflow_cases(tmp_path):
    """argv lists on valid files whose couplings are large enough to overflow a square,
    or a Glauber field sum (N+1) max|J|, each with the exit code it must give."""
    rng = np.random.default_rng(21)
    rows = rng.integers(0, 2, (200, 12)) * 2 - 1
    spins = write_file(tmp_path, "spins12.csv", "date," + ",".join(f"s{i}" for i in range(12))
                       + "\n" + "".join(f"d{t}," + ",".join(map(str, r)) + "\n"
                                         for t, r in enumerate(rows)))
    fit = {"method": "plm", "iterations": 1, "residual": None, "warnings": [],
           "model": json.loads(Path(model_json(tmp_path, n=6, scale=1e300)).read_text())}
    fit = write_file(tmp_path, "fit1e300.json", json.dumps(fit))
    model = {(n, scale): model_json(tmp_path, n=n, scale=scale, seed=n, name=f"m{n}_{scale}.json")
             for n, scale in [(12, 1e160), (12, 1e300), (14, 1e100), (14, 1e160),
                              (6, 1e160), (6, 1e300)]}
    cases = {
        "noise plm 1e300": (0, ["noise", "--fit", fit, "--method", "plm", "--t", "300"]),
        "bias 1e160": (0, ["bias", "--model", model[12, 1e160], "--spins", spins]),
        "bias 1e300": (0, ["bias", "--model", model[12, 1e300], "--spins", spins]),
        "normality 1e100": (0, ["normality", "--model", model[14, 1e100], "--quantiles", "20"]),
        "normality 1e160": (0, ["normality", "--model", model[14, 1e160], "--quantiles", "20"]),
        "tap 1e160": (1, ["tap", "--model", model[6, 1e160]]),
        "tap 1e300": (1, ["tap", "--model", model[6, 1e300]]),
    }
    for name, top, h, expected in [("1.7e308", 1.7e308, None, 1), ("3e307", 3e307, None, 1),
                                   ("2.5e307", 2.5e307, None, 0), ("1e300", 1e300, None, 0),
                                   ("huge h", 0.1, [1e308, -1e308, 0.1, -0.2, 1e308, 0.0], 0)]:
        coupled, coupled_fit = _coupled_model(tmp_path, name, top, h)
        cases[f"sample |J| {name}"] = (expected, ["sample", "--model", coupled, "--rows", "20",
                                                  "--burn-in", "5"])
        cases[f"noise |J| {name}"] = (expected, ["noise", "--fit", coupled_fit, "--method",
                                                 "plm", "--t", "300"])
    cases["critical-demo 1e308"] = (1, ["critical-demo", "--n", "20", "--t", "200",
                                        "--burn-in", "10", "--coupling", "1e308"])
    return cases


def test_overflowing_couplings_give_finite_artifacts_or_exit_1(tmp_path):
    for case, (expected, argv) in overflow_cases(tmp_path).items():
        assert run_cli(argv, tmp_path / "out" / case) == expected, case


def test_chain_lengths_past_int64_or_memory_exit_1_without_a_traceback(tmp_path, capsys):
    model = model_json(tmp_path, n=4)
    fit = write_file(tmp_path, "fit.json", json.dumps(
        {"method": "nmf", "iterations": 1, "model": json.loads(Path(model).read_text())}))
    past = str(2**63)
    for argv, message in [
        (["sample", "--model", model, "--rows", "2", "--burn-in", past], "2^63"),
        (["sample", "--model", model, "--rows", "2", "--thin", past], "2^63"),
        (["sample", "--model", model, "--rows", str(2**62), "--thin", "4"], "2^63"),
        # 4e15 bytes exceed any memory and address space; 2^64 bytes exceed an index
        (["sample", "--model", model, "--rows", str(10**15)], f"{10**15} x 4 sampled spins"),
        (["sample", "--model", model, "--rows", str(2**62)], f"{2**62} x 4 sampled spins"),
        (["noise", "--fit", fit, "--t", "10", "--burn-in", past], "2^63"),
        (["noise", "--fit", fit, "--t", str(10**15)], f"{10**15} x 4 sampled spins"),
        (["critical-demo", "--n", "20", "--burn-in", past], "2^63"),
        (["critical-demo", "--n", "20", "--t", str(10**15)], f"{10**15} x 20 sampled spins"),
    ]:
        capsys.readouterr()
        assert run_cli(argv, tmp_path / "out") == 1, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, argv


def test_format_error_names_the_file(tmp_path, capsys):
    good = model_json(tmp_path, n=3)
    bad = write_file(tmp_path, "bad.json", '{"N": 2.5, "h": [0, 0], "J": [0, 0, 0, 0]}')
    ohlc = "Date,Open,Close\n2021-03-01,10,11\n2021-03-02,11,10\n"
    stem = write_file(tmp_path, "a,b.csv", ohlc)
    for argv, message in [
        (["scaling", "--models", good, bad], f"{bad}: N must be an integer >= 1, got 2.5"),
        (["ingest", stem, write_file(tmp_path, "c.csv", ohlc)],
         f"{stem}: ticker or date 'a,b' holds ','"),
    ]:
        assert main([*argv, "-o", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err


def test_ingest_of_invalid_utf8_exits_1_and_writes_nothing(tmp_path, capsys):
    files = write_ohlc(tmp_path)
    Path(files[1]).write_bytes(b"Date,Open,Close\n2021-03-01,10,11\xff\n")
    out = tmp_path / "out"
    assert main(["ingest", *files, "-o", str(out)]) == 1
    assert "can't decode byte 0xff" in capsys.readouterr().err
    assert not out.exists()


def test_bytes_that_are_not_utf8_name_their_file(tmp_path, capsys):
    spins = tmp_path / "spins.csv"
    spins.write_bytes(b"date,a,b\nd1,1,-1\nd2,-1,\xff\n")
    config = tmp_path / "run.cfg"
    config.write_bytes(b"bins=\xff\n")
    good = write_file(tmp_path, "good.csv", "date,a,b\nd1,1,-1\nd2,-1,1\n")
    for argv, code, path in [(["moments", "--spins", str(spins)], 1, spins),
                             (["spectrum", "--spins", good, "--config", str(config)], 2, config)]:
        out = tmp_path / "out"
        assert main([*argv, "-o", str(out)]) == code, argv
        assert f"{path}: not UTF-8" in capsys.readouterr().err
        assert not out.exists()


def test_ridge_0_plm_on_a_constant_or_duplicated_column_exits_1(tmp_path, capsys, monkeypatch):
    steps = []

    def counted(*args):
        result = newton(*args)
        steps.append(result[1])
        return result

    monkeypatch.setattr(inverse, "newton", counted)
    base = glauber_sample(planted_model(50, 0.05, 0.1, 3), SamplerConfig(rows=4800, seed=3))
    inverse.plm_fit(base, ridge=0.0)
    for column, named in [(np.ones(4800), "s10"), (base.values[:, 3], "s03, s10")]:
        values = base.values.copy()
        values[:, 10] = column
        spins = tmp_path / "spins.csv"
        write_spin_csv(SpinMatrix(base.tickers, base.dates, values), spins)
        out = tmp_path / "out"
        assert main(["fit", "--method", "plm", "--ridge", "0", "--spins", str(spins),
                     "-o", str(out)]) == 1
        assert f"certified for spins {named}; use ridge > 0" in capsys.readouterr().err
        assert not out.exists()
    assert max(steps[1:]) <= steps[0]  # no divergent fit: no more steps than the clean data


def test_ingest_of_a_file_name_that_is_not_utf8_exits_1_and_writes_nothing(tmp_path, capfd):
    files = write_ohlc(tmp_path)
    odd = tmp_path / os.fsdecode(b"\xff.csv")
    odd.write_bytes(Path(files[0]).read_bytes())
    out = tmp_path / "out"
    assert main(["ingest", files[1], str(odd), "-o", str(out)]) == 1
    assert "holds '\\udcff', which a spin file cannot hold" in capfd.readouterr().err
    assert not out.exists()


def test_the_manifest_hashes_the_bytes_parsed_not_the_artifact_that_replaced_them(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    points = Path(write_file(out, "scaling_points.csv", "N,mean\n20,0.1\n40,0.05\n80,0.025\n"))
    parsed = hashlib.sha256(points.read_bytes()).hexdigest()
    assert main(["scaling", "--points", str(points), "-o", str(out)]) == 0
    assert hashlib.sha256(points.read_bytes()).hexdigest() != parsed  # overwritten
    manifest = json.loads((out / "scaling.manifest.json").read_text())
    assert manifest["inputs"] == {str(points): parsed}


def test_a_non_ascii_ticker_reads_the_same_under_an_ascii_locale(tmp_path):
    spins = tmp_path / "spins.csv"
    spins.write_bytes("date,Zürich,東京\n2021-03-01,1,-1\n2021-03-02,-1,-1\n"
                      "2021-03-03,1,1\n".encode())
    model = model_json(tmp_path, n=2)
    outputs = {}
    for name, locale in [("utf8", {"PYTHONUTF8": "1"}),
                         ("ascii", {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"})]:
        env = dict(os.environ, PYTHONPATH=str(Path(isingmarket.__file__).parents[1]), **locale)
        for argv in (["moments", "--spins", str(spins)],
                     ["tap", "--model", model, "--spins", str(spins)]):
            done = subprocess.run(
                [sys.executable, "-m", "isingmarket.cli", *argv, "-o", str(tmp_path / name)],
                env=env, capture_output=True)
            assert done.returncode == 0, (name, argv[0], done.stderr)
        outputs[name] = [(tmp_path / name / artifact).read_bytes()
                         for artifact in ("moments.json", "tap_pairs.csv")]
    assert outputs["ascii"] == outputs["utf8"]
    assert "Zürich".encode() in outputs["utf8"][1]


def test_infeasible_moments_exit_1_and_an_empty_sign_cell_loads(tmp_path, capsys):
    # the (-1, -1) cell of the pair's sign table is (1 - 0.9 - 0.9 + 0.71) / 4 < 0
    bad = write_file(tmp_path, "bad.json", json.dumps(
        {"N": 2, "sample_size": 100, "q": [0.9, 0.9], "Q": [[1.0, 0.71], [0.71, 1.0]]}))
    for method in ("nmf", "tap-inv", "exact"):
        out = tmp_path / method
        assert main(["fit", "--method", method, "--moments", bad, "-o", str(out)]) == 1
        assert f"{bad}: no +-1 spins have these moments" in capsys.readouterr().err
        assert not out.exists()
    # no row shows (-1, -1): that cell is 0, which the moments of data may hold
    spins = write_file(tmp_path, "spins.csv", "date,a,b\nd1,1,1\nd2,1,-1\nd3,-1,1\nd4,1,1\n")
    assert main(["moments", "--spins", spins, "-o", str(tmp_path / "moments")]) == 0
    moments = str(tmp_path / "moments" / "moments.json")
    assert main(["fit", "--method", "nmf", "--moments", moments, "-o", str(tmp_path / "fit")]) == 0
    report = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert "spin pairs (0, 1) never show one of the four sign combinations" in report["warnings"][0]


def test_handlers_return_artifacts_and_main_writes_them(tmp_path, monkeypatch):
    returned = {}

    def checked(command, handler):
        def run(cfg):
            artifacts = handler(cfg)
            out = Path(cfg["outdir"])
            assert not out.exists() or not any(out.iterdir()), command  # nothing written yet
            returned[command] = list(artifacts)
            return artifacts
        return run

    for command, (handler, help_text, options) in COMMANDS.items():
        monkeypatch.setitem(COMMANDS, command, (checked(command, handler), help_text, options))
    runs = tmp_path / "runs"
    spins, fit = str(runs / "ingest" / "spins.csv"), str(runs / "fit" / "fit.json")
    steps = [
        ["ingest", *write_ohlc(tmp_path)],
        ["moments", "--spins", spins],
        ["spectrum", "--spins", spins, "--bins", "10"],
        ["fit", "--method", "exact", "--moments", str(runs / "moments" / "moments.json")],
        ["tap", "--model", fit, "--spins", spins],
        ["bias", "--model", fit, "--spins", spins],
        ["sample", "--model", model_json(tmp_path, n=3, scale=0.5, seed=1), "--rows", "3000",
         "--burn-in", "200", "--seed", "7"],
        ["multiinfo", "--spins", str(runs / "sample" / "spins.csv")],
        ["noise", "--fit", fit, "--t", "500", "--method", "nmf", "--seed", "3"],
        ["normality", "--model", model_json(tmp_path, n=50, scale=0.1, seed=2, name="big.json"),
         "--quantiles", "500"],
        ["scaling", "--points",
         write_file(tmp_path, "points.csv", "N,mean\n20,0.1\n40,0.05\n80,0.025\n")],
        ["critical-demo", "--n", "20", "--t", "200", "--coupling", "0.0", "--seed", "1",
         "--burn-in", "100"],
    ]
    for command, *argv in steps:
        out = runs / command
        assert main([command, *argv, "-o", str(out)]) == 0, command
        assert sorted(p.name for p in out.iterdir()) == sorted(
            returned[command] + [f"{command}.manifest.json"]), command
    assert sorted(returned) == sorted(COMMANDS)


def test_config_file_merging(tmp_path):
    model = model_json(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("# sampler settings\nrows=100\nburn-in=20\nseed=5\n")
    out = tmp_path / "out"
    assert main(["sample", "--model", model, "--config", str(config),
                 "--seed", "9", "-o", str(out)]) == 0
    manifest = json.loads((out / "sample.manifest.json").read_text())
    assert manifest["config"]["rows"] == 100      # from config file
    assert manifest["config"]["seed"] == 9        # flag overrides config
    assert manifest["seed"] == 9

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key=1\n")
    assert main(["sample", "--model", model, "--config", str(bad), "-o", str(out)]) == 2


def test_config_values_take_the_option_type_and_outdir(tmp_path, monkeypatch):
    model = model_json(tmp_path)
    typed = write_file(tmp_path, "typed.json", json.dumps(
        {"rows": "12", "burn_in": 5, "outdir": str(tmp_path / "from_file")}))
    assert main(["sample", "--model", model, "--config", typed]) == 0
    manifest = json.loads((tmp_path / "from_file" / "sample.manifest.json").read_text())
    assert manifest["config"]["rows"] == 12 and manifest["config"]["burn_in"] == 5
    # outdir precedence: flag, then config file, then $ISINGMARKET_OUTDIR, then ./artifacts
    monkeypatch.setenv("ISINGMARKET_OUTDIR", str(tmp_path / "from_env"))
    assert main(["sample", "--model", model, "--config", typed,
                 "-o", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "spins.csv").exists()
    plain = write_file(tmp_path, "plain.cfg", "rows=12\n")
    assert main(["sample", "--model", model, "--config", plain]) == 0
    assert (tmp_path / "from_env" / "spins.csv").exists()
    monkeypatch.delenv("ISINGMARKET_OUTDIR")
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--model", model, "--config", plain]) == 0
    assert (tmp_path / "artifacts" / "spins.csv").exists()
    # models=path is one path, not a list of characters: one model is too few
    # points for the power-law fit, a domain error
    one = write_file(tmp_path, "one.cfg", f"models={model}\n")
    assert main(["scaling", "--config", one, "-o", str(tmp_path / "scaling")]) == 1


def test_repeat_runs_byte_identical(tmp_path):
    model = model_json(tmp_path, n=4, scale=0.4, seed=6)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sample", "--model", model, "--rows", "500", "--seed", "11",
                     "-o", str(out)]) == 0
    # identical config + inputs + seed, only the output directory differs
    shared = tmp_path / "spins.csv"
    shared.write_bytes((out_a / "spins.csv").read_bytes())
    for out in (out_a, out_b):
        assert main(["fit", "--method", "tap-inv", "--spins", str(shared),
                     "-o", str(out)]) == 0
    for name in ("spins.csv", "fit.json", "coupling.csv",
                 "sample.manifest.json", "fit.manifest.json"):
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, name


def write_config(tmp, config, as_json):
    """tmp/run.cfg holding config as a JSON object or as key=value lines."""
    (tmp / "run.cfg").write_text(json.dumps(config) if as_json
                                 else "".join(f"{k}={v}\n" for k, v in config.items()))


_FUZZ_COMMANDS = ["bias", "moments", "normality", "scaling", "spectrum", "tap"]
_fuzz_value = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), "abc", "", "1e-3", "12", "true",
                     "correlation", "covariance", "missing.csv"]),
    st.lists(st.sampled_from(["missing.json", "x"]), max_size=2),
)


@st.composite
def _fuzz_inputs(draw, command):
    """Valid spins, model and points files of one size N, each corrupted half the time."""
    n = draw(st.integers(1, 12))
    spins = draw(st.lists(st.lists(st.sampled_from(["1", "-1"]), min_size=n, max_size=n),
                          max_size=8))
    lines = ["date" + "".join(f",s{i}" for i in range(n))]
    lines += [f"d{t}," + ",".join(row) for t, row in enumerate(spins)]
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(
            ["", "day,s0", "d,1,x", "d,255,1", "d,0," + ",".join(["1"] * n)]))
    floats = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
    upper = np.triu(np.reshape(draw(floats), (n, n)), 1)
    model = json.dumps({"N": n, "h": draw(floats)[:n], "J": (upper + upper.T).ravel().tolist()})
    if draw(st.booleans()):
        model = draw(st.sampled_from([
            "[1, 2]", "{", "null", '{"model": 3}', '{"N": 0, "h": [], "J": []}',
            model.replace(f'"N": {n}', f'"N": {n + 1}'), model.replace('"h"', '"g"')]))
    points = ["N,mean"] + [f"{a},{b}" for a, b in draw(st.lists(st.tuples(
        st.sampled_from(["10", "20", "40"]), st.sampled_from(["0.1", "0.05", "0.02"])),
        min_size=2, max_size=5))]
    if draw(st.booleans()):
        points[draw(st.integers(0, len(points) - 1))] = draw(st.sampled_from(
            ["", "0,0.1", "10,-0.2", "x,1", "nan,0.1", "10", "10,0.1,3"]))
    known = [opt.name for opt in COMMANDS[command][2]]
    keys = draw(st.lists(st.sampled_from(known * 3 + ["bogus"]), max_size=3))
    config = {key: draw(_fuzz_value) for key in keys}
    return ("\n".join(lines) + "\n", model, "\n".join(points) + "\n", config,
            draw(st.booleans()))


@pytest.mark.parametrize("command", _FUZZ_COMMANDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_configs_and_inputs_keep_the_exit_code_contract(command, data):
    spins_text, model, points, config, as_json = data.draw(_fuzz_inputs(command))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "spins.csv").write_text(spins_text)
        (tmp / "model.json").write_text(model)
        (tmp / "points.csv").write_text(points)
        write_config(tmp, config, as_json)
        inputs = {
            "moments": ["--spins", "spins.csv"],
            "spectrum": ["--spins", "spins.csv"],
            "tap": ["--model", "model.json"] + (["--spins", "spins.csv"] if as_json else []),
            "bias": ["--model", "model.json", "--spins", "spins.csv"],
            "normality": ["--model", "model.json", "--quantiles", "10"],
            "scaling": ["--points", "points.csv"] if as_json else ["--models", "model.json"],
        }[command]
        run_cli([command, *inputs, "--config", "run.cfg"], tmp / "out", tmp)


@pytest.mark.parametrize("command", ["sample", "noise", "critical-demo"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_sampling_commands_keep_the_exit_code_contract_and_finite_artifacts(
        command, data):
    _, model, _, config, as_json = data.draw(_fuzz_inputs(command))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "model.json").write_text(model)
        (tmp / "fit.json").write_text('{"method": "nmf", "iterations": 1, "model": %s}' % model)
        write_config(tmp, config, as_json)
        # half the runs give the size on the command line, over what the config says;
        # critical-demo always runs at N=20, the smallest it allows
        inputs = {
            "sample": ["--model", "model.json"] + (["--rows", "50"] if as_json else []),
            "noise": ["--fit", "fit.json"] + (["--t", "200"] if as_json else []),
            "critical-demo": ["--n", "20"] + (["--t", "400"] if as_json else []),
        }[command]
        run_cli([command, *inputs, "--config", "run.cfg"], tmp / "out", tmp)


def _valid_config(draw, keys):
    """A config of valid values for some of keys, as the fit fuzz draws them."""
    values = {"tol": [1e-10, 1e-8, 1e-6, 1e-4], "max_iter": [20, 100, 500],
              "fit_tol": [1e-10, 1e-8, 1e-6]}
    return {key: draw(st.sampled_from(values[key]))
            for key in draw(st.lists(st.sampled_from(keys), unique=True))}


@st.composite
def _one_factor_inputs(draw):
    """As _fuzz_inputs draws them: a valid spin file of 40-200 one-factor rows of N in
    2..8 (no model or points file) and a config of valid values."""
    n, t = draw(st.integers(2, 8)), draw(st.integers(40, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.choice([-1, 1], size=(t, 1))
    follow = rng.random((t, n)) < rng.uniform(0.5, 0.9, size=n)  # each spin's loading
    spins = np.where(follow, factor, rng.choice([-1, 1], size=(t, n)))
    lines = ["date" + "".join(f",s{i}" for i in range(n))]
    lines += [f"d{k}," + ",".join(map(str, row)) for k, row in enumerate(spins.tolist())]
    config = _valid_config(draw, ["tol", "max_iter"])
    return "\n".join(lines) + "\n", None, None, config, draw(st.booleans())


@st.composite
def _near_frozen_inputs(draw, command):
    """A valid spin file of 40-200 one-factor rows of N in 2..6 in which each spin
    follows the factor with probability 0.95-0.995, data on which the exact fit's
    mean-field start can stall, and a config of valid values.  N stops at 6 for
    cost: pairs with an empty sign cell make the fits long."""
    n, t = draw(st.integers(2, 6)), draw(st.integers(40, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.choice([-1, 1], size=(t, 1))
    follow = rng.random((t, n)) < rng.uniform(0.95, 0.995, size=n)
    spins = np.where(follow, factor, -factor)
    lines = ["date" + "".join(f",s{i}" for i in range(n))]
    lines += [f"d{k}," + ",".join(map(str, row)) for k, row in enumerate(spins.tolist())]
    config = _valid_config(draw, ["tol", "max_iter"] + (
        ["fit_tol"] if command == "multiinfo" else []))
    return "\n".join(lines) + "\n", None, None, config, draw(st.booleans())


@st.composite
def _moment_inputs(draw):
    """A moments file of N in 2..5 spins: q and Q of Dirichlet weights on the 2^N
    states, some of them 0, summed in float as S^T diag(p) S; some files moved by up to
    5e-13 a cell of Q (so Q's asymmetry stays within 1e-12) or 1e-9 in q, some given one
    of the README's exit-1 corruptions, some not JSON.  And a config of valid values."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = np.where((np.arange(2**n)[:, None] >> np.arange(n)) & 1, -1.0, 1.0)
    zero = rng.random(2**n) < rng.uniform(0.0, 0.5)
    zero[rng.integers(2**n)] = False
    p = np.where(zero, 0.0, rng.dirichlet(np.ones(2**n)))
    p /= p.sum()
    q, big_q = p @ states, states.T @ (p[:, None] * states)
    moved = draw(st.sampled_from(["", "", "Q", "q"]))
    if moved == "Q":
        big_q += rng.uniform(-5e-13, 5e-13, (n, n))
    elif moved == "q":
        q += rng.uniform(-1e-9, 1e-9, n)
    asymmetric, off_diagonal, infeasible = big_q.copy(), big_q.copy(), big_q.copy()
    asymmetric[0, 1] += 1e-9
    off_diagonal[0, 0] = 0.9
    infeasible[0, 1] = infeasible[1, 0] = 0.71  # with q_0 = q_1 = 0.9, a sign cell < 0
    corruptions = [
        {"q": [float("nan"), *q[1:]]}, {"Q": big_q[1:].tolist()}, {"N": n + 1},
        {"Q": asymmetric.tolist()}, {"Q": off_diagonal.tolist()}, {"q": [1.5, *q[1:]]},
        {"q": [0.9, 0.9, *q[2:]], "Q": infeasible.tolist()},
        *({"sample_size": size} for size in (1, -5, 2.5, True, "100"))]
    payload = {"N": n, "sample_size": draw(st.sampled_from([None, 2, 50, 10**6])),
               "q": q.tolist(), "Q": big_q.tolist()}
    payload |= draw(st.sampled_from([{}] * 20 + corruptions))
    text = draw(st.sampled_from([json.dumps(payload)] * 20 + ["{", "[1, 2]"]))
    return text, None, None, _valid_config(draw, ["tol", "max_iter"]), draw(st.booleans())


_FITS = [["fit", "--method", method] for method in inverse.FIT_METHODS]
_FIT_CASES = ([(argv, "") for argv in [*_FITS, ["multiinfo"]]]
              + [(argv, "one-factor") for argv in _FITS]
              + [(argv, "near-frozen") for argv in [["fit", "--method", "exact"], ["multiinfo"]]]
              + [(["fit", "--method", m], "moments") for m in ("exact", "nmf", "tap-inv")])


@pytest.mark.parametrize("argv, inputs", _FIT_CASES, ids=[
    "-".join(argv[::2]) + (f"-{inputs}" if inputs else "") for argv, inputs in _FIT_CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_fits_keep_the_exit_code_contract_and_finite_artifacts(argv, inputs, data):
    text, _, _, config, as_json = data.draw({
        "": _fuzz_inputs, "one-factor": lambda _: _one_factor_inputs(),
        "near-frozen": _near_frozen_inputs, "moments": lambda _: _moment_inputs()}[inputs](
        argv[0]))
    if argv[0] == "fit":
        ridge = data.draw(st.sampled_from([None, "0", "1e-3", "0.5"]))
        argv = argv + (["--ridge", ridge] if ridge else []) + (
            ["--strict"] if data.draw(st.booleans()) else [])
    flag, name = ("--moments", "moments.json") if inputs == "moments" else ("--spins", "spins.csv")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / name).write_text(text)
        write_config(tmp, config, as_json)
        code = run_cli([*argv, flag, name, "--config", "run.cfg"], tmp / "out", tmp)
    assert code < 2 or inputs != "moments"  # valid options: only the moments can be at fault


@st.composite
def _ohlc_inputs(draw):
    """1-3 small OHLC files and the ingest options to read them with.

    Cells may be quoted, non-ASCII or bad; lines end in '\\n', '\\r\\n' or a lone
    '\\r'; dates repeat and files may cover disjoint spans or hold a header alone;
    a stray 0xff byte may land anywhere.  The delimiter and date format given on
    the command line mostly, but not always, are the ones the files use.
    """
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", "§"]))
    date_format = draw(st.sampled_from([None, None, "%Y-%m-%d", "%d.%m.%Y"]))
    cell = st.sampled_from(["10", "10.5", "9.75", "11"] * 5  # mostly a good price
                           + ["0", "-1", "x", "nan", "inf", "1e3", "", '"10"', "é", "１２"])
    files = {}
    for name in draw(st.lists(st.sampled_from(["a", "b", "c", "x/a"]),  # x/a is ticker a too
                              min_size=1, max_size=3, unique=True)):
        start = draw(st.sampled_from([0, 0, 0, 60]))  # a disjoint span of days
        days = draw(st.lists(st.integers(start, start + 12), min_size=1, max_size=8))
        if draw(st.sampled_from([False] * 19 + [True])):
            days = []  # a header alone
        lines = [draw(st.sampled_from(["Date,Open,Close"] * 3 + [
            "Date,Open,Note,Close"] * 3 + ["Open,Close,Date"] * 2 + ["Date,Open"]))]
        for day in days:
            when = datetime.date(2021, 3, 1) + datetime.timedelta(days=day)
            stamp = when.strftime(date_format) if date_format else when.isoformat()
            cells = {"Date": draw(st.sampled_from([stamp] * 12 + [f'"{stamp}"', "2021-02-30"])),
                     "Open": draw(cell), "Close": draw(cell),
                     "Note": draw(st.sampled_from(["", "é", '"a,b"', '"q""q"', "x"]))}
            lines.append(",".join(cells.get(key, "") for key in lines[0].split(",")))
        ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        data = ending.join(line.replace(",", delimiter) for line in lines).encode() + (
            ending.encode() if draw(st.booleans()) else b"")
        if draw(st.sampled_from([False] * 19 + [True])):
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"\xff" + data[at:]
        files[name + ".csv"] = data
    options = []
    if draw(st.booleans()) or delimiter != ",":
        options += ["--delimiter", draw(st.sampled_from([delimiter] * 8 + [",", ";", "ab"]))]
    if date_format or draw(st.sampled_from([False] * 4 + [True])):
        options += ["--date-format", draw(st.sampled_from(
            [date_format or "%Y-%m-%d"] * 8 + ["%d.%m.%Y", "%Y", "%Q"]))]
    return files, options


@settings(max_examples=40, deadline=None)
@given(case=_ohlc_inputs())
def test_fuzzed_ingest_keeps_the_exit_code_contract_and_finite_artifacts(case):
    files, options = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / name).parent.mkdir(exist_ok=True)
            (tmp / name).write_bytes(data)
        run_cli(["ingest", *(str(tmp / name) for name in files), *options], tmp / "out")
