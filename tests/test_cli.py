import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isingmarket
from isingmarket.cli import COMMANDS, main

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
    }


def domain_error_cases(tmp_path):
    """argv lists that must exit 1: a file whose content is malformed or does not fit."""
    model = model_json(tmp_path)
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"date,a\nd1,\xff\xfe\n")
    constant = write_file(tmp_path, "constant.csv", "date,a,b\nd1,1,-1\nd2,1,1\nd3,1,-1\n")
    return {
        "malformed model JSON": ["tap", "--model", write_file(tmp_path, "bad.json", "{not json")],
        "model without N": ["tap", "--model",
                            write_file(tmp_path, "no_n.json", '{"h": [0.0], "J": [0.0]}')],
        "model with N=0": ["tap", "--model",
                           write_file(tmp_path, "n0.json", '{"N": 0, "h": [], "J": []}')],
        "model is a list": ["tap", "--model", write_file(tmp_path, "list.json", "[1, 2]")],
        "noise on a bare model": ["noise", "--fit", model, "--t", "100"],
        "header-only points": ["scaling", "--points",
                               write_file(tmp_path, "points.csv", "N,mean\n")],
        "scaling an N=1 model": ["scaling", "--models", model, write_file(
            tmp_path, "n1.json", '{"N": 1, "h": [0.1], "J": [0.0]}')],
        "tap spins of another N": ["tap", "--model", model, "--spins",
                                   write_file(tmp_path, "n2.csv", "date,a,b\nd1,1,-1\nd2,-1,1\n")],
        "spin cell 255": ["moments", "--spins",
                          write_file(tmp_path, "wrap.csv", "date,a,b\nd1,255,1\nd2,-1,1\n")],
        "spins not UTF-8": ["moments", "--spins", str(binary)],
        "quoted cell over the csv field limit": ["ingest", write_file(
            tmp_path, "wide.csv", "Date,Open,Close,Note\n"
            f'2021-03-01,10,11,"{"x" * 140_000}"\n2021-03-02,11,12,ok\n')],
        "spin header over the csv field limit": ["moments", "--spins", write_file(
            tmp_path, "wide_spins.csv", f'date,a,"{"b" * 140_000}"\nd1,1,-1\nd2,-1,1\n')],
        "nmf with a constant column": ["fit", "--method", "nmf", "--ridge", "0.1",
                                       "--spins", constant],
        "spectrum of one row": ["spectrum", "--spins",
                                write_file(tmp_path, "one_row.csv", "date,a,b\nd1,1,-1\n")],
    }


def test_usage_errors_exit_2_and_write_nothing(tmp_path):
    model = model_json(tmp_path)
    out = tmp_path / "empty"
    # invalid flag value: damping outside (0, 1]
    assert main(["tap", "--model", model, "--damping", "2.0", "-o", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())
    # missing required input
    assert main(["moments", "-o", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())
    for case, argv in usage_error_cases(tmp_path).items():
        out = tmp_path / "out" / case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a usage error is reported once, as the error
            assert main([*argv, "-o", str(out)]) == 2, case
        assert not out.exists() or not any(out.iterdir()), case


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
    spins = tmp_path / "one_row.csv"
    spins.write_text("date,a,b\nd1,1,-1\n")
    assert main(["moments", "--spins", str(spins), "-o", str(tmp_path / "out")]) == 1
    for case, argv in domain_error_cases(tmp_path).items():
        out = tmp_path / "out" / case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a domain error is reported once, as the error
            assert main([*argv, "-o", str(out)]) == 1, case
        assert not out.exists() or not any(out.iterdir()), case


def test_handlers_return_artifacts_and_main_writes_them(tmp_path, monkeypatch):
    returned = {}

    def checked(command, handler):
        def run(cfg):
            inputs, artifacts = handler(cfg)
            out = Path(cfg["outdir"])
            assert not out.exists() or not any(out.iterdir()), command  # nothing written yet
            returned[command] = list(artifacts)
            return inputs, artifacts
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
        if as_json:
            (tmp / "run.cfg").write_text(json.dumps(config))
        else:
            (tmp / "run.cfg").write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        inputs = {
            "moments": ["--spins", "spins.csv"],
            "spectrum": ["--spins", "spins.csv"],
            "tap": ["--model", "model.json"] + (["--spins", "spins.csv"] if as_json else []),
            "bias": ["--model", "model.json", "--spins", "spins.csv"],
            "normality": ["--model", "model.json", "--quantiles", "10"],
            "scaling": ["--points", "points.csv"] if as_json else ["--models", "model.json"],
        }[command]
        out = tmp / "out"
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code = main([command, *inputs, "--config", "run.cfg", "-o", str(out)])
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
            assert code == 2
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2)
        if code != 0:
            assert not out.exists() or not any(out.iterdir())
