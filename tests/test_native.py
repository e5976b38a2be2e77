"""The one native loader (_native) and the C sources it builds."""

import fnmatch
import subprocess
from pathlib import Path

import numpy as np
import pytest

from conftest import FRESH_TIMEOUT, run_fresh
from isingmarket import _native, ingest
from isingmarket.cli import main
from isingmarket.errors import KernelBuildError

SOURCES = sorted(Path(_native.__file__).parent.glob("*.c"))


def test_both_c_sources_compile_cleanly_with_all_warnings():
    assert [path.name for path in SOURCES] == ["_glauber.c", "_scan.c"]
    for path in SOURCES:
        done = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(path)],
                              capture_output=True, text=True, timeout=FRESH_TIMEOUT)
        assert done.returncode == 0, done.stderr


def test_the_compiler_command_keeps_ieee_rounding_and_portable_code():
    # the kernel must round as the reference loop does, and the cached library
    # must load on any host of the architecture
    assert "-ffp-contract=off" in _native._CC
    assert not {"-ffast-math", "-Ofast", "-march=native"} & set(_native._CC)


def test_every_c_source_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    patterns = pyproject["tool"]["setuptools"]["package-data"]["isingmarket"]
    for path in SOURCES:
        assert any(fnmatch.fnmatch(path.name, pattern) for pattern in patterns), path.name


@pytest.fixture
def build_dir(tmp_path, monkeypatch):
    """An empty library cache, and a loader that has loaded nothing yet."""
    build = tmp_path / "build"
    monkeypatch.setattr(_native, "_BUILD_DIR", build)
    _native.load.cache_clear()
    yield build
    _native.load.cache_clear()


@pytest.mark.parametrize("compiler, message", [
    (["no-such-cc", *_native._CC[1:]], "no-such-cc"),  # not installed
    ([*_native._CC, "--no-such-option"], "--no-such-option"),  # fails
])
def test_reading_ohlc_or_spins_without_a_working_compiler_exits_1(
        tmp_path, monkeypatch, capsys, build_dir, compiler, message):
    ohlc = tmp_path / "aaa.csv"
    ohlc.write_text("Date,Open,Close\n2020-01-02,10,11\n2020-01-03,11,10\n")
    spins = tmp_path / "spins.csv"
    spins.write_text("date,a,b\nd1,1,-1\nd2,-1,1\n")
    monkeypatch.setattr(_native, "_CC", compiler)
    for argv in (["ingest", str(ohlc)], ["moments", "--spins", str(spins)]):
        out = tmp_path / f"out-{argv[0]}"
        assert main([*argv, "-o", str(out)]) == 1, argv
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not build_dir.exists() or not any(build_dir.iterdir())  # no partial library


def test_a_missing_source_is_a_kernel_build_error(build_dir):
    with pytest.raises(KernelBuildError, match="_absent.c"):
        _native.load("_absent.c", "absent", None, ())
    assert not build_dir.exists()


def test_a_cached_library_loads_without_the_compiler(monkeypatch, build_dir):
    first = ingest._scan_spins(b"d1,1,-1\nd2,-1,1\n", 2)
    built = sorted(build_dir.iterdir())
    assert [path.suffix for path in built] == [".so"]

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran for a cached library")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    _native.load.cache_clear()
    again = ingest._scan_spins(b"d1,1,-1\nd2,-1,1\n", 2)
    assert again[0] == first[0] == ["d1", "d2"]
    assert np.array_equal(again[1], first[1])
    assert sorted(build_dir.iterdir()) == built


def test_a_run_with_cached_libraries_imports_no_subprocess(tmp_path):
    spins = tmp_path / "spins.csv"
    spins.write_text("date,a,b\nd1,1,-1\nd2,-1,1\n")
    ingest.read_spin_csv(spins)  # the scan library is built by now
    code = ("import sys, isingmarket.cli as cli; code = cli.main(['moments', '--spins', "
            f"{str(spins)!r}, '-o', {str(tmp_path / 'out')!r}]); "
            "print(code, 'subprocess' in sys.modules)")
    assert run_fresh(code).split()[-2:] == ["0", "False"]
