"""One fresh interpreter that runs a workload's CLI steps in-process.

Usage: python3 worker.py PLAN.json RESULT.json PHASE SECONDS TRACE

PHASE is ``prep`` (run the plan's prep steps and exit), ``probe`` (import the
CLI, run the first step, print READY, exit) or ``main`` (a probe that goes on
to run whole passes for SECONDS, and at least MIN_PASSES of them, taking the
plan's pass variants in turn).  Since the first step has run once by then,
every pass is warm.  With TRACE=1 every variant's pass is run untraced, then
traced, and so on, so the trace overhead is measured in one process on the
same inputs.  The READY line is how the parent times set-up; everything else
goes to RESULT.json.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

MIN_PASSES = 2


def _run_step(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the program crashed; record it as a failed step
            code = -1
            err.write(traceback.format_exc())
    return code, err.getvalue()[-2000:]


def _digest(folder: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(folder.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def main() -> int:
    plan_path, result_path, phase, seconds, trace = sys.argv[1:6]
    seconds, trace = float(seconds), trace == "1"

    start = perf_counter()
    import isingmarket.cli as cli
    import_s = perf_counter() - start

    plan = json.loads(Path(plan_path).read_text())
    if phase == "prep":
        for name, argv in plan["prep"]:
            code, err = _run_step(cli, argv)
            if code != 0:
                print(f"prep step {name} exited {code}: {err}", file=sys.stderr)
                return 1
        return 0

    variants = plan["variants"]
    first_code, first_err = _run_step(cli, variants[0][0][1])
    print("READY", json.dumps({"import_s": import_s, "code": first_code, "error": first_err}),
          flush=True)
    if phase == "probe":
        return 0

    if trace:
        import layers
        import spans as spanlib

    passes = []
    min_passes = max(MIN_PASSES, len(variants) * (2 if trace else 1))
    timed_start = perf_counter()
    count = 0
    # Whole rounds of variants only, so no variant weighs more in the median.
    while (count < min_passes or perf_counter() - timed_start < seconds
           or count % len(variants)):
        variant = count % len(variants)
        steps = variants[variant]
        traced = trace and (count // len(variants)) % 2 == 1
        tracer = patched = None
        if traced:
            tracer = spanlib.Tracer()
            patched = spanlib.install(tracer, layers.COUNTERS)
        codes, errors, step_s = {}, {}, {}
        try:
            began = perf_counter()
            for name, argv in steps:
                index = tracer.open(layers.STEP_PREFIX + name) if traced else None
                step_began = perf_counter()
                codes[name], errors[name] = _run_step(cli, argv)
                step_s[name] = perf_counter() - step_began
                if traced:
                    tracer.close(index)
            elapsed = perf_counter() - began
        finally:
            if traced:
                spanlib.uninstall(patched)
        record = {"kind": "traced" if traced else "timed", "variant": variant,
                  "seconds": elapsed}
        if traced:
            step_names = [name for name, _ in steps]
            record["layers"] = layers.pass_metrics(tracer.spans, step_names)
            record["shares"] = layers.layer_shares(tracer.spans, elapsed)
        record.update(codes=codes, step_s=step_s,
                      errors={k: v for k, v in errors.items() if v},
                      digests={name: _digest(Path(argv[-1])) for name, argv in steps})
        passes.append(record)
        count += 1

    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "program": str(Path(cli.__file__).resolve().parent),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": blas_threads(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
