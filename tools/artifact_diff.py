"""Run one fixed list of CLI steps on two source trees and list the artifacts that differ.

    python tools/artifact_diff.py OLD_TREE NEW_TREE WORKDIR

Each tree is a checkout of this repository (for example `git archive <commit>`
unpacked into a directory).  For each tree in turn the inputs are written
afresh at the same paths and every step runs in one fresh interpreter with
PYTHONPATH set to the tree's `src` and one BLAS thread, under WORKDIR/run, which
is then renamed to WORKDIR/old or WORKDIR/new; so manifests, which record input
paths, can match byte for byte.  Every step must exit 0.  Called with other
than three paths the tool prints its usage line and exits 2.  Exit status 1 lists
the output files that differ or exist in one tree only.  After each differing
.json file come the max absolute gaps of its numeric values, one per key path
(list indices dropped, so `model.J` covers every coupling) that differs; after
each differing .csv file, the max absolute gap over its numeric cells.

The steps:
- every prep and pass step of perfbench's three workloads (desk_fit,
  maxent_exact with its three ticker blocks, mc_noise) at market seeds 77 and 12;
- acceptance gate C12's pipeline as tests/c12_pipeline.py defines it, the one
  definition that tests/test_acceptance.py and tests/test_cli.py run too (four
  OHLC files and an N=12 model; all twelve subcommands, run from inside their
  output directory);
- ingest, moments, spectrum, fit (tap-inv, plm and exact), multiinfo and
  sample on twelve OHLC files of seed 5: three each with '\\n', '\\r\\n' and a
  lone '\\r' line endings, three '\\r\\n' files with quoted dates; every file
  holds an 'é' in its unmapped Volume column and a dropped row holding 'é'; and
  fit --moments (exact, nmf and tap-inv) on that set's moments.json;
- sample of 3,000 rows from an N=16 model with fields spread over [-24, 24]
  and couplings of sd 1.5: its local fields 2(h_i + sum_j J_ij s_j) range past
  both +-40 clamps of the Glauber update and through the sigmoid's tails near 0
  and 1, where the sweep's logit compare falls back to the exact test, so the
  byte check covers every branch of that decision.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import c12_pipeline  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

USAGE = "usage: python tools/artifact_diff.py OLD_TREE NEW_TREE WORKDIR"
SEEDS = (77, 12)
RUN_STEPS = """
import json, os, pathlib, sys
from isingmarket.cli import main
for cwd, argv in json.loads(pathlib.Path(sys.argv[1]).read_text()):
    os.makedirs(cwd, exist_ok=True)
    os.chdir(cwd)
    if main(argv) != 0:
        sys.exit(f"step failed: {argv}")
"""


def c12_steps(inputs: Path, out: Path) -> list:
    ohlc, model, points = c12_pipeline.write_inputs(inputs / "c12")
    return [[str(out / "c12"), argv] for argv in c12_pipeline.steps(ohlc, model, points)]


def mixed_steps(inputs: Path, out: Path) -> list:
    data = inputs / "mixed"
    data.mkdir(parents=True)
    market = gen.generate_market(5, n_tickers=12, n_days=400)
    files = []
    for k, ticker in enumerate(market.tickers):
        lines = market.files[ticker].splitlines()
        kept = next(i for i in range(5, len(lines)) if lines[i].count(",") == 5)
        lines[kept] += "é"  # in Volume, which is not read
        lines.insert(9, "2000-01-0é,10,11,9,10.5,100")  # a dropped row
        if k >= 9:
            lines[1:] = [f'"{line[:10]}"{line[10:]}' for line in lines[1:]]
        ending = ["\n", "\r\n", "\r", "\r\n"][k // 3]
        path = data / f"{ticker}.csv"
        path.write_bytes((ending.join(lines) + ending).encode())
        files.append(str(path))
    spins, fit = str(out / "mixed" / "ingest" / "spins.csv"), str(out / "mixed" / "exact")
    steps = {
        "ingest": ["ingest", *files],
        "moments": ["moments", "--spins", spins],
        **{f"moments-{method}": ["fit", "--method", method, "--moments",
                                 str(out / "mixed" / "moments" / "moments.json")]
           for method in ("exact", "nmf", "tap-inv")},
        "spectrum": ["spectrum", "--spins", spins],
        "tap-inv": ["fit", "--method", "tap-inv", "--spins", spins],
        "plm": ["fit", "--method", "plm", "--spins", spins],
        "exact": ["fit", "--method", "exact", "--spins", spins],
        "multiinfo": ["multiinfo", "--spins", spins],
        "sample": ["sample", "--model", fit + "/fit.json", "--rows", "500", "--seed", "3"],
    }
    return [[str(out), [*argv, "-o", str(out / "mixed" / name)]] for name, argv in steps.items()]


def strong_sample_steps(inputs: Path, out: Path) -> list:
    data = inputs / "strong"
    data.mkdir(parents=True)
    n = 16
    coupling = np.triu(np.random.default_rng(3).normal(0.0, 1.5, (n, n)), 1)
    model = data / "model.json"
    model.write_text(json.dumps({"N": n, "h": np.linspace(-24.0, 24.0, n).tolist(),
                                 "J": (coupling + coupling.T).ravel().tolist()}))
    return [[str(out), ["sample", "--model", str(model), "--rows", "3000", "--burn-in", "100",
                        "--seed", "9", "-o", str(out / "strong")]]]


def workload_steps(run: Path) -> list:
    steps = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            run_dir = run / workload / str(seed)
            ohlc = workloads.write_inputs(workload, run_dir, gen.generate_market(seed))
            plan = workloads.plan(workload, run_dir, seed, ohlc)
            steps += [[str(run), argv] for _, argv in plan["prep"]]
            steps += [[str(run), argv] for variant in plan["variants"] for _, argv in variant]
    return steps


def numbers(path: Path) -> dict[str, list[float]]:
    """The numeric values of a .json file by key path, or of a .csv file's cells."""
    if path.suffix == ".csv":
        cells = []
        for cell in path.read_text().replace("\n", ",").split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                pass
        return {"": cells}
    found: dict[str, list[float]] = {}

    def walk(value, key):
        if isinstance(value, dict):
            for name, item in value.items():
                walk(item, f"{key}.{name}" if key else name)
        elif isinstance(value, list):
            for item in value:
                walk(item, key)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found.setdefault(key, []).append(float(value))

    walk(json.loads(path.read_text()), "")
    return found


def gaps(old: Path, new: Path) -> str:
    """Max absolute gap of each key path's numbers that differ, or why there is none."""
    a, b = numbers(old), numbers(new)
    parts = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, []), b.get(key, [])
        label = f"{key}:" if key else "max |gap|"
        if len(x) != len(y):
            parts.append(f"{label} {len(x)} vs {len(y)} numbers")
        elif x != y:
            parts.append(f"{label} {max(abs(u - v) for u, v in zip(x, y)):.3g}")
    return ", ".join(parts) or "no numeric gap"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(USAGE, file=sys.stderr)
        return 2
    old, new, work = (Path(a).resolve() for a in argv)
    run, inputs = work / "run", work / "inputs"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    outs = []
    for tree, name in ((old, "old"), (new, "new")):
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.rmtree(run, ignore_errors=True)
        steps = (workload_steps(run) + c12_steps(inputs, run / "out")
                 + mixed_steps(inputs, run / "out") + strong_sample_steps(inputs, run / "out"))
        plan = work / "steps.json"
        plan.write_text(json.dumps(steps))
        subprocess.run([sys.executable, "-c", RUN_STEPS, str(plan)], check=True,
                       env=dict(env, PYTHONPATH=str(tree / "src")), stdout=subprocess.DEVNULL)
        outs.append(work / name)
        shutil.rmtree(outs[-1], ignore_errors=True)
        run.rename(outs[-1])
    names = sorted({str(p.relative_to(o)) for o in outs for p in o.rglob("*")
                    if p.is_file() and "inputs" not in p.relative_to(o).parts})
    differ = [name for name in names
              if not all((o / name).is_file() for o in outs)
              or not filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)]
    print(f"{len(steps)} steps, {len(names)} files, {len(differ)} differ")
    for name in differ:
        numeric = (name.endswith((".json", ".csv"))
                   and all((o / name).is_file() for o in outs))
        print("  " + name + (f"  [{gaps(outs[0] / name, outs[1] / name)}]" if numeric else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
