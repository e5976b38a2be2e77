"""Acceptance gate C12's inputs and twelve CLI steps, one definition for every user.

test_acceptance.py runs the steps twice in process, test_cli.py runs them with
SciPy blocked, and tools/artifact_diff.py runs them on two source trees; so this
module imports neither pytest nor the package, only numpy.
"""

import json
from pathlib import Path

import numpy as np


def write_inputs(data: Path) -> tuple[list[str], str, str]:
    """Four OHLC files, an N=12 model and scaling points written under data.

    Returns the OHLC paths (sorted), the model path and the points path.
    """
    data.mkdir(parents=True)
    rng = np.random.default_rng(0)
    for ticker in ("aaa", "bbb", "ccc", "ddd"):
        lines = ["Date,Open,High,Low,Close,Volume"]
        price = 10.0
        for day in range(1, 25):
            close = price * (1.0 + 0.01 * rng.standard_normal())
            lines.append(f"2021-05-{day:02d},{price:.4f},{max(price, close):.4f},"
                         f"{min(price, close):.4f},{close:.4f},100")
            price = close
        (data / f"{ticker}.csv").write_text("\n".join(lines) + "\n")

    n = 12  # large enough for the normality step's minimum sample
    coupling = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    coupling[iu] = np.random.default_rng(1).normal(0.0, 0.2, len(iu[0]))
    coupling = coupling + coupling.T
    model = data / "model.json"
    model.write_text(json.dumps({
        "N": n,
        "h": np.random.default_rng(2).normal(0, 0.2, n).tolist(),
        "J": coupling.ravel().tolist(),
    }))
    points = data / "points.csv"
    points.write_text("N,mean\n20,0.11\n40,0.049\n80,0.026\n160,0.012\n")
    return sorted(str(p) for p in data.glob("[a-d]*.csv")), str(model), str(points)


def steps(ohlc, model, points, out=".") -> list[list[str]]:
    """The argv of each of the twelve subcommands in order, each writing to out,
    from which the later steps read spins.csv and fit.json."""
    spins, fit = (Path(out, name) for name in ("spins.csv", "fit.json"))
    argvs = [
        ["ingest", *ohlc],
        ["sample", "--model", model, "--rows", "2000",
         "--burn-in", "200", "--seed", "13"],  # overwrites spins.csv from ingest
        ["moments", "--spins", spins],
        ["spectrum", "--spins", spins, "--bins", "12"],
        ["fit", "--method", "tap-inv", "--spins", spins],
        ["tap", "--model", fit, "--spins", spins],
        ["multiinfo", "--spins", spins],
        ["bias", "--model", fit, "--spins", spins],
        ["normality", "--model", fit,
         "--quantiles", "10", "--bins", "4", "--trim", "0.0"],
        ["scaling", "--points", points],
        ["noise", "--fit", fit, "--t", "400",
         "--method", "nmf", "--seed", "4"],
        ["critical-demo", "--n", "20", "--t", "200", "--coupling", "0.0",
         "--seed", "6", "--burn-in", "100"],
    ]
    return [[*map(str, argv), "-o", str(out)] for argv in argvs]
