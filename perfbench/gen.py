"""Seeded synthetic market data for the benchmark.

A one-factor market model drives every ticker:

    r_i(t) = 0.01 * (beta_i * m_t + eps_i,t),   beta_i ~ U(0.3, 1)

with m and eps standard normal.  Each ticker misses a few random dates, and
each file carries a few unparseable, non-positive and duplicate-date rows, so
the program's date intersection and dropped-row counting both run.  The
generator also returns its own expectations: the binarized spin matrix
after alignment and the number of rows the parser must drop per ticker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

START_DATE = "2000-01-03"


@dataclass
class Market:
    """Generated OHLC text per ticker plus the answers the program must give."""

    tickers: list[str]
    files: dict[str, str]  # ticker -> OHLC CSV text
    dropped: dict[str, int]  # ticker -> rows the parser must discard
    dates: list[str]  # common dates, ascending
    spins: np.ndarray  # (T, N) int8 expected binarization on the common dates


def generate_market(seed: int, n_tickers: int = 50, n_days: int = 5000) -> Market:
    rng = np.random.default_rng(seed)
    days = np.busday_offset(np.datetime64(START_DATE), np.arange(n_days), roll="forward")
    all_dates = np.datetime_as_string(days, unit="D")
    beta = rng.uniform(0.3, 1.0, n_tickers)
    market = rng.standard_normal(n_days)
    returns = 0.01 * (beta[None, :] * market[:, None] + rng.standard_normal((n_days, n_tickers)))
    gaps = 0.002 * rng.standard_normal((n_days, n_tickers))
    log_open = np.log(rng.uniform(20.0, 200.0, n_tickers))[None, :] + np.cumsum(
        returns + gaps, axis=0) - returns
    opens = np.exp(log_open)
    closes = opens * np.exp(returns)
    highs = np.maximum(opens, closes) * (1.0 + 0.005 * rng.random((n_days, n_tickers)))
    lows = np.minimum(opens, closes) * (1.0 - 0.005 * rng.random((n_days, n_tickers)))
    volumes = rng.integers(10_000, 5_000_000, (n_days, n_tickers))

    tickers = [f"T{i:02d}" for i in range(n_tickers)]
    files: dict[str, str] = {}
    dropped: dict[str, int] = {}
    present = np.ones((n_days, n_tickers), dtype=bool)
    spin_by_day = np.empty((n_days, n_tickers), dtype=np.int8)
    for j, ticker in enumerate(tickers):
        # Prices are written with 4 decimals and the program compares the parsed
        # text; round() is correctly rounded, so it yields the same doubles.
        o, h, lo, c = ([round(x, 4) for x in a[:, j].tolist()]
                       for a in (opens, highs, lows, closes))
        spin_by_day[:, j] = [1 if close >= open_ else -1 for open_, close in zip(o, c)]
        lines = ["%s,%.4f,%.4f,%.4f,%.4f,%d" % row
                 for row in zip(all_dates.tolist(), o, h, lo, c, volumes[:, j].tolist())]

        missing = rng.choice(n_days, size=int(rng.integers(2, 7)), replace=False)
        present[missing, j] = False
        keep = np.ones(n_days, dtype=bool)
        keep[missing] = False
        rows = [lines[i] for i in np.flatnonzero(keep)]

        # Bad rows go at random positions; a duplicate follows its original,
        # so the parser (which keeps the first row of a date) keeps the real one.
        bad = [
            f"{all_dates[0]},n/a,1.0,1.0,1.0,100",
            "2001-13-45," + lines[0].split(",", 1)[1],
            f"{all_dates[1]},{o[1]:.4f}",
            f"{all_dates[2]},0.0000,1.0,1.0,{c[2]:.4f},100",
            f"{all_dates[3]},{o[3]:.4f},1.0,1.0,-1.5000,100",
        ][: int(rng.integers(3, 6))]
        for text in bad:
            rows.insert(int(rng.integers(0, len(rows) + 1)), text)
        kept_days = np.flatnonzero(keep)
        duplicates = rng.choice(kept_days, size=int(rng.integers(1, 4)), replace=False)
        for day in sorted(duplicates, reverse=True):
            original = rows.index(lines[day])
            rows.insert(original + 1, f"{all_dates[day]},1.0000,1.0,1.0,2.0000,100")
        files[ticker] = "Date,Open,High,Low,Close,Volume\n" + "\n".join(rows) + "\n"
        dropped[ticker] = len(bad) + len(duplicates)

    common = np.flatnonzero(present.all(axis=1))
    return Market(
        tickers=tickers,
        files=files,
        dropped=dropped,
        dates=[str(d) for d in all_dates[common]],
        spins=spin_by_day[common],
    )


def spin_csv_text(tickers: list[str], dates: list[str], spins: np.ndarray) -> str:
    """The program's spin interchange format: header 'date,<tickers>', ±1 cells."""
    lines = [",".join(["date"] + list(tickers))]
    lines += [d + "," + ",".join(map(str, row)) for d, row in zip(dates, spins.tolist())]
    return "\n".join(lines) + "\n"
