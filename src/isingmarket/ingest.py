"""OHLC parsing, date alignment and binarization into ±1 orientation matrices.

A day's orientation is +1 when the close is at or above the open, -1
otherwise.  Tickers are aligned on the strict intersection of their dates, so
no return is ever imputed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import AlignmentError, EmptyInputError, FormatError


@dataclass
class OhlcFormat:
    """Column mapping for delimiter-separated OHLC files (header required)."""

    delimiter: str = ","
    date_column: str = "Date"
    open_column: str = "Open"
    close_column: str = "Close"
    date_format: str | None = None  # None -> ISO-8601 (YYYY-MM-DD)


@dataclass
class PriceSeries:
    """Per-ticker open/close rows, sorted by strictly increasing date.

    dropped counts rows discarded during parsing (bad prices, bad dates,
    duplicate dates); high/low/volume columns are ignored.
    """

    ticker: str
    rows: list[tuple[date, float, float]]
    dropped: int = 0

    @property
    def dates(self) -> list[date]:
        return [r[0] for r in self.rows]


@dataclass
class SpinMatrix:
    """T x N matrix of ±1 orientations, one column per ticker."""

    tickers: list[str]
    dates: list[str]
    values: np.ndarray  # (T, N) int8, entries in {-1, +1}

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int8)
        self.validate()

    @property
    def t(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def validate(self) -> None:
        t, n = self.values.shape
        if t < 1 or n < 1:
            raise FormatError("spin matrix needs at least one row and one column")
        if len(self.tickers) != n:
            raise FormatError(f"{len(self.tickers)} tickers for {n} columns")
        if len(self.dates) != t:
            raise FormatError(f"{len(self.dates)} dates for {t} rows")
        bad = np.abs(self.values) != 1
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise FormatError(
                f"spin entry at row {r}, column {c} is {self.values[r, c]}, expected -1 or +1"
            )


def _parse_date(text: str, fmt: OhlcFormat) -> date:
    if fmt.date_format is None:
        return date.fromisoformat(text.strip())
    return datetime.strptime(text.strip(), fmt.date_format).date()


def parse_ohlc(text, fmt: OhlcFormat | None = None, ticker: str = "") -> PriceSeries:
    """Parse one delimiter-separated OHLC stream into a PriceSeries.

    Rows with non-positive or unparseable open/close (or an unparseable or
    duplicate date) are dropped and counted rather than failing the file.
    """
    fmt = fmt or OhlcFormat()
    if isinstance(text, str):
        text = io.StringIO(text)
    reader = csv.reader(text, delimiter=fmt.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"{ticker or 'input'}: no header row")
    header = [h.strip() for h in header]
    try:
        i_date = header.index(fmt.date_column)
        i_open = header.index(fmt.open_column)
        i_close = header.index(fmt.close_column)
    except ValueError as exc:
        raise FormatError(
            f"{ticker or 'input'}: header {header!r} is missing a mapped column "
            f"({fmt.date_column}/{fmt.open_column}/{fmt.close_column})"
        ) from exc

    rows: list[tuple[date, float, float]] = []
    dropped = 0
    for record in reader:
        if not record or all(not cell.strip() for cell in record):
            continue
        try:
            d = _parse_date(record[i_date], fmt)
            o = float(record[i_open])
            c = float(record[i_close])
        except (ValueError, IndexError):
            dropped += 1
            continue
        if o <= 0.0 or c <= 0.0:
            dropped += 1
            continue
        rows.append((d, o, c))

    if not rows:
        raise EmptyInputError(f"{ticker or 'input'}: no valid OHLC rows")

    # Stable sort keeps file order among equal dates; keep the first, count the rest.
    rows.sort(key=lambda r: r[0])
    unique: list[tuple[date, float, float]] = []
    for row in rows:
        if unique and unique[-1][0] == row[0]:
            dropped += 1
            continue
        unique.append(row)
    return PriceSeries(ticker=ticker, rows=unique, dropped=dropped)


def binarize(series: list[PriceSeries]) -> SpinMatrix:
    """Align tickers on their common dates and binarize open-to-close moves.

    Entry is +1 when close >= open and -1 when close < open.  Any day missing
    from at least one ticker is dropped.
    """
    if not series:
        raise EmptyInputError("no price series to binarize")
    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        ranges = ", ".join(
            f"{s.ticker}: {s.rows[0][0].isoformat()}..{s.rows[-1][0].isoformat()}"
            for s in series
        )
        raise AlignmentError(f"no common dates across tickers ({ranges})")

    dates = sorted(common)
    values = np.empty((len(dates), len(series)), dtype=np.int8)
    for j, s in enumerate(series):
        by_date = {d: (o, c) for d, o, c in s.rows}
        for i, d in enumerate(dates):
            o, c = by_date[d]
            values[i, j] = 1 if c >= o else -1
    return SpinMatrix(
        tickers=[s.ticker for s in series],
        dates=[d.isoformat() for d in dates],
        values=values,
    )


def write_spin_csv(matrix: SpinMatrix, path) -> None:
    """Interchange format: header 'date,<tickers...>', one ±1 column per ticker.

    Written atomically (temp file + rename) like every other artifact.
    """
    from .serialize import atomic_write_text

    lines = [",".join(["date"] + list(matrix.tickers))]
    cells = np.where(matrix.values > 0, "1", "-1")
    lines += [d + "," + ",".join(row.tolist()) for d, row in zip(matrix.dates, cells)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_spin_csv(path) -> SpinMatrix:
    with open(path) as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise EmptyInputError(f"{path}: empty spin file")
        if not header or header[0] != "date" or len(header) < 2:
            raise FormatError(f"{path}: expected header 'date,<tickers...>'")
        lines = [line for line in handle.read().split("\n") if line]
    if not lines:
        raise EmptyInputError(f"{path}: no spin rows")
    table = {"delimiter": ",", "comments": None, "quotechar": '"'}
    try:
        # every column is read, so loadtxt itself rejects rows of differing widths
        values = np.loadtxt(lines, dtype=np.int64, converters={0: lambda date: 0},
                            ndmin=2, **table)
    except ValueError as exc:
        raise FormatError(f"{path}: bad spin rows ({exc})") from exc
    if values.shape[1] != len(header):
        raise FormatError(f"{path}: rows have {values.shape[1]} cells, expected {len(header)}")
    if np.any(np.abs(values) > 1):  # SpinMatrix's int8 cast would wrap these around
        raise FormatError(f"{path}: spin cell outside -1..1")
    dates = np.loadtxt(lines, dtype=str, usecols=0, ndmin=1, **table).tolist()
    return SpinMatrix(tickers=header[1:], dates=dates, values=values[:, 1:])
