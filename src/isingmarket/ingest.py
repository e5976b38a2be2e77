"""OHLC parsing, date alignment and binarization into ±1 orientation matrices.

A day's orientation is +1 when the close is at or above the open, -1
otherwise.  Tickers are aligned on the strict intersection of their dates, so
no return is ever imputed.  Plain OHLC lines and spin-file bodies go undecoded
to the C line scans of _scan.c, which _native compiles with cc on first use.
"""

from __future__ import annotations

import csv
import ctypes
import io
import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from . import _native
from .errors import AlignmentError, EmptyInputError, FormatError
from .serialize import atomic_write_text, read_bytes


@dataclass
class OhlcFormat:
    """Column mapping for delimiter-separated OHLC files (header required)."""

    delimiter: str = ","
    date_column: str = "Date"
    open_column: str = "Open"
    close_column: str = "Close"
    date_format: str | None = None  # None -> ISO-8601 (YYYY-MM-DD)


@dataclass(eq=False)
class PriceSeries:
    """Per-ticker open/close columns, sorted by strictly increasing date.

    dropped counts rows discarded during parsing (bad or non-finite prices,
    bad dates, duplicate dates); high/low/volume columns are ignored.
    """

    ticker: str
    dates: np.ndarray  # datetime64[D], strictly increasing
    open: np.ndarray  # float64, finite and > 0
    close: np.ndarray  # float64, finite and > 0
    dropped: int = 0

    @property
    def rows(self) -> list[tuple[date, float, float]]:
        """(date, open, close) per kept row, built from the columns on each call."""
        return list(zip(self.dates.tolist(), self.open.tolist(), self.close.tolist()))

    def __eq__(self, other):
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return (self.ticker == other.ticker and self.dropped == other.dropped
                and np.array_equal(self.dates, other.dates)
                and np.array_equal(self.open, other.open)
                and np.array_equal(self.close, other.close))


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
        for names in (self.tickers, self.dates):
            text = "".join(names)  # one scan per character, not one per name
            try:  # a lone surrogate, as from a file name that is not UTF-8, has no UTF-8 form
                text.encode("utf-8")
                surrogate = ""
            except UnicodeEncodeError as exc:
                surrogate = text[exc.start]
            for char in ',"\r\n\0' + surrogate:
                if char in text:
                    name = next(name for name in names if char in name)
                    raise FormatError(f"ticker or date {name!r} holds {char!r}, "
                                      "which a spin file cannot hold")
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


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # datetime64[D] counts days from here


def _row_rule(records, cols: tuple[int, int, int], fmt: OhlcFormat):
    """The row rule: parse csv records one at a time.

    records yields (position, record) pairs in file order.  Returns the kept
    rows as an (n, 4) float64 array of position, date ordinal, open and close
    (all exact), and the count of dropped records; blank records are skipped.
    """
    i_date, i_open, i_close = cols
    kept: list[int | float] = []
    dropped = 0
    for position, record in records:
        try:
            d = _parse_date(record[i_date], fmt).toordinal()
            o = float(record[i_open])
            c = float(record[i_close])
        except (ValueError, IndexError):
            d = None
        if d is not None and 0.0 < o < math.inf and 0.0 < c < math.inf:  # drops nan too
            kept += (position, d, o, c)
        elif any(cell.strip() for cell in record):
            dropped += 1
    return np.array(kept, dtype=np.float64).reshape(-1, 4), dropped


def _scan_rows(data: bytes, cols: tuple[int, int, int], cells: int, fmt: OhlcFormat):
    """The row rule's result, for UTF-8 data with one record per '\\n' line; line 0 is the header.

    The C scan of _scan.c keeps the lines that hold the header's cell count, a
    strict YYYY-MM-DD date and plain decimal prices; every other line goes
    alone through the row rule.  Positions are byte offsets in data.
    """
    i64, pointer = ctypes.c_int64, ctypes.c_void_p
    scan = _native.load("_scan.c", "scan_ohlc", i64, (
        ctypes.c_char_p, i64, ctypes.c_char_p, i64, i64, i64, i64, i64, pointer, pointer,
        pointer))
    delimiter = fmt.delimiter.encode("utf-8", "surrogatepass")
    args = data, len(data), delimiter, len(delimiter), cells, *cols
    lines = scan(*args, None, None, None)
    rows = np.empty((lines, 4))
    bounds = np.empty((lines, 2), dtype=np.int64)
    left = i64()
    kept = scan(*args, rows.ctypes.data, bounds.ctypes.data, ctypes.byref(left))
    # with no '"' and no '\r', split cuts a line as csv.reader does (a blank
    # line gives [''], not [], and the row rule skips either)
    slow, dropped = _row_rule(
        ((start, data[start:end].decode("utf-8", "surrogatepass").split(fmt.delimiter))
         for start, end in bounds[:left.value].tolist()), cols, fmt)
    return np.concatenate([rows[:kept], slow]), dropped


def parse_ohlc(text, fmt: OhlcFormat | None = None, ticker: str = "") -> PriceSeries:
    """Parse one delimiter-separated OHLC text into a PriceSeries.

    text is a str, whose lines end at '\\n' as io.StringIO splits them, its
    UTF-8 bytes, or any iterable of lines, such as a text stream, whose lines
    end where it ends them.
    Rows with non-positive, non-finite or unparseable open/close (or an
    unparseable or duplicate date) are dropped and counted rather than
    failing the file.

    The route is chosen once per input.  A text with no '"' and no '\\r' (once
    '\\r\\n' is folded to '\\n') holds one record per line; with ISO-8601
    dates its UTF-8 bytes are scanned in bulk.  Everything else goes through
    csv.reader and the row rule, one record at a time.
    """
    fmt = fmt or OhlcFormat()
    if isinstance(text, bytes) and (b'"' in text or b"\r" in text
                                     or fmt.date_format is not None):
        text = text.decode("utf-8")  # csv.reader reads str
    if isinstance(text, str) and '"' not in text:
        if "\r" in text:
            text = text.replace("\r\n", "\n")  # each record still ends its line
        if "\r" not in text and fmt.date_format is None:
            text = text.encode("utf-8", "surrogatepass")
    bulk = isinstance(text, bytes)
    if bulk:  # the header is line 0
        lines = [text.partition(b"\n")[0].decode("utf-8", "surrogatepass")] if text else []
    else:
        lines = io.StringIO(text) if isinstance(text, str) else text
    records = csv.reader(lines, delimiter=fmt.delimiter)
    header = next(records, None)
    if header is None:
        raise EmptyInputError(f"{ticker or 'input'}: no header row")
    header = [h.strip() for h in header]
    try:
        cols = tuple(header.index(c) for c in (fmt.date_column, fmt.open_column,
                                               fmt.close_column))
    except ValueError as exc:
        raise FormatError(
            f"{ticker or 'input'}: header {header!r} is missing a mapped column "
            f"({fmt.date_column}/{fmt.open_column}/{fmt.close_column})"
        ) from exc
    if bulk:
        rows, dropped = _scan_rows(text, cols, len(header), fmt)
    else:
        rows, dropped = _row_rule(enumerate(records), cols, fmt)
    if not rows.size:
        raise EmptyInputError(f"{ticker or 'input'}: no valid OHLC rows")

    # File order among equal dates; keep the first, count the rest.
    order = np.lexsort((rows[:, 0], rows[:, 1]))
    days = rows[order, 1]
    keep = order[np.append(True, days[1:] != days[:-1])]
    dropped += int(rows.shape[0] - keep.size)
    days = (rows[keep, 1].astype(np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
    return PriceSeries(ticker=ticker, dates=days, open=rows[keep, 2], close=rows[keep, 3],
                       dropped=dropped)


def read_ohlc(path, fmt: OhlcFormat | None = None, ticker: str = "") -> PriceSeries:
    """Parse the bytes serialize.read_bytes reads from one OHLC file; a bad csv record
    is a FormatError."""
    try:
        return parse_ohlc(read_bytes(path), fmt, ticker=ticker)
    except csv.Error as exc:
        raise FormatError(f"{path}: {exc}") from exc


def binarize(series: list[PriceSeries]) -> SpinMatrix:
    """Align tickers on their common dates and binarize open-to-close moves.

    Entry is +1 when close >= open and -1 when close < open.  Any day missing
    from at least one ticker is dropped.
    """
    if not series:
        raise EmptyInputError("no price series to binarize")
    days = [s.dates.view(np.int64) for s in series]  # days since 1970, increasing
    first = max(d[0] for d in days)
    # how many tickers trade each day of the span they all cover; N on a common day
    counts = np.zeros(max(min(d[-1] for d in days) - first + 1, 0),
                      dtype=np.min_scalar_type(len(series)))
    spans = [slice(*np.searchsorted(d, [first, first + counts.size])) for d in days]
    for d, span in zip(days, spans):
        counts[d[span] - first] += 1
    common = np.flatnonzero(counts == len(series)) + first
    if not common.size:
        ranges = ", ".join(
            "{}: {}..{}".format(s.ticker, *np.datetime_as_string(s.dates[[0, -1]], unit="D"))
            for s in series
        )
        raise AlignmentError(f"no common dates across tickers ({ranges})")

    values = np.empty((common.size, len(series)), dtype=np.int8)
    for j, (s, d, span) in enumerate(zip(series, days, spans)):
        on = counts[d[span] - first] == len(series)  # the ticker's own rows on common days
        values[:, j] = np.where(s.close[span][on] >= s.open[span][on], 1, -1)
    return SpinMatrix(
        tickers=[s.ticker for s in series],
        dates=np.datetime_as_string(common.view("datetime64[D]"), unit="D").tolist(),
        values=values,
    )


def write_spin_csv(matrix: SpinMatrix, path) -> None:
    """Interchange format: header 'date,<tickers...>', one ±1 column per ticker.

    Each row's cell text ',1,-1...\\n' is cut from one ',-1' byte pattern per
    cell by the sign mask.  Written atomically (temp file + rename) like every
    other artifact.
    """
    t, n = matrix.values.shape
    cells = np.empty((t, 3 * n + 1), dtype=np.uint8)
    cells[:, :-1] = np.tile(np.frombuffer(b",-1", dtype=np.uint8), n)
    cells[:, -1] = ord("\n")
    keep = np.ones(cells.shape, dtype=bool)
    keep[:, 1::3] = matrix.values < 0  # the '-'
    rows = cells[keep].tobytes().decode("ascii").splitlines(keepends=True)
    parts = [",".join(["date", *matrix.tickers]) + "\n"] + [""] * (2 * t)
    parts[1::2], parts[2::2] = matrix.dates, rows
    atomic_write_text(path, "".join(parts))


def _scan_spins(body: bytes, n: int):
    """(dates, values) of a spin-file body of n cells a line, read by the C scan of
    _scan.c, or the index of its first line that is not a date and n cells of 1 or -1."""
    i64, pointer = ctypes.c_int64, ctypes.c_void_p
    scan = _native.load("_scan.c", "scan_spins", i64,
                        (ctypes.c_char_p, i64, i64, pointer, pointer, pointer))
    values = np.empty((scan(body, len(body), n, None, None, None), n), dtype=np.int8)
    dates = np.empty(len(body), dtype=np.uint8)
    used = i64()
    t = scan(body, len(body), n, values.ctypes.data, dates.ctypes.data, ctypes.byref(used))
    if t < 0:
        return -1 - t
    return dates[:used.value].tobytes().decode("utf-8").split(",")[:-1], values


def read_spin_csv(path) -> SpinMatrix:
    """Read a spin file (by serialize.read_bytes): exactly what write_spin_csv writes.

    Its body goes to the scan undecoded.  Blank lines at the end are ignored;
    any other body is a FormatError that names its first bad line.
    """
    data = read_bytes(path)
    if not data:
        raise EmptyInputError(f"{path}: empty spin file")
    header, _, body = data.partition(b"\n")
    header = header.decode("utf-8").split(",")
    if header[0] != "date" or len(header) < 2:
        raise FormatError(f"{path}: expected header 'date,<tickers...>'")
    if body.endswith(b"\n\n"):  # only then is there a copy to make
        body = body.rstrip(b"\n") + b"\n"
    if body in (b"", b"\n"):
        raise EmptyInputError(f"{path}: no spin rows")
    n = len(header) - 1
    spins = _scan_spins(body, n)
    if isinstance(spins, int):  # the header is line 1
        line = body.split(b"\n")[spins].decode("utf-8")
        raise FormatError(
            f"{path}: line {spins + 2} is not a date and {n} cells of 1 or -1: {line[:80]!r}")
    try:
        return SpinMatrix(tickers=header[1:], dates=spins[0], values=spins[1])
    except FormatError as exc:  # a name holding a character no spin file can
        raise FormatError(f"{path}: {exc}") from exc
