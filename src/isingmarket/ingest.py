"""OHLC parsing, date alignment and binarization into ±1 orientation matrices.

A day's orientation is +1 when the close is at or above the open, -1
otherwise.  Tickers are aligned on the strict intersection of their dates, so
no return is ever imputed.
"""

from __future__ import annotations

import csv
import io
import math
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
            for char in ',"\r\n\0':
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


# Code points less ord("0"), wrapped around in uint32: digits are 0..9.
_ZERO = np.uint32(ord("0"))
_DASH = np.uint32((ord("-") - ord("0")) % 2**32)
_DOT = np.uint32((ord(".") - ord("0")) % 2**32)
# A price cell is converted in bulk when it is at most 16 ASCII digits and
# '.'s, one '.' at most.  Then its digits form an integer that int64 holds
# exactly; with a '.' it has 15 digits at most, so it is below 2**53 and so is
# the power of ten it is divided by.  Either way the result is rounded once,
# to the nearest double, exactly as float() rounds.
_MAX_CHARS = 16
_POW10 = 10 ** np.arange(_MAX_CHARS, dtype=np.int64)
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # datetime64[D] counts days from here


def _iso_days(codes: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Cells that are strict YYYY-MM-DD calendar dates, as datetime64[D].

    Returns (days, ok); ok is False where a cell is anything else.
    """
    c = (codes[np.minimum(start + np.arange(10)[:, None], codes.size - 1)]
         - _ZERO).astype(np.int64)
    ok = ((end - start == 10) & (c[[0, 1, 2, 3, 5, 6, 8, 9]] < 10).all(axis=0)
          & (c[4] == _DASH) & (c[7] == _DASH))
    year = ((c[0] * 10 + c[1]) * 10 + c[2]) * 10 + c[3]
    month = c[5] * 10 + c[6]
    day = c[8] * 10 + c[9]
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + np.where(ok, day - 1, 0)
    ok &= days.astype("datetime64[M]") == months  # a day past the month's end rolls over
    return days, ok


def _decimals(codes: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Cells of at most 16 ASCII digits with at most one '.', as float64.

    Returns (values, ok); ok is False where a cell is anything else.  The
    cells are read right-aligned, a column at a time; columns left of a
    cell read the character before it and count nothing.
    """
    length = end - start
    width = int(min(length.max(initial=0), _MAX_CHARS))
    before = start - 1
    mantissa = digits = dots = lead = np.zeros(start.size, dtype=np.int64)
    for j in range(width, 0, -1):
        c = codes[np.maximum(end - j, before)] - _ZERO
        inside = end - j > before  # else a '.' or digit delimiter would count
        digit = inside & (c < 10)
        dot = inside & (c == _DOT)
        mantissa = np.where(digit, mantissa * 10 + c, mantissa)
        lead = np.where(dot, digits, lead)  # digits ahead of the '.'
        digits = digits + digit
        dots = dots + dot
    ok = (digits + dots == length) & (dots <= 1) & (digits >= 1)
    return mantissa / _POW10[np.where(ok & (dots == 1), digits - lead, 0)], ok


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


def _bulk_rows(text: str, cols: tuple[int, int, int], cells: int, fmt: OhlcFormat):
    """The row rule's result, computed in bulk, for text with one record per '\\n' line.

    Line 0 is the header.  The lines with the header's cell count are
    tokenized and converted in bulk, on the text's code points; a line whose
    cells the bulk rules reject goes alone through the row rule.
    """
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    breaks = np.flatnonzero(codes == ord("\n"))
    starts, ends = breaks + 1, np.append(breaks[1:], codes.size)  # lines 1, 2, ...
    delims = np.flatnonzero(codes == ord(fmt.delimiter))
    before = np.searchsorted(delims, starts)  # delimiters ahead of each line
    at = np.flatnonzero(np.searchsorted(delims, ends) - before == cells - 1)

    def column(j: int):
        start = starts[at] if j == 0 else delims[before[at] + j - 1] + 1
        end = ends[at] if j == cells - 1 else delims[before[at] + j]
        return start, end

    i_date, i_open, i_close = cols
    days, ok = _iso_days(codes, *column(i_date))
    opens, ok_open = _decimals(codes, *column(i_open))
    closes, ok_close = _decimals(codes, *column(i_close))
    ok &= ok_open & ok_close & (opens > 0.0) & (closes > 0.0)
    rejected = np.ones(starts.size, dtype=bool)
    rejected[at[ok]] = False
    bounds = zip(starts[rejected].tolist(), ends[rejected].tolist())
    # with no '"' and no '\r', split cuts a line as csv.reader does (a blank
    # line gives [''], not [], and the row rule skips either)
    slow, dropped = _row_rule(((start, text[start:end].split(fmt.delimiter))
                               for start, end in bounds), cols, fmt)
    fast = np.column_stack([starts[at[ok]], days[ok].astype(np.int64) + _EPOCH_ORDINAL,
                            opens[ok], closes[ok]])
    return np.concatenate([fast, slow]), dropped


def parse_ohlc(text, fmt: OhlcFormat | None = None, ticker: str = "") -> PriceSeries:
    """Parse one delimiter-separated OHLC text into a PriceSeries.

    text is a str, whose lines end at '\\n' as io.StringIO splits them, or any
    iterable of lines, such as a text stream, whose lines end where it ends them.
    Rows with non-positive, non-finite or unparseable open/close (or an
    unparseable or duplicate date) are dropped and counted rather than
    failing the file.

    The route is chosen once per input.  A str with no '"' and no '\\r' (once
    '\\r\\n' is folded to '\\n') holds one record per line; with ISO-8601
    dates its lines are parsed in bulk.  Everything else goes through
    csv.reader and the row rule, one record at a time.
    """
    fmt = fmt or OhlcFormat()
    unquoted = isinstance(text, str) and '"' not in text
    if unquoted and "\r" in text:
        text = text.replace("\r\n", "\n")  # each record still ends its line
    bulk = unquoted and "\r" not in text and fmt.date_format is None
    if bulk:  # the header is line 0
        lines = [text.partition("\n")[0]] if text else []
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
        rows, dropped = _bulk_rows(text, cols, len(header), fmt)
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


def binarize(series: list[PriceSeries]) -> SpinMatrix:
    """Align tickers on their common dates and binarize open-to-close moves.

    Entry is +1 when close >= open and -1 when close < open.  Any day missing
    from at least one ticker is dropped.
    """
    if not series:
        raise EmptyInputError("no price series to binarize")
    common = series[0].dates.view(np.int64)  # numpy sorts int64 faster than datetime64
    for s in series[1:]:
        common = np.intersect1d(common, s.dates.view(np.int64), assume_unique=True)
    common = common.view("datetime64[D]")
    if not common.size:
        ranges = ", ".join(
            "{}: {}..{}".format(s.ticker, *np.datetime_as_string(s.dates[[0, -1]], unit="D"))
            for s in series
        )
        raise AlignmentError(f"no common dates across tickers ({ranges})")

    values = np.empty((common.size, len(series)), dtype=np.int8)
    for j, s in enumerate(series):
        i = np.searchsorted(s.dates, common)
        values[:, j] = np.where(s.close[i] >= s.open[i], 1, -1)
    return SpinMatrix(
        tickers=[s.ticker for s in series],
        dates=np.datetime_as_string(common, unit="D").tolist(),
        values=values,
    )


def write_spin_csv(matrix: SpinMatrix, path) -> None:
    """Interchange format: header 'date,<tickers...>', one ±1 column per ticker.

    Each row's cell text ',1,-1...\\n' is cut from one ',-1' byte pattern per
    cell by the sign mask.  Written atomically (temp file + rename) like every
    other artifact.
    """
    from .serialize import atomic_write_text

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


_NEWLINE, _COMMA, _DASH_BYTE, _ONE = (ord(c) for c in "\n,-1")


def _plain_spins(body: str, n: int):
    """(dates, values) of a plain spin-file body, or None if the body is not plain.

    Plain: no '"' and no NUL, and every line a date and then n cells that are
    each exactly '1' or '-1' (so no line is blank).  Such a body is read from
    the UTF-8 bytes just ahead of each ',' or '\\n', gathered at one offset per
    field; those two bytes occur inside no multi-byte character.  The date is
    the text before a line's first ','.
    """
    if '"' in body or "\0" in body:
        return None
    if not body.endswith("\n"):
        body += "\n"
    b = np.frombuffer(b"\0\0\0" + body.encode("utf-8"), dtype=np.uint8)  # 3 bytes ahead
    text = b[3:]
    stop = text == _NEWLINE
    stop |= text == _COMMA
    stops = np.flatnonzero(stop)  # one offset per field: the only int64 array
    del stop  # the dels keep the peak near the body's bytes and those offsets
    t = body.count("\n")
    if stops.size != t * (n + 1):
        return None
    # Row r of fields holds line r's if every line has n + 1 fields.  If one has
    # not, a line's first field, which follows a '\n', falls among the cells,
    # and the cell check below rejects it.
    fields = stops.reshape(t, n + 1)
    runs = np.column_stack([fields[:, 0] + 1, fields[:, -1] - fields[:, 0]])
    runs[1:, 0] -= fields[:-1, -1] + 1  # per line: its date and ',', then the rest
    # the 1, 2 and 3 bytes ahead of each cell's end
    last, second, third = (b[shift:][stops].reshape(t, n + 1)[:, 1:] for shift in (2, 1, 0))
    del stops, fields
    negative = second == _DASH_BYTE
    cells_ok = third == _COMMA  # '-1' is ',-1'; '1' is ',1'
    cells_ok &= negative
    cells_ok |= second == _COMMA
    cells_ok &= last == _ONE
    if not cells_ok.all():
        return None
    del last, second, third, cells_ok
    kept = np.repeat(np.tile([True, False], t), runs.ravel())
    dates = text[kept].tobytes().decode("utf-8").split(",")[:-1]
    return dates, np.where(negative, np.int8(-1), np.int8(1))


def _first_bad_line(lines: list[str], n: int) -> int:
    """Index of the first line that is not plain on its own, among the lines of
    a body that is not plain, split at '\\n'.  A run of lines is plain iff each
    line is, so bisection finds it in about two passes over the text.  Each run
    is checked with a '\\n' after its last line, so a blank last line counts."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _plain_spins("\n".join(lines[lo:mid]) + "\n", n) is None:
            hi = mid
        else:
            lo = mid
    return lo


def read_spin_csv(path) -> SpinMatrix:
    """Read a spin file: exactly what write_spin_csv writes (see _plain_spins).

    Blank lines at the end are ignored; any other body is a FormatError that
    names its first bad line.
    """
    with open(path) as handle:
        header, body = handle.readline(), handle.read()
    if not header:
        raise EmptyInputError(f"{path}: empty spin file")
    header = header.removesuffix("\n").split(",")
    if header[0] != "date" or len(header) < 2:
        raise FormatError(f"{path}: expected header 'date,<tickers...>'")
    if body.endswith("\n\n"):  # only then is there a copy to make
        body = body.rstrip("\n") + "\n"
    if body in ("", "\n"):
        raise EmptyInputError(f"{path}: no spin rows")
    n = len(header) - 1
    spins = _plain_spins(body, n)
    if spins is None:  # the header is line 1
        lines = body.split("\n")
        k = _first_bad_line(lines, n)
        raise FormatError(
            f"{path}: line {k + 2} is not a date and {n} cells of 1 or -1: {lines[k][:80]!r}")
    try:
        return SpinMatrix(tickers=header[1:], dates=spins[0], values=spins[1])
    except FormatError as exc:  # a name holding a character no spin file can
        raise FormatError(f"{path}: {exc}") from exc
