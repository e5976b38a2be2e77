import importlib.util
import io
import math
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    _plain_spins,
    numpy_parse_ohlc,
    numpy_read_spin_csv,
    reference_binarize,
    reference_first_bad_line,
    reference_loadtxt_spins,
    reference_parse_ohlc,
    reference_write_spin_csv,
)
from conftest import scanned_first_bad_line as _first_bad_line
from hypothesis import given, settings
from hypothesis import strategies as st

from isingmarket import OhlcFormat, SpinMatrix, binarize, ingest, parse_ohlc
from isingmarket.errors import AlignmentError, EmptyInputError, FormatError
from isingmarket.ingest import read_spin_csv, write_spin_csv

HEADER = "Date,Open,High,Low,Close,Volume"


def series(ticker, rows):
    text = HEADER + "\n" + "\n".join(rows)
    return parse_ohlc(text, ticker=ticker)


def test_parse_basic_row():
    s = series("x", ["2020-01-02,10.0,11,9,10.5,100"])
    assert s.rows == [(date(2020, 1, 2), 10.0, 10.5)]
    assert s.dropped == 0


def test_parse_drops_nonpositive_open():
    s = series("x", ["2020-01-02,0.0,11,9,10.5,100", "2020-01-03,10,11,9,9,100"])
    assert len(s.rows) == 1
    assert s.dropped == 1


def test_parse_drops_non_finite_prices():
    for bad in ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"]:
        for row in [f"2020-01-02,{bad},11,9,5,100", f"2020-01-02,5,11,9,{bad},100"]:
            s = series("x", [row, "2020-01-03,10,11,9,9,100"])
            assert s.rows == [(date(2020, 1, 3), 10.0, 9.0)], row
            assert s.dropped == 1, row


def test_parse_deterministic():
    rows = ["2020-01-02,10,11,9,10.5,100", "2020-01-03,9,11,9,8,100"]
    assert series("a", rows) == series("a", rows)


def test_parse_sorts_by_date():
    s = series("x", ["2020-01-03,9,11,9,8,100", "2020-01-02,10,11,9,10.5,100"])
    assert [r[0].isoformat() for r in s.rows] == ["2020-01-02", "2020-01-03"]


def test_parse_duplicate_date_keeps_first():
    s = series("x", ["2020-01-02,10,11,9,10.5,100", "2020-01-02,7,8,6,7.5,100"])
    assert len(s.rows) == 1
    assert s.rows[0][1] == 10.0
    assert s.dropped == 1


def test_parse_missing_column_is_format_error():
    with pytest.raises(FormatError):
        parse_ohlc("Date,High,Low\n2020-01-02,11,9")


def test_parse_all_rows_bad_is_empty_error():
    with pytest.raises(EmptyInputError):
        series("x", ["2020-01-02,-1,11,9,10.5,100"])


def test_parse_custom_format():
    fmt = OhlcFormat(delimiter=";", date_column="day", open_column="o",
                     close_column="c", date_format="%d/%m/%Y")
    s = parse_ohlc("day;o;c\n02/01/2020;10;11", fmt, ticker="t")
    assert s.rows[0][0].isoformat() == "2020-01-02"


def test_binarize_tie_goes_up():
    # close == open counts as an up day
    m = binarize([series("a", ["2020-01-02,10,11,9,10,100"]),
                  series("b", ["2020-01-02,10,11,9,9.99,100"])])
    assert m.values.tolist() == [[1, -1]]


def test_binarize_intersection():
    a = series("a", ["2020-01-02,1,2,1,2,0", "2020-01-03,1,2,1,2,0"])
    b = series("b", ["2020-01-03,1,2,1,0.5,0", "2020-01-06,1,2,1,2,0"])
    m = binarize([a, b])
    assert m.dates == ["2020-01-03"]
    assert m.values.tolist() == [[1, -1]]


def test_binarize_empty_intersection_lists_ranges():
    a = series("a", ["2020-01-02,1,2,1,2,0"])
    b = series("b", ["2020-01-03,1,2,1,2,0"])
    with pytest.raises(AlignmentError, match="a: 2020-01-02"):
        binarize([a, b])


def test_binarize_entries_and_shape(rng):
    days = [f"2020-02-{d:02d}" for d in range(1, 21)]
    tickers = []
    for t in range(5):
        rows = [f"{d},{o},{o + 1},{o - 1},{c},0"
                for d, o, c in zip(days, rng.uniform(5, 15, 20), rng.uniform(5, 15, 20))]
        tickers.append(series(f"t{t}", rows))
    m = binarize(tickers)
    assert m.values.shape == (20, 5)
    assert set(np.unique(m.values)) <= {-1, 1}


def test_binarize_permutation_equivariant(rng):
    days = [f"2020-02-{d:02d}" for d in range(1, 11)]
    all_series = []
    for t in range(4):
        rows = [f"{d},{o},{o + 1},{o - 1},{c},0"
                for d, o, c in zip(days, rng.uniform(5, 15, 10), rng.uniform(5, 15, 10))]
        all_series.append(series(f"t{t}", rows))
    m = binarize(all_series)
    perm = [2, 0, 3, 1]
    m_perm = binarize([all_series[i] for i in perm])
    assert m_perm.tickers == [m.tickers[i] for i in perm]
    assert np.array_equal(m_perm.values, m.values[:, perm])


def test_spin_matrix_rejects_non_pm_one():
    with pytest.raises(FormatError):
        SpinMatrix(tickers=["a"], dates=["d"], values=np.array([[2]]))


def test_spin_matrix_checks_values_before_the_int8_cast():
    # cast first, 257 and 1.5 would read as +1 and 255 as -1; a Python 257 would overflow
    for values, shown in [([[1, 257]], "257"), (np.array([[1, 257]]), "257"),
                          (np.array([[1, 255]]), "255"), (np.array([[1.0, 1.5]]), "1.5"),
                          (np.array([[1.0, np.nan]]), "nan")]:
        with pytest.raises(FormatError, match=f"spin entry at row 0, column 1 is {shown},"):
            SpinMatrix(tickers=["a", "b"], dates=["d"], values=values)
    for values, stored in [([[1, -1]], [[1, -1]]), (np.array([[1, -1]], np.int8), [[1, -1]]),
                           (np.array([[1.0, -1.0]]), [[1, -1]]),
                           (np.array([[True, True]]), [[1, 1]])]:
        matrix = SpinMatrix(tickers=["a", "b"], dates=["d"], values=values)
        assert matrix.values.dtype == np.int8 and matrix.values.tolist() == stored


@pytest.mark.parametrize("make, error, message", [
    (lambda: SpinMatrix(tickers=[], dates=[], values=np.ones((0, 0))), FormatError, "one row"),
    (lambda: SpinMatrix(tickers=["a"], dates=["d"], values=np.ones((1, 2))), FormatError,
     "tickers"),
    (lambda: SpinMatrix(tickers=["a"], dates=["d", "e"], values=np.ones((1, 1))), FormatError,
     "dates"),
    (lambda: binarize([]), EmptyInputError, "no price series"),
    (lambda: SpinMatrix(tickers=["a,b"], dates=["d"], values=np.ones((1, 1))), FormatError,
     "'a,b' holds ','"),
    (lambda: SpinMatrix(tickers=["a"], dates=["d", "e\nf"], values=np.ones((2, 1))),
     FormatError, "which a spin file cannot hold"),
])
def test_malformed_spin_matrices_raise(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("tickers, dates", [(["a\udcff"], ["d"]), (["a"], ["\udcffd"])])
def test_a_name_with_a_lone_surrogate_is_a_format_error(tickers, dates):
    # a file name that is not UTF-8 decodes to one, and no UTF-8 file can hold it
    with pytest.raises(FormatError, match=r"holds '\\udcff', which a spin file cannot hold"):
        SpinMatrix(tickers=tickers, dates=dates, values=np.ones((1, 1)))


def test_spin_csv_round_trip(tmp_path, rng):
    m = SpinMatrix(
        tickers=["aa", "bb", "cc"],
        dates=[f"2020-03-{d:02d}" for d in range(1, 8)],
        values=rng.integers(0, 2, size=(7, 3)) * 2 - 1,
    )
    path = tmp_path / "spins.csv"
    write_spin_csv(m, path)
    back = read_spin_csv(path)
    assert back.tickers == m.tickers
    assert back.dates == m.dates
    assert np.array_equal(back.values, m.values)


def test_read_spin_csv_rejects_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a\nd1,3\n")
    with pytest.raises(FormatError):
        read_spin_csv(path)
    for text, error in [
        ("", EmptyInputError),
        ("date,a,b\n", EmptyInputError),  # header only
        ("date,a,b\n\n\n", EmptyInputError),
        ("date,a,b\nd1,1,x\n", FormatError),
        ("date,a,b\nd1,1,1.0\n", FormatError),
        ("date,a,b\nd1,1,\n", FormatError),
        ("date,a,b\nd1,1,#1\n", FormatError),
        ("date,a,b\nd1,1,-2\n", FormatError),
        ("date,a,b\nd1,1,255\n", FormatError),
        ("date,a,b\nd1,1,99999999999999999999\n", FormatError),
        ("date,a,b\nd1,1,1,1\n", FormatError),  # an extra cell
        ("date,a,b\nd1,1,1\nd2,1,1,-1\n", FormatError),  # an extra cell, later row
        ("date,a,b\nd1,1,1\nd2,1\n", FormatError),  # a missing cell
        ("date,a,b\nd1,1,1\n  \n", FormatError),
        ("day,a,b\nd1,1,1\n", FormatError),
        ('date,a,b\nd1,"1",-1\n', FormatError),
        ("date,a,b\nd1, 1,-1\n", FormatError),
        ("date,a,b\nd1,+1,-1\n", FormatError),
        ('date,"a",b\nd1,1,-1\n', FormatError),
    ]:
        path.write_text(text)
        with pytest.raises(error):
            read_spin_csv(path)
    path.write_text("date,a,b\nd1,1,-1\n\nd2,-1,1\n")  # a blank line between two rows
    with pytest.raises(FormatError, match="line 3"):
        read_spin_csv(path)


def test_read_spin_csv_still_loads_end_blank_lines_crlf_and_non_ascii_dates(tmp_path):
    path = tmp_path / "spins.csv"
    for body in ["d1,1,-1\n\n\n", "d1,1,-1", "d1,1,-1\r\nd2,-1,1\r\n", "2020-é,1,-1\n"]:
        path.write_bytes(("date,a,b\n" + body).encode())
        matrix = read_spin_csv(path)
        assert matrix.tickers == ["a", "b"] and matrix.values[0].tolist() == [1, -1], body


NAMES = st.text(alphabet=["é", " ", "\t", "-", *"0123456789", *"abcxyzABCXYZ"], max_size=8)


@st.composite
def spin_matrices(draw):
    t, n = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    values = draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
                           min_size=t, max_size=t))
    return SpinMatrix(tickers=draw(st.lists(NAMES, min_size=n, max_size=n)),
                      dates=draw(st.lists(NAMES, min_size=t, max_size=t)), values=values)


@settings(max_examples=200, deadline=None)
@given(spin_matrices())
def test_every_spin_matrix_round_trips_through_its_file(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("spins") / "spins.csv"
    write_spin_csv(matrix, path)
    back = read_spin_csv(path)
    assert back.tickers == matrix.tickers
    assert back.dates == matrix.dates
    assert np.array_equal(back.values, matrix.values)


# "\0" too: loadtxt drops a date's trailing NUL, so a NUL is not plain
SPIN_ALPHABET = ["d", "1", "-", "0", "+", ",", " ", '"', "\n", "é", "\0"]
SPIN_CELLS = ["1", "-1", "0", "-0", "+1", " 1", "1 ", "", "-", "11", "--1", '"1"', "é"]


@st.composite
def spin_bodies(draw):
    """(body, cells per line): free text, or lines of a date and mostly ±1 cells."""
    width = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return draw(st.text(alphabet=SPIN_ALPHABET, max_size=40)), width
    date = st.text(alphabet=[c for c in SPIN_ALPHABET if c not in ",\n"], max_size=4)
    if draw(st.integers(0, 2)):  # mostly well-formed cells, so that the plain route runs
        cells = st.lists(st.sampled_from(["1", "-1"]), min_size=width, max_size=width)
    else:
        cells = st.lists(st.sampled_from(SPIN_CELLS), min_size=max(width - 1, 1),
                         max_size=width + 1)
    lines = draw(st.lists(st.tuples(date, cells), min_size=1, max_size=4))
    ending = draw(st.sampled_from(["\n", "", "\n\n"]))
    return "\n".join(d + "," + ",".join(row) for d, row in lines) + ending, width


@settings(max_examples=400, deadline=None)
@given(spin_bodies())
def test_plain_spin_route_declines_or_matches_loadtxt(case):
    body, width = case
    plain = _plain_spins(body, width)
    if plain is not None:
        dates, values = reference_loadtxt_spins(body, width + 1, "body")
        assert plain[0] == dates
        assert np.array_equal(plain[1], values)


@settings(max_examples=400, deadline=None)
@given(spin_bodies(), st.integers(0, 5))
def test_first_bad_line_matches_the_per_line_scan(case, blank):
    body, width = case
    lines = body.split("\n")
    for body in (body, "\n".join([*lines[:blank], "", *lines[blank:]])):  # and a blank line
        if _plain_spins(body, width) is None:
            assert _first_bad_line(body.split("\n"), width) == reference_first_bad_line(body, width)


def test_write_spin_csv_matches_reference_bytes(tmp_path):
    rng = np.random.default_rng(11)
    cases = [(["1"], 1), (["-1"], 1), (["-1", "1", "", "d 1"], 3), (["2020-01-02"], 7),
             ([f"t{k}" for k in range(50)], 1), ([f"2001-{k:04d}" for k in range(300)], 12)]
    for dates, n in cases:
        matrix = SpinMatrix(tickers=[f"x{i}" for i in range(n)], dates=dates,
                            values=rng.choice([-1, 1], size=(len(dates), n)))
        write_spin_csv(matrix, tmp_path / "spins.csv")
        reference_write_spin_csv(matrix, tmp_path / "reference.csv")
        written = (tmp_path / "spins.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert _plain_spins(written.decode().partition("\n")[2], n) is not None
        back = read_spin_csv(tmp_path / "spins.csv")
        assert back.dates == dates and np.array_equal(back.values, matrix.values)


# Cells for the differential test against the per-row oracle in conftest.
GRID_DATES = ["2020-01-02", "2020-01-03", "2020-01-06", "2020-01-07", "2020-01-08",
              " 2020-01-03 ", "20200106", "2020-1-07", "2001-02-29", "2000-02-29",
              "0000-01-01", "2001-13-45", "2020-01-32", "2020-04-31", "9999-12-31",
              "0001-01-01", "٢٠٢٠-٠١-٠٢", "", "n/a"]
GRID_PRICES = ["10", "10.5", " 10.5 ", "10.5 ", "1e3", "1_000", "+5", ".5", "5.", "0", "0.000",
               "-1.5", "n/a", "", ".", "1.2.3", "١٢", "５",
               "123456789012345", "12345678901234.5", "1234567890123456",
               "98488.48678235767", "9007199254740993",
               "0000000000000001.5", "9.999999999999999", "0.1", "3.14159", "7",
               "nan", "inf", "-inf", "NaN", "1e999"]


def _finite_or_bad(cell):
    """The cell the oracle gets: non-finite prices, which it keeps, become unparseable."""
    try:
        return cell if math.isfinite(float(cell)) else "x"
    except ValueError:
        return cell


def _grid_row(rng, delimiter):
    """One record as (new text, oracle text), in one of several shapes."""
    def pick(pool, good):  # mostly well-formed cells, so that the bulk path runs
        return str(rng.choice(pool[:good] if rng.random() < 0.7 else pool))

    cells = [pick(GRID_DATES, 5), pick(GRID_PRICES, 2), "11", "9", pick(GRID_PRICES, 2), "100"]
    shape = rng.integers(0, 12)
    if shape == 0:
        cells = cells[:int(rng.integers(1, 5))]  # short row
    elif shape == 1:
        cells = cells + ["x", ""]  # long row
    elif shape == 2:
        cells[int(rng.integers(0, 6))] = ""  # empty cell
    quoted = rng.random(6) < (0.5 if shape == 3 else 0.0)

    def text(price):
        out = [price(c) if i in (1, 4) else c for i, c in enumerate(cells)]
        return delimiter.join(f'"{c}"' if q else c for c, q in zip(out, quoted))

    if shape == 4:
        return "", ""  # blank line
    if shape == 5:
        return "   ", "   "
    return text(lambda c: c), text(_finite_or_bad)


def _grid_files(rng):
    """(name, new text, oracle text, fmt) for the differential test."""
    files = []
    for k in range(240):
        delimiter = ";" if k % 8 == 7 else ","
        fmt = OhlcFormat(delimiter=delimiter) if delimiter == ";" else None
        header = delimiter.join(["Date", "Open", "High", "Low", "Close", "Volume"])
        if k % 5 == 1:
            header = '"Date","Open",High,Low,"Close",Volume'.replace(",", delimiter)
        if k % 5 == 2:
            header = header.replace("Open", " Open ")
        rows = [_grid_row(rng, delimiter) for _ in range(int(rng.integers(1, 16)))]
        ending = "\r\n" if k % 6 == 3 else "\n"
        tail = ending if rng.random() < 0.7 else ""
        new = ending.join([header] + [r[0] for r in rows]) + tail
        ref = ending.join([header] + [r[1] for r in rows]) + tail
        files.append((f"g{k}", new, ref, fmt))

    # Each edge cell once in an otherwise well-formed row.
    days = np.datetime_as_string(np.datetime64("2020-02-01") + np.arange(2 * len(GRID_PRICES)))

    def edges(price):
        rows = [f"{days[2 * k]},{price(p)},11,9,10,100\n{days[2 * k + 1]},10,11,9,{price(p)},100"
                for k, p in enumerate(GRID_PRICES)]
        rows += [f"{d},10,11,9,{9 + k},100" for k, d in enumerate(GRID_DATES)]
        return HEADER + "\n" + "\n".join(rows)

    files.append(("edges", edges(lambda p: p), edges(_finite_or_bad), None))

    # Duplicate dates, one copy on the bulk path and one on the row path.
    for k, (first, second) in enumerate([
        ("2020-01-02,10,11,9,12,100", '2020-01-02,"10",11,9,8,100'),
        ('2020-01-02,"10",11,9,12,100', "2020-01-02,10,11,9,8,100"),
        ("2020-01-02,10,11,9,12,100", "2020-01-02,1e1,11,9,8,100"),
        ("2020-01-02,1e1,11,9,12,100", "2020-01-02,10,11,9,8,100"),
        ("2020-01-02,nan,11,9,12,100", "2020-01-02,10,11,9,8,100"),
        ("20200102,10,11,9,12,100", "2020-01-02,10,11,9,8,100"),
    ]):
        text = "\n".join([HEADER, "2020-01-03,1,2,3,4,5", first, second, "2020-01-01,5,6,4,5,1"])
        files.append((f"dup{k}", text, text.replace("nan", "x"), None))

    # Records with a quoted line break, one spanning a line that looks plain.
    for k, body in enumerate([
        '2020-01-02,"10\n",11,9,10.5,100\n2020-01-03,10,11,9,9,100',
        '2020-01-02,10,"note\n2020-01-04,1,2,3,4,5\nend",9,10.5,100\n2020-01-03,10,11,9,9,100',
        '2020-01-02,10,11,9,10.5,"1\n"\n2020-01-02,9,11,9,12,100\n2020-01-03,10,11,9,9,100',
    ]):
        files.append((f"multi{k}", HEADER + "\n" + body, HEADER + "\n" + body, None))
    text = 'Date,Open,Close,"note\n2020-01-02,5,6,7\nend"\n2020-01-03,10,9,1\n'
    files.append(("multi-header", text, text, None))

    # A '.' delimiter: prices are whole numbers, and a '.' next to a cell is no decimal point.
    text = "Date.Open.Close\n2020-01-02.10.90\n2020-01-03.100.700\n2020-01-06.8.1000\n"
    files.append(("dots", text, text, OhlcFormat(delimiter=".")))
    # The delimiter ahead of a short cell is neither a decimal point nor a digit.
    text = "Date.Open.Close\n2020-01-02.-1.500\n2020-01-03.100.500\n"
    files.append(("dot-ahead", text, text, OhlcFormat(delimiter=".")))
    text = "Date1Open1Close\n2020-02-0212x1500\n2020-02-03170015\n"
    files.append(("digit-ahead", text, text, OhlcFormat(delimiter="1")))

    # Where the route changes: no rows, blank lines, and one quote or lone '\r'
    # in an otherwise plain file.
    row = "2020-01-02,10,11,9,10.5,100"
    for k, text in enumerate([
        "", "\n", HEADER, HEADER + "\n", HEADER + "\n\n\n", "\n" + HEADER + "\n" + row + "\n",
        f'{HEADER}\n{row}\n2020-01-03,10,11,9,"9",100\n2020-01-06,9,11,9,8,100\n',
        f'{HEADER}\r\n{row}\r\n2020-01-03,10,11,9,"9",100\r\n2020-01-06,9,11,9,8,100\r\n',
        f'{HEADER}\r\n{row}\r\n2020-01-03,10,11,9,9,"1\r\n00"\r\n2020-01-06,9,11,9,8,100\r\n',
        f"{HEADER}\n{row}\n2020-01-03,10,1\r1,9,9,100\n2020-01-06,9,11,9,8,100\n",
    ]):
        files.append((f"route{k}", text, text, None))

    # A custom delimiter together with a date format.
    fmt = OhlcFormat(delimiter="|", date_column="day", open_column="o", close_column="c",
                     date_format="%d/%m/%Y")
    days = ["02/01/2020", "03/01/2020", "2/1/2020", "31/02/2020", " 06/01/2020", "2020-01-07",
            "07/01/2020", ""]
    for k in range(12):
        rows = [(str(rng.choice(days)), *map(str, rng.choice(GRID_PRICES, 2)))
                for _ in range(int(rng.integers(1, 12)))]

        def text(price):
            return "\n".join(["day|o|x|c"] + [f"{d}|{price(o)}|1|{price(c)}" for d, o, c in rows])

        files.append((f"fmt{k}", text(lambda p: p), text(_finite_or_bad), fmt))

    # A date format that reads ISO-8601-looking dates another way.
    for k in range(4):
        rows = [_grid_row(rng, ",") for _ in range(int(rng.integers(1, 12)))]
        new, ref = ("\n".join([HEADER] + [row[j] for row in rows]) for j in (0, 1))
        files.append((f"ydm{k}", new, ref, OhlcFormat(date_format="%Y-%d-%m")))
    return files


def _generator():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def _outcome(parse, text, fmt, ticker):
    """The parsed series, or the type and message of the error the parse raised."""
    try:
        return parse(text, fmt, ticker=ticker)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_outcome(new, ref, name):
    if isinstance(ref, tuple):
        assert new == ref, name
    else:
        assert new.rows == ref.rows and new.dropped == ref.dropped, name
        assert new.dates.dtype == np.dtype("datetime64[D]"), name


# The kinds of input parse_ohlc takes besides a str: streams split as io.StringIO
# splits them, split at any line ending (as a file opened with newline="" is),
# the same with '\r' alone ending each line, and a list of lines without endings.
INPUT_SHAPES = {
    "stream": io.StringIO,
    "newline-stream": lambda text: io.StringIO(text, newline=""),
    "cr-stream": lambda text: io.StringIO(
        text.replace("\r\n", "\n").replace("\n", "\r"), newline=""),
    "bare-lines": lambda text: text.split("\n"),
}


def test_parse_and_binarize_match_reference():
    rng = np.random.default_rng(2024)
    files = _grid_files(rng)
    gen = _generator()
    for seed in (3, 77, 12):
        market = gen.generate_market(seed, n_tickers=4, n_days=300)
        files += [(t, market.files[t], market.files[t], None) for t in market.tickers]

    parsed = []
    for name, new_text, ref_text, fmt in files:
        new = _outcome(parse_ohlc, new_text, fmt, name)
        ref = _outcome(reference_parse_ohlc, ref_text, fmt, name)
        _assert_same_outcome(new, ref, name)
        for shape, make in INPUT_SHAPES.items():
            _assert_same_outcome(_outcome(parse_ohlc, make(new_text), fmt, name),
                                 _outcome(reference_parse_ohlc, make(ref_text), fmt, name),
                                 f"{name} {shape}")
        if not isinstance(ref, tuple):
            parsed.append((new, ref))

    assert len(parsed) > 150
    for k in range(0, len(parsed) - 2, 2):
        group = parsed[k:k + 3]
        try:
            expected = reference_binarize([ref for _, ref in group])
        except AlignmentError as exc:
            with pytest.raises(AlignmentError) as caught:
                binarize([new for new, _ in group])
            assert str(caught.value) == str(exc)
            continue
        got = binarize([new for new, _ in group])
        assert got.tickers == expected.tickers and got.dates == expected.dates
        assert np.array_equal(got.values, expected.values)


def test_parse_line_break_inside_a_line_matches_reference():
    # A str's lines end at '\n' only, as for io.StringIO, and a list's lines
    # end where its items do: a lone '\r' inside a str's line, or a '\n'
    # inside an item, gives both parsers the same outcome.
    texts = [HEADER + "\n" + row + "\n"
             for row in ["2020-01-02,10,11,9,10.5,100\r2020-01-03,10,11,9,9,100",
                         "2020-01-02,10,1\r1,9,10.5,100"]]
    texts += [[HEADER, "2020-01-02,10,11,9,10.5,1\n00", "2020-01-03,10,11,9,9,100"],
              [HEADER, "2020-01-02,10,11,9,10.5,1\r00", "2020-01-03,10,11,9,9,100"]]
    for text in texts:
        ref = _outcome(reference_parse_ohlc, text, None, "x")
        assert isinstance(ref, tuple)
        assert _outcome(parse_ohlc, text, None, "x") == ref


def test_parse_cr_file_and_line_list_match_reference(tmp_path):
    market = _generator().generate_market(5, n_tickers=2, n_days=200)
    for ticker in market.tickers:
        lines = market.files[ticker].split("\n")
        lines[1::5] = [f'"{line[:10]}"{line[10:]}' for line in lines[1::5]]  # quoted dates too
        text = "\n".join(lines)
        path = tmp_path / f"{ticker}.csv"
        path.write_bytes(text.replace("\n", "\r").encode())
        with open(path, newline="") as handle:
            new = parse_ohlc(handle, ticker=ticker)
        with open(path, newline="") as handle:
            ref = reference_parse_ohlc(handle, ticker=ticker)
        assert new.rows == ref.rows and new.dropped == ref.dropped
        assert new == parse_ohlc(text, ticker=ticker)
        lines = text.splitlines()
        new = parse_ohlc(lines, ticker=ticker)
        ref = reference_parse_ohlc(lines, ticker=ticker)
        assert new.rows == ref.rows and new.dropped == ref.dropped


def test_a_non_ascii_ohlc_file_goes_to_the_scan_as_read_and_matches_reference(
        tmp_path, monkeypatch):
    scan_rows, scanned = ingest._scan_rows, []

    def spy(data, *args):
        scanned.append(data)
        return scan_rows(data, *args)

    monkeypatch.setattr(ingest, "_scan_rows", spy)
    rows = ["2020-01-02,10,11,9,10.5,é",  # é in the unmapped Volume column
            "2020-01-03,10,11,9,9,100", "2020-01-0é,10,11,9,9,100",  # and in a dropped row
            "2020-01-06,9,10,8,é,100", "2020-01-07,9,10,8,9.5,1é"]
    text = "\n".join([HEADER, *rows]) + "\n"
    for name, fmt, ending in [("comma", OhlcFormat(), "\n"),  # '§' is two bytes of UTF-8
                              ("section", OhlcFormat(delimiter="§"), "\r\n")]:
        body = text.replace(",", fmt.delimiter)
        path = tmp_path / f"{name}.csv"
        path.write_bytes(body.replace("\n", ending).encode())
        new = ingest.read_ohlc(path, fmt, ticker=name)
        ref = reference_parse_ohlc(path.read_bytes().decode("utf-8"), fmt, ticker=name)
        assert new.rows == ref.rows and new.dropped == ref.dropped == 2, name
        assert scanned.pop() == body.encode() and not scanned, name  # the scan saw the bytes


# Cells at the C scan's bounds: 16 and 17 characters or digits, '.', '..',
# empty cells, non-ASCII bytes, and the dates year 0, 2001-02-29 and 2000-02-29.
SCAN_DATES = ["2020-01-02", "2020-01-03", "2020-01-06", "0000-01-01", "2001-02-29",
              "2000-02-29", "2020-1-02", "2020-01-0é", "é020-01-02", "", "2020-01-02x"]
SCAN_PRICES = ["10", "10.5", "0.1", "5.", ".5", ".", "..", "", "0", "0.000", "1.2.3",
               "1234567890123456", "12345678901234567", "123456789012345.6",
               "1234567890123.456", "95.74890682883607",  # 17: a mantissa above 2**53
               "9999999999999999", "9007199254740993",
               "é", "1é", "１２", "+5", "1e3"]
SCAN_DELIMITERS = [",", ";", "1", ".", "é", "€"]  # '€' is three bytes of UTF-8


@st.composite
def scan_texts(draw):
    """(text, fmt): an OHLC text whose lines reach the bounds of the C line scan."""
    delimiter = draw(st.sampled_from(SCAN_DELIMITERS[:1] * 5 + SCAN_DELIMITERS))
    free = st.text(alphabet=["0", "1", "9", ".", "-", "é", "€", ",", ";", " "], max_size=18)
    days = st.dates(date(1999, 12, 1), date(2000, 3, 31)).map(date.isoformat)

    def cell(good, edges):  # mostly a good cell, so that most lines reach the conversions
        kind = draw(st.sampled_from(["good"] * 8 + ["edge", "free"]))
        return draw({"good": good, "edge": st.sampled_from(edges), "free": free}[kind])

    lines = []
    for _ in range(draw(st.integers(1, 8))):
        cells = [cell(days, SCAN_DATES), cell(st.sampled_from(SCAN_PRICES[:5]), SCAN_PRICES),
                 draw(st.sampled_from(["", "x", "é", "€", "7"])),
                 cell(st.sampled_from(SCAN_PRICES[:5]), SCAN_PRICES)]
        shape = draw(st.sampled_from(["row"] * 8 + ["long", "short", "blank", "spaces"]))
        cells = {"row": cells, "long": cells + ["extra"], "short": cells[:-1],  # a delimiter
                 "blank": [""], "spaces": ["   "]}[shape]  # too many or too few; blank lines
        lines.append(delimiter.join(cells))
    header = delimiter.join(["Date", "Open", "x", "Close"])
    text = "\n".join([header, *lines]) + draw(st.sampled_from(["\n", ""]))
    if draw(st.sampled_from([False] * 9 + [True])):
        text = draw(st.sampled_from(["", "\n", header, header + "\n"]))
    fmt = OhlcFormat(delimiter=delimiter, date_column="Date", open_column="Open",
                     close_column="Close")
    return text, fmt


@settings(max_examples=600, deadline=None)
@given(scan_texts())
def test_parse_ohlc_matches_the_numpy_route(case):
    text, fmt = case
    new = _outcome(parse_ohlc, text, fmt, "t")
    ref = _outcome(numpy_parse_ohlc, text, fmt, "t")
    assert new == ref
    if not isinstance(ref, tuple):
        assert new.rows == ref.rows  # the dates' and prices' types too
    assert _outcome(parse_ohlc, text.encode(), fmt, "t") == new  # its bytes, as read_ohlc passes


@settings(max_examples=400, deadline=None)
@given(spin_bodies(), st.sampled_from(["\n", "\r\n", "\r"]),
       st.sampled_from([False] * 4 + [True]))
def test_read_spin_csv_matches_the_numpy_route(tmp_path_factory, case, ending, header_only):
    body, width = case
    text = "date," + ",".join(f"t{j}" for j in range(width)) + "\n" + ("" if header_only else body)
    path = tmp_path_factory.mktemp("spins") / "spins.csv"
    path.write_bytes(text.replace("\n", ending).encode())

    def outcome(read):
        try:
            matrix = read(path)
        except Exception as exc:
            return type(exc), str(exc)
        return matrix.tickers, matrix.dates, matrix.values.tolist(), matrix.values.dtype

    assert outcome(read_spin_csv) == outcome(numpy_read_spin_csv)
