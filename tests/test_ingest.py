from datetime import date

import numpy as np
import pytest

from isingmarket import OhlcFormat, SpinMatrix, binarize, parse_ohlc
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
    ]:
        path.write_text(text)
        with pytest.raises(error):
            read_spin_csv(path)
