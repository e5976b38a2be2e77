import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

from isingmarket import serialize
from isingmarket.errors import DomainError, FormatError
from isingmarket.serialize import read_bytes, write_csv, write_json


@dataclass
class Row:
    name: str
    value: np.float64


@dataclass
class Report:
    mean: np.float64
    count: np.int64
    flag: np.bool_
    single: np.float32
    vector: np.ndarray
    matrix: np.ndarray
    pair: tuple
    rows: list[Row]


def test_write_json_turns_dataclasses_and_numpy_values_into_plain_json(tmp_path):
    report = Report(
        mean=np.float64(0.1),
        count=np.int64(7),
        flag=np.bool_(True),
        single=np.float32(0.1),
        vector=np.array([1.5, -2.0]),
        matrix=np.arange(4, dtype=np.int64).reshape(2, 2),
        pair=(np.float64(1e-17), "b"),
        rows=[Row("a", np.float64(2.0 / 3.0)), Row("b", np.float64(-0.0))],
    )
    by_hand = {
        "mean": 0.1,
        "count": 7,
        "flag": True,
        "single": 0.10000000149011612,
        "vector": [1.5, -2.0],
        "matrix": [[0, 1], [2, 3]],
        "pair": [1e-17, "b"],
        "rows": [{"name": "a", "value": 0.6666666666666666},
                 {"name": "b", "value": -0.0}],
    }
    path = tmp_path / "report.json"
    write_json(path, report)
    assert path.read_text() == json.dumps(by_hand, sort_keys=True, indent=2) + "\n"


def test_write_json_rejects_other_objects_and_writes_nothing(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": object()})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, float("nan")])
def test_write_json_refuses_a_non_finite_number_and_writes_nothing(tmp_path, value):
    with pytest.raises(DomainError, match="report.json"):
        write_json(tmp_path / "report.json", {"ok": 1.0, "rows": [{"x": [0.5, value]}]})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.float32(np.inf), float("-inf")])
def test_write_csv_refuses_a_non_finite_cell_and_writes_nothing(tmp_path, value):
    with pytest.raises(DomainError, match="table.csv"):
        write_csv(tmp_path / "table.csv", ["name", "x"], [("a", 1.0), ("b", value)])
    assert list(tmp_path.iterdir()) == []


def test_read_bytes_folds_line_endings_on_the_bytes_and_records_their_sha256(
        tmp_path, monkeypatch):
    path = tmp_path / "in.csv"
    data = "a,é\r\nb\rc\n".encode()
    path.write_bytes(data)
    recorded = {}
    monkeypatch.setattr(serialize, "recorder", recorded)
    assert read_bytes(path) == "a,é\nb\nc\n".encode()
    assert recorded == {str(path): hashlib.sha256(data).hexdigest()}  # of the raw bytes


def test_read_bytes_rejects_non_utf8_at_its_position_before_the_fold(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"a\xff\n")
    with pytest.raises(FormatError, match="in.csv: not UTF-8"):
        read_bytes(path)
    path.write_bytes(b"a\r\n\xff\n")  # folded first, the 0xff would be at position 2
    with pytest.raises(FormatError, match="byte 0xff in position 3"):
        read_bytes(path)
