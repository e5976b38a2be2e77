"""tools/artifact_diff.py: the numbers it reads off an artifact, the gaps it reports
between two of them, and its usage line."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "artifact_diff", Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)


def write(path, content):
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def test_json_numbers_are_listed_by_key_path_with_list_indices_dropped(tmp_path):
    fit = write(tmp_path / "fit.json", {
        "method": "plm", "iterations": 7, "converged": True, "note": None,
        "model": {"N": 2, "J": [[0.0, 0.5], [0.5, 0.0]], "h": [0.1, -0.2]},
        "runs": [{"s": 1.5, "ok": False}, {"s": 2}]})
    assert artifact_diff.numbers(fit) == {  # text, booleans and null are not numbers
        "iterations": [7.0], "model.N": [2.0], "model.J": [0.0, 0.5, 0.5, 0.0],
        "model.h": [0.1, -0.2], "runs.s": [1.5, 2.0]}


def test_csv_numbers_are_its_numeric_cells_in_order_with_text_cells_skipped(tmp_path):
    pairs = write(tmp_path / "tap_pairs.csv",
                  "ticker,empirical_mean,tap_mean\naaa,0.25,0.2\nbbb,-1e-3,3\n")
    assert artifact_diff.numbers(pairs) == {"": [0.25, 0.2, -0.001, 3.0]}


def test_gaps_name_each_key_path_that_differs_and_the_lengths_that_do_not_match(tmp_path):
    old = write(tmp_path / "old.json", {"model": {"J": [0.5, 0.5], "h": [0.1]}, "residual": 1e-9})
    new = write(tmp_path / "new.json", {"model": {"J": [0.5, 0.5, 0.25], "h": [0.1]},
                                        "residual": 3e-9, "extra": 4})
    assert (artifact_diff.gaps(old, new)
            == "extra: 0 vs 1 numbers, model.J: 2 vs 3 numbers, residual: 2e-09")
    old_csv = write(tmp_path / "old.csv", "ticker,h\naaa,1\nbbb,2\n")
    assert artifact_diff.gaps(old_csv, write(tmp_path / "new.csv",
                                             "ticker,h\naaa,1.5\nbbb,2\n")) == "max |gap| 0.5"
    assert artifact_diff.gaps(old_csv, write(tmp_path / "longer.csv", "ticker,h\naaa,1\nbbb,2\n"
                                             "ccc,3\n")) == "max |gap| 2 vs 3 numbers"


def test_files_whose_numbers_all_match_have_no_numeric_gap(tmp_path):
    fit = {"method": "plm", "model": {"J": [[0.0, 0.5], [0.5, 0.0]]}}
    for old, new in [(fit, fit), (fit, dict(fit, method="nmf")),
                     ("ticker,h\naaa,1\n", "ticker,h\naaa,1\n")]:
        suffix = ".json" if isinstance(old, dict) else ".csv"
        assert artifact_diff.gaps(write(tmp_path / f"old{suffix}", old),
                                  write(tmp_path / f"new{suffix}", new)) == "no numeric gap"


@pytest.mark.parametrize("paths", [[], ["old"], ["old", "new"], ["old", "new", "work", "more"]])
def test_other_than_three_paths_print_the_usage_line_and_exit_2(paths, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["artifact_diff.py", *paths])
    assert artifact_diff.main() == 2
    assert capsys.readouterr().err == artifact_diff.USAGE + "\n"
