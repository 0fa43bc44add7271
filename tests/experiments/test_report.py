"""Unit tests for result tables and the geomean helper."""

import math

import pytest

from repro.experiments.report import ExperimentResult, fmt, geomean


def test_geomean_basic():
    assert geomean([1, 4]) == pytest.approx(2.0)
    assert geomean([2, 2, 2]) == pytest.approx(2.0)


def test_geomean_skips_non_positive_and_none():
    assert geomean([4, None, 0, -1, 1]) == pytest.approx(2.0)


def test_geomean_empty_is_nan():
    assert math.isnan(geomean([]))


def test_fmt():
    assert fmt(None) == "-"
    assert fmt("x") == "x"
    assert fmt(1234) == "1,234"
    assert fmt(1.23456, digits=2) == "1.23"
    assert fmt(float("nan")) == "-"


def test_result_rows_and_columns():
    r = ExperimentResult(title="t", columns=["a", "b"])
    r.add_row("row1", a=1.0)
    r.add_row("row1", b=2.0)
    r.add_row("row2", a=3.0, b=4.0)
    assert list(r.data) == ["row1", "row2"]
    assert {row: vals["a"] for row, vals in r.data.items()} == \
        {"row1": 1.0, "row2": 3.0}
    assert r.data["row1"]["b"] == 2.0


def test_render_contains_everything():
    r = ExperimentResult(title="My Table", columns=["speed"])
    r.add_row("SPM_G", speed=12.5)
    r.notes.append("a note")
    text = r.render()
    assert "My Table" in text
    assert "SPM_G" in text
    assert "12.50" in text
    assert "note: a note" in text


def test_render_missing_cells_as_dash():
    r = ExperimentResult(title="t", columns=["a", "b"])
    r.add_row("x", a=1.0)
    assert "-" in r.render()
