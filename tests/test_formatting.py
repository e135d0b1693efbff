"""Deterministic serialization: 17-digit reals, empty-cell NaN, LF newlines."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pcrboost import formatting
from pcrboost.formatting import PatternRows, fmt_cell, fmt_real, write_csv


class TestFmtReal:
    def test_round_trips_every_float(self, rng):
        values = np.concatenate([
            rng.normal(size=200) * np.exp(rng.uniform(-30, 30, size=200)),
            [0.0, 1.0, -1.0, 1e-300, 1e300, 2.0 / 3.0],
        ])
        for v in values:
            assert float(fmt_real(float(v))) == float(v)

    def test_nan_is_empty(self):
        assert fmt_real(math.nan) == ""

    def test_integral_floats_stay_short(self):
        assert fmt_real(1.0) == "1"
        assert fmt_real(0.5) == "0.5"

    def test_numpy_scalar_accepted(self):
        assert fmt_real(np.float64(0.25)) == "0.25"


class TestFmtCell:
    def test_dispatch(self):
        assert fmt_cell(None) == ""
        assert fmt_cell(float("nan")) == ""
        assert fmt_cell(7) == "7"
        assert fmt_cell("label") == "label"
        assert fmt_cell(0.1) == fmt_real(0.1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            fmt_cell(True)


class TestWriteCsv:
    def test_bytes_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [(1, 0.5, None), (2, math.nan, "x")])
        blob = path.read_bytes()
        assert blob == b"a,b,c\n1,0.5,\n2,,x\n"
        assert b"\r" not in blob


class TestPatternRows:
    PATTERN_ROWS = [
        [("cough", 1, 0.1, -2.5), ("fever", 0, math.nan, -2.5)],
        [],
        [(None, 1.0 / 3.0)],
    ]
    INVERSE = [2, 0, 1, 2, 0]

    def rows(self):
        return PatternRows(self.PATTERN_ROWS, np.array(self.INVERSE))

    def expanded(self):
        return [(r, *row) for r, p in enumerate(self.INVERSE) for row in self.PATTERN_ROWS[p]]

    def test_length_counts_expanded_rows(self):
        rows = self.rows()
        assert len(rows) == len(self.expanded()) == 6

    def test_bytes_equal_rows_written_one_by_one(self, tmp_path):
        header = ["i", "a", "b", "c", "d"]
        write_csv(tmp_path / "fast.csv", header, self.rows())
        write_csv(tmp_path / "slow.csv", header, self.expanded())
        blob = (tmp_path / "fast.csv").read_bytes()
        assert blob == (tmp_path / "slow.csv").read_bytes()
        assert blob == (b"i,a,b,c,d\n0,,0.33333333333333331\n"
                        b"1,cough,1,0.10000000000000001,-2.5\n1,fever,0,,-2.5\n"
                        b"3,,0.33333333333333331\n"
                        b"4,cough,1,0.10000000000000001,-2.5\n4,fever,0,,-2.5\n")

    def test_chunks_split_on_record_boundaries(self, monkeypatch):
        # the longest record is pattern 0's: 49 characters of rows and two 1-digit indices
        rows = self.rows()
        whole = b"".join(rows.chunks())
        for budget, count in ((1, 5), (51, 5), (101, 5), (102, 3), (153, 2), (255, 1)):
            monkeypatch.setattr(formatting, "_CHUNK_BYTES", budget)
            chunks = list(rows.chunks())
            assert len(chunks) == count
            assert b"".join(chunks) == whole

    def test_record_longer_than_the_budget_is_a_chunk_of_its_own(self):
        long_row = ("x" * formatting._CHUNK_BYTES,)
        rows = PatternRows([[long_row], [(1.5,)]], np.array([0, 1, 0]))
        chunks = list(rows.chunks())
        assert chunks == [f"0,{long_row[0]}\n".encode(), b"1,1.5\n", f"2,{long_row[0]}\n".encode()]

    def test_many_records_fill_chunks_within_the_budget(self, rng, tmp_path):
        # SHAP-like: 8 rows per pattern, 5,000 records of 4-digit indices
        names = ["cough", "fever", "loss_of_smell", "sore_throat"] * 2
        pattern_rows = [[(name, int(rng.integers(2)), float(v), -2.25)
                         for name, v in zip(names, rng.normal(size=8))] for _ in range(40)]
        rows = PatternRows(pattern_rows, rng.integers(0, 40, size=5000))
        chunks = list(rows.chunks())
        assert len(chunks) > 10
        assert all(len(chunk) <= formatting._CHUNK_BYTES for chunk in chunks)
        assert all(len(chunk) > formatting._CHUNK_BYTES // 2 for chunk in chunks[:-1])
        header = ["record_index", "feature", "feature_value", "shap_value", "base_value"]
        expanded = [(r, *row) for r, p in enumerate(rows.inverse) for row in pattern_rows[p]]
        write_csv(tmp_path / "fast.csv", header, rows)
        write_csv(tmp_path / "slow.csv", header, expanded)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_no_records_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["i", "x"], PatternRows([[(1.5,)]], np.array([], dtype=np.intp)))
        assert path.read_bytes() == b"i,x\n"
