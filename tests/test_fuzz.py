"""Property tests of the input readers: any bytes either parse or raise PcrboostError.

The examples are derandomized by the profile registered in conftest, so a
run replays the same inputs every time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pcrboost import formatting
from pcrboost.cli import _read_config, _Staging, cmd_plot, main
from pcrboost.dataset import CSV_HEADER, FEATURE_NAMES, Dataset, load_csv, save_csv
from pcrboost.errors import DataFormatError, PcrboostError
from pcrboost.formatting import _READ_CHUNK, read_table
from pcrboost.gbm import Model, load_model, save_model
from oracles import (
    make_dataset,
    random_model,
    reference_beeswarm_svg,
    reference_curve_svg,
    reference_load_csv,
    reference_read_table,
)

SEPARATORS = st.sampled_from(["\n", "\r\n", "\r"])
RATE_CELLS = st.sampled_from(["0", "0.5", "1", "", "nan", "-inf", "1e400", "a", '"'])


def csv_text(header, cells, width):
    """Strategy for CSV-shaped text: one of `header`'s names lists, then rows that
    are `width` 0/1 cells or lists of `cells`, with any line separator and BOM."""
    names = st.permutations(header) | st.lists(st.sampled_from(header + ("", "x")), max_size=12)
    row = st.lists(st.sampled_from(["0", "1"]), min_size=width, max_size=width) | st.lists(
        cells, max_size=12)
    return st.tuples(names, st.lists(row, max_size=8), SEPARATORS, st.booleans()).map(
        lambda t: ("\ufeff" if t[3] else "")
        + t[2].join(",".join(r) for r in [list(t[0])] + t[1])
    )


DATASET_TEXT = csv_text(
    CSV_HEADER,
    st.sampled_from(["0", "1", "", "2", " 1", '"1"', "0.0", "-0", "\u0661", '"', "1,0"]),
    len(CSV_HEADER),
)

# quoted cells (a comma or line break inside), bad numbers, NUL, characters
# that str.splitlines but not csv ends a line at, and a lone surrogate that is
# written as the undecodable byte 0xff
ODD_DATASET_CELLS = st.sampled_from(['"0"', '"1"', "", "2", " 1", "1 ", "0.0", "-0", "\u0661",
                                     '"', '"1,0"', '"0\n1"', '"1\r\n"', "\x00", "\x0c",
                                     "\u2028", "\udcff"])


# width-preserving one-character edits of a fixed-width body: a bad cell, another separator,
# a line break inside a line, a character that is not ASCII
FIXED_WIDTH_CHARS = st.sampled_from(["2", " ", ";", ",", "0", "1", "\r", "\n", "\x00", "\u00e9"])
# whole-body edits of a fixed-width body
FIXED_WIDTH_EDITS = st.sampled_from(["none", "char", "char", "crlf", "no final LF",
                                     "blank line"])


@st.composite
def dataset_csv_text(draw):
    """Dataset-CSV-shaped text: a permuted (now and then broken) header, then a body.

    Half the bodies are mostly canonical lines, some holding a quoted or odd
    cell, short, long or blank, each line ended by LF, CRLF or CR. The other
    half are fixed width (nine one-byte 0/1 cells, comma-separated, LF-ended)
    but for at most one edit: one character replaced, CRLF for every LF, no
    final LF or a trailing blank line. Either may have no line at all."""
    header = list(draw(st.permutations(CSV_HEADER)))
    if draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, 8))] = draw(st.sampled_from(["", "x", "label", '"cough"']))
    n_rows = draw(st.integers(0, 12))
    if draw(st.booleans()):
        body = "".join(",".join(draw(st.lists(st.sampled_from(["0", "1"]), min_size=9,
                                              max_size=9))) + "\n" for _ in range(n_rows))
        edit = draw(FIXED_WIDTH_EDITS)
        if edit == "char" and body:
            i = draw(st.integers(0, len(body) - 1))
            body = body[:i] + draw(FIXED_WIDTH_CHARS) + body[i + 1:]
        elif edit == "crlf":
            body = body.replace("\n", "\r\n")
        elif edit == "no final LF":
            body = body[:-1]
        elif edit == "blank line":
            body += "\n"
        text = ",".join(header) + "\n" + body
        return ("\ufeff" if draw(st.booleans()) else "") + text
    rows = [header]
    for _ in range(n_rows):
        row = draw(st.lists(st.sampled_from(["0", "1"]), min_size=9, max_size=9))
        mode = draw(st.sampled_from(["good"] * 8 + ["quoted", "odd", "short", "long", "blank"]))
        if mode == "quoted":
            i = draw(st.integers(0, 8))
            row[i] = f'"{row[i]}"'
        elif mode == "odd":
            for i in draw(st.lists(st.integers(0, 8), min_size=1, max_size=2)):
                row[i] = draw(ODD_DATASET_CELLS)
        elif mode == "short":
            row = row[:draw(st.integers(0, 8))]
        elif mode == "long":
            row += draw(st.lists(st.sampled_from(["0", "1", ""]), min_size=1, max_size=2))
        elif mode == "blank":
            row = []
        rows.append(row)
    ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])
    text = "".join(",".join(row) + draw(ends) for row in rows)
    if draw(st.booleans()):  # no newline after the last line
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


SHAP_COLUMNS = ("record_index", "feature", "feature_value", "shap_value", "base_value")
SHAP_CELLS = {
    "feature": st.sampled_from(FEATURE_NAMES[:3]),
    "feature_value": st.sampled_from(["0", "1"]),
    "shap_value": st.sampled_from(["0.5", "-0.25", "-0", "3"]) | st.floats(-3, 3).map(repr),
}
# quoted commas and line breaks, an unbalanced quote, bad numbers, NUL and a
# lone surrogate that is written as the undecodable byte 0xff
ODD_CELLS = st.sampled_from(["", "x", "nan", "-inf", "1e400", "1e308", "0.5", " 1", "2",
                             '"a,b"', '"1\r\n0"', '"', "\x00", "\udcff", "fever "])


@st.composite
def shap_csv_text(draw):
    """SHAP-CSV-shaped text: reordered, missing, repeated or extra columns, then
    rows that are well formed (cells quoted or not), blank, short, long or hold
    one odd cell, joined by any line separator."""
    extra = draw(st.lists(st.sampled_from(SHAP_COLUMNS + ("", "x")), max_size=3))
    header = draw(st.permutations(SHAP_COLUMNS + tuple(extra)))[draw(st.integers(0, 4)) // 4:]
    rows = [list(header)]
    for _ in range(draw(st.integers(0, 8))):
        cell = lambda name: SHAP_CELLS.get(name, st.sampled_from(["0", "7", "-2.5"]))
        row = [draw(cell(name) | cell(name).map(lambda c: f'"{c}"')) for name in header]
        mode = draw(st.sampled_from(["good"] * 4 + ["odd", "short", "long", "blank"]))
        if mode == "odd" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
        elif mode == "short":
            row = row[:draw(st.integers(0, len(row)))]
        elif mode == "long":
            row += draw(st.lists(ODD_CELLS | cell("feature"), min_size=1, max_size=3))
        elif mode == "blank":
            row = []
        rows.append(row)
    sep = draw(SEPARATORS)
    return sep.join(",".join(row) for row in rows) + draw(st.sampled_from(["", sep]))


@st.composite
def streamed_shap_text(draw):
    """SHAP-CSV-shaped text as `plot --kind beeswarm` streams it: LF-separated lines
    with repeated tails, none holding a quote, CR or NUL but perhaps the last. The
    header may repeat names or put a needed column first; rows may be blank, short,
    long or hold no comma; a BOM may lead and a final LF may be missing."""
    header = list(draw(st.permutations(SHAP_COLUMNS)))
    header += draw(st.lists(st.sampled_from(SHAP_COLUMNS + ("x",)), max_size=2))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        cell = lambda name: SHAP_CELLS.get(name, st.sampled_from(["0", "7", "-2.5"]))
        row = [draw(cell(name)) for name in header]
        mode = draw(st.sampled_from(["good"] * 5 + ["short", "long", "blank", "no comma"]))
        if mode == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif mode == "long":
            row += draw(st.lists(st.sampled_from(["", "x", "1"]), min_size=1, max_size=2))
        elif mode == "blank":
            row = []
        elif mode == "no comma":
            row = [draw(st.sampled_from(["7", "cough", "x"]))]
        lines.append(",".join(row))
    late = draw(st.sampled_from(["", "", '"', "\r", "\x00"]))
    if late:  # into the last line only, after the fast read has keyed every other one
        at = draw(st.integers(0, len(lines[-1])))
        lines[-1] = lines[-1][:at] + late + lines[-1][at:]
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


def plot_beeswarm(path):
    out = path.with_name("beeswarm.svg")
    staging = _Staging()
    cmd_plot(argparse.Namespace(kind="beeswarm", in_path=str(path), out=str(out), seed=1,
                                band=None), None, staging)
    staging.commit()
    return out.read_bytes()


def plot_curve(path, kind, band_path):
    out = path.with_name("curve.svg")
    staging = _Staging()
    cmd_plot(argparse.Namespace(kind=kind, in_path=str(path), out=str(out), seed=None,
                                band=band_path and str(band_path)), None, staging)
    staging.commit()
    return out.read_bytes()


def outcome(call, path):
    try:
        return call(path)
    except PcrboostError as exc:
        return type(exc), str(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["value", "cover", "feature", "left", "right", "x"]),
                      inner, max_size=4),
    max_leaves=12,
)


def must_parse_or_refuse(call, *args):
    try:
        call(*args)
    except PcrboostError:
        pass


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.fixture(scope="module")
def model_doc():
    model = random_model(np.random.default_rng(5), n_trees=2)
    return json.loads(save_model(model))


def paths_in(doc, prefix=()):
    """Every key path inside a JSON document, containers before their items."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from paths_in(value, prefix + (key,))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = replaced(doc[path[0]], path[1:], value)
    return out


class TestLoadCsv:
    @given(st.binary(max_size=300))
    @example(b"\xff\xfe" + b",".join(name.encode() for name in CSV_HEADER))
    @example(",".join(CSV_HEADER).encode() + b"\n0,0,0,0,0,0,0,0,\xe9\n")
    def test_arbitrary_bytes(self, blob):
        must_parse_or_refuse(load_csv, blob)

    @given(DATASET_TEXT)
    def test_csv_shaped_text(self, text):
        try:
            ds = load_csv(text.encode("utf-8"))
        except PcrboostError:
            return
        assert isinstance(ds, Dataset) and len(ds) > 0
        assert set(np.unique(ds.X)) <= {0, 1} and set(np.unique(ds.y)) <= {0, 1}


class TestLoadCsvMatchesPerCellOracle:
    @given(dataset_csv_text())
    @example(",".join(CSV_HEADER) + "\n0,0,0,0,0,0,0,0,0\n\n")
    @example(",".join(CSV_HEADER) + "\r\n0,0,0,0,0,0,0,0,0\r\n1,1,1,1,1,1,1,1,1")
    @example(",".join(CSV_HEADER) + "\n" + "0,0,0,0,0,0,0,0,0\n" * 9 + '"0,0",0,0,0,0,0,0,0\n')
    @example(",".join(CSV_HEADER) + "\n0,0,0,0,0,0,0,0,2\n0,0,0,0,0,0,0,0,0,\udcff\n")
    @example(",".join(reversed(CSV_HEADER)) + "\n2,0,0,0,0,0,0,0,3\n")
    @example(",".join(CSV_HEADER) + "\n0,0,0,0,0,0,0,0,\r0\n")
    @example(",".join(CSV_HEADER) + "\n0,0,0,0,0,0,0,0,0\n0,\x0c0,0,0,0,0,0,0,0\n")
    # fixed-width bodies: 18 CRLF lines are 18 x 19 characters, a multiple of the
    # 18-byte line; a 2, a space or a semicolon keeps the width
    @example(",".join(CSV_HEADER) + "\n" + "0,1,0,1,0,1,0,1,1\r\n" * 18)
    @example(",".join(CSV_HEADER) + "\n0,1,0,1,0,1,0,1,1\n0,0,0,2,0,0,0,0,0\n")
    @example(",".join(CSV_HEADER) + "\n0,1,0,1,0,1,0,1,1\n0,0,0, ,0,0,0,0,0\n")
    @example(",".join(CSV_HEADER) + "\n0,1,0,1,0,1,0,1,1\n0,0,0;0,0,0,0,0,0\n")
    @example(",".join(CSV_HEADER) + "\n0,1,0,1,0,1,0,1,1\n0,0,0,0,0,0,0,0,0")
    @example(",".join(CSV_HEADER) + "\n0,1,0,1,0,1,0,1,1\n\n")
    @example(",".join(CSV_HEADER) + "\n")
    @example("\ufeff" + ",".join(reversed(CSV_HEADER)) + "\n1,1,0,1,0,1,0,1,0\n")
    def test_same_dataset_or_same_error(self, text):
        # an equal Dataset, or the same error class and message
        blob = text.encode("utf-8", "surrogateescape")
        assert outcome(load_csv, blob) == outcome(reference_load_csv, blob)


class TestLoadModel:
    @given(st.binary(max_size=300))
    @example(b'{"format_version": ' + b"1" * 5000 + b"}")
    @example(b"[" * 100000)
    def test_arbitrary_bytes(self, blob):
        must_parse_or_refuse(load_model, blob)

    @given(st.data())
    def test_one_value_of_a_valid_document_replaced(self, model_doc, data):
        paths = list(paths_in(model_doc))
        value = data.draw(
            st.integers(-1, 9)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(paths).map(lambda other: value_at(model_doc, other))
            | JSON_VALUES
        )
        doc = replaced(model_doc, data.draw(st.sampled_from(paths)), value)
        try:
            model = load_model(json.dumps(doc))
        except PcrboostError:
            return
        assert isinstance(model, Model)
        assert all(math.isfinite(v) for v in model.predict_raw(np.eye(8, dtype=np.uint8)))


class TestCliReaders:
    @given(st.binary(max_size=200))
    @example(b"seed = 1\n\xff\n")
    def test_config_bytes(self, scratch, blob):
        scratch.write_bytes(blob)
        must_parse_or_refuse(_read_config, str(scratch))

    @given(st.text(max_size=200))
    def test_config_text(self, scratch, text):
        scratch.write_text(text, encoding="utf-8")
        must_parse_or_refuse(_read_config, str(scratch))

    @given(st.binary(max_size=300))
    @example(b"fpr,sensitivity,ppv\n\xff,1,1\n")
    def test_table_bytes(self, scratch, blob):
        scratch.write_bytes(blob)
        with open(scratch, encoding="utf-8", newline="") as fh:
            must_parse_or_refuse(read_table, fh, ("fpr", "sensitivity", "ppv"))

    @given(csv_text(("fpr", "sensitivity", "ppv"), RATE_CELLS, 3),
           csv_text(("fpr", "tpr_lo", "tpr_hi"), RATE_CELLS, 3))
    @example("fpr,sensitivity,ppv,fpr\n0.5,0.25,,x\n\n0.5,1\n", "fpr,tpr_lo,tpr_hi\n0,0,0\n")
    @example("ppv,sensitivity,fpr\n0.5,1,0\n0.5,1,0\n", "fpr,tpr_lo,tpr_hi\n0,a,2\n1,1\n")
    @example("fpr,sensitivity,ppv\n", "fpr,tpr_lo,tpr_hi\n")
    @example("fpr,sensitivity,ppv\n0.5,0.5,0.5\n", "fpr,tpr_lo,tpr_hi\n0,0,2\nx,0,0\n")
    @example("fpr,sensitivity,ppv\n0,0,\n", "tpr_lo,fpr,tpr_hi,tpr_lo\r\n0.5,0.5,1,0\r\n")
    def test_plot_from_table_text(self, scratch, text, band_text):
        # the reader and the cell parsing together: exit 0 or a format error,
        # with the SVG bytes or the error of the row-by-row DictReader oracle
        band = scratch.with_name("band.csv")
        scratch.write_text(text, encoding="utf-8")
        band.write_text(band_text, encoding="utf-8")
        args = ["--in", str(scratch), "--out", str(scratch.with_name("plot.svg"))]
        for kind in ("roc", "pr"):
            assert main(["plot", "--kind", kind, *args]) in (0, 2)
        for kind, band_path in (("roc", None), ("roc", band), ("pr", None)):
            oracle = outcome(lambda p: reference_curve_svg(p, kind, band_path).encode("utf-8"),
                             scratch)
            assert outcome(lambda p: plot_curve(p, kind, band_path), scratch) == oracle

    @given(csv_text(("feature", "shap_value", "feature_value"),
                    st.sampled_from(["cough", "fever", "x", "0", "1", "-0.5", "", "nan", "1e308",
                                     "-1e308", "2", "0.5"]), 3))
    def test_beeswarm_from_table_text(self, scratch, text):
        scratch.write_text(text, encoding="utf-8")
        args = ["--in", str(scratch), "--out", str(scratch.with_name("beeswarm.svg"))]
        assert main(["plot", "--kind", "beeswarm", "--seed", "1", *args]) in (0, 2)

    @given(shap_csv_text())
    @example("feature,shap_value,feature_value\r\ncough,0.5,1\r\n\r\nfever,-0.25,0\r\n")
    @example("feature,feature_value,shap_value,feature\ncough,1,0.5\nfever,0,0.25,cough\n")
    @example("feature,shap_value,feature_value\ncough,x,1\ncough,0.5,\x00\n")
    @example("feature,shap_value,feature_value\ncough,x,1\ncough,0.5,\udcff\n")
    @example("feature,shap_value,feature_value\ncough,x,1\ncough,0.5," + "1" * 140000 + "\n")
    def test_beeswarm_reader_matches_row_by_row_oracle(self, scratch, text):
        # the same SVG bytes, or the same error class and message: a line csv
        # refuses (a field over its size limit) or cannot decode, anywhere in
        # the file, wins over an earlier bad cell
        scratch.write_bytes(text.encode("utf-8", "surrogateescape"))
        oracle = outcome(lambda p: reference_beeswarm_svg(p, 1).encode("utf-8"), scratch)
        assert outcome(plot_beeswarm, scratch) == oracle


class TestStreamedBeeswarmReader:
    @given(streamed_shap_text())
    @example("record_index,feature,feature_value,shap_value\n0,cough,1,0.5\n1,cough,1,0.5")
    @example("\ufeffrecord_index,feature,feature_value,shap_value\n0,cough,1,0.5\n")
    @example("feature,record_index,feature_value,shap_value\ncough,0,1,0.5\n")
    @example("record_index,feature,shap_value,feature_value,feature\n0,x,0.5,1,cough\n")
    @example("record_index,feature,feature_value,shap_value\n0,cough,1,0.5\n\n7\n")
    @example("record_index,feature,feature_value,shap_value\n0,cough,1,0.5\n1,\n")
    @example("record_index,feature,feature_value,shap_value\n0,cough,1\n1,fever,0,2,x\n")
    @example('record_index,feature,feature_value,shap_value\n0,cough,1,0.5\n1,"cough",0,1\n')
    @example("record_index,feature,feature_value,shap_value\n0,cough,1,0.5\n1,cough,0,1\r\n")
    @example("record_index,feature,feature_value,shap_value\n0,x,1,0.5\n1,cough,0,\x001\n")
    @example("record_index,feature,feature_value,shap_value\n0,cough,x,0.5\n"
             + "1" * 140000 + ",cough,1,0.5\n")
    def test_matches_row_by_row_oracle(self, scratch, text):
        # the same SVG bytes, or the same error class and message
        scratch.write_text(text, encoding="utf-8", newline="")
        oracle = outcome(lambda p: reference_beeswarm_svg(p, 1).encode("utf-8"), scratch)
        assert outcome(plot_beeswarm, scratch) == oracle

    def test_quote_after_the_first_chunk(self, scratch):
        # more than 1 MiB of plain lines (many chunks), then one whose quoted feature
        # name csv reads without its quotes: only csv's reading draws it
        lines = ["record_index,feature,feature_value,shap_value,base_value"]
        lines += [f"{r},{FEATURE_NAMES[r % 3]},{r % 2},{(r % 5) / 4},-1.5" for r in range(45000)]
        lines.append('45000,"fever",1,0.75,-1.5')
        scratch.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert scratch.stat().st_size > 1 << 20
        svg = plot_beeswarm(scratch)
        assert svg == reference_beeswarm_svg(scratch, 1).encode("utf-8")
        assert svg.count(b"<circle") == 45001


class TestReadTable:
    @given(st.lists(st.sampled_from(["a", "b", ",", ",", "\n", "\n", '"', "\r", "\r\n", "\0",
                                     "x" * 30, "1"]), max_size=40).map("".join),
           st.sampled_from([None, ("a",), ("b",), ("a", "b")]),
           st.sampled_from([1, 2, 3, 5, 8, 64]), st.sampled_from([10, 25, csv.field_size_limit()]))
    @example("a,b\nx,1\r", None, 8, 10)
    @example("a,b\n1,x\n2,x\n,x\n\n2", ("b",), 2, 25)
    @example("a,b,c\nx,1,2\ny,1,2\nx,3\nx\n\nx,1,\nx,2,\nx,3,2", ("a", "c"), 4, 25)
    def test_matches_one_csv_reader_pass(self, text, needed, chunk, limit):
        # the same header, rows, ids and error at any chunk size and field limit:
        # a chunk boundary may split a line, a CR from its LF or a quoted cell
        saved = csv.field_size_limit(limit)
        try:
            with mock.patch.object(formatting, "_READ_CHUNK", chunk):
                got = read_table(io.StringIO(text, newline=""), needed)
            expected = reference_read_table(text, needed)
        finally:
            csv.field_size_limit(saved)
        header = got[0] if got[0] is None else list(got[0])
        assert (header, *got[1:]) == expected


class TestStreamedDatasetReader:
    """`load_csv` over bodies of several read chunks: an equal Dataset, or the same
    error class and message, as the per-cell oracle."""

    @staticmethod
    def body_lines(n):
        # every pattern and label in turn: 18-byte lines, 512 distinct
        return [",".join("01"[c >> b & 1] for b in range(9)) for c in range(n)]

    @staticmethod
    def same_outcome(blob):
        assert len(blob) > 1 << 16
        result = outcome(load_csv, blob)
        assert result == outcome(reference_load_csv, blob)
        return result

    def test_bad_cell_after_the_first_chunk(self):
        lines = self.body_lines(8000)
        lines[6000] = "0,1,0,1,0,1,0,1,2"
        lines[7000] = "0,0"
        blob = "\n".join([",".join(CSV_HEADER)] + lines + [""]).encode()
        assert self.same_outcome(blob) == (DataFormatError, "line 6002: non-binary value '2'")

    def test_line_split_across_a_chunk_boundary(self):
        # the header is read first, so body line k spans characters 18k to 18k + 17 of the
        # chunks; the line across the first boundary is bad, then it is one never seen before
        lines = self.body_lines(8000)
        at = _READ_CHUNK // 18
        assert 18 * at < _READ_CHUNK < 18 * at + 17
        lines[at] = "1,1,1,1,1,1,1,1,x"
        blob = "\n".join([",".join(CSV_HEADER)] + lines + [""]).encode()
        assert self.same_outcome(blob) == (DataFormatError, f"line {at + 2}: non-binary value 'x'")
        lines[at] = "1,1,1,1,1,1,1,1,1"
        lines[:at] = ["0,0,0,0,0,0,0,0,0" if line == lines[at] else line for line in lines[:at]]
        blob = "\n".join([",".join(CSV_HEADER)] + lines + [""]).encode()
        assert isinstance(self.same_outcome(blob), Dataset)

    @pytest.mark.parametrize("last", ['"1",0,0,0,0,0,0,0,1', "1,0,0,0,0,0,0,0,1\r",
                                      '0,"1",0,0,0,0,0,0,1\r\n'])
    def test_quote_or_cr_in_the_last_line_only(self, last):
        blob = "\n".join([",".join(CSV_HEADER)] + self.body_lines(8000) + [last]).encode()
        assert isinstance(self.same_outcome(blob), Dataset)

    def test_crlf_line_ends_throughout(self):
        blob = "\r\n".join([",".join(reversed(CSV_HEADER))] + self.body_lines(8000)).encode()
        ds = self.same_outcome(blob)
        assert isinstance(ds, Dataset) and len(ds) == 8000

    def test_stream_that_cannot_seek(self):
        # a quote in the third chunk: csv.reader takes over from the unfinished line before
        # it, on the same stream, which is read once
        class Forward(io.BytesIO):
            def seekable(self):
                return False

            def seek(self, *args):
                raise OSError("not seekable")

        lines = self.body_lines(9000)
        lines[8000] = '"0",0,0,0,0,0,0,0,1'
        blob = "\n".join([",".join(CSV_HEADER)] + lines + [""]).encode()
        stream = Forward(blob)
        assert load_csv(stream) == reference_load_csv(blob)
        assert stream.tell() == len(blob)


def exit_and_errors(argv):
    """main(argv)'s exit code and the lines of its stderr that report a pcrboost error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, [line for line in err.getvalue().splitlines()
                  if line.startswith("pcrboost") and "error" in line]


FRACTION_TOKENS = st.sampled_from(["0", "1", ".5", "0.25", "-0", "1e0", "1e-1", "0_5", " 0.5",
                                   "\u0661", "nan", "inf", "2", "-0.1", "x", "", "0.5.5"])
FRACTIONS_TEXT = st.lists(FRACTION_TOKENS | st.text(max_size=4), max_size=5).map(",".join) | (
    st.text(max_size=20))

# a config value cannot hold a line break: the reader splits lines at every one
CONFIG_VALUES = st.sampled_from(["0", "1", "-1", "7", "true", "False", "yes", "roc", "beeswarm",
                                 "0.5", "1e400", "-inf", "nan", "1_0", "0x10", "", "\u0661"]) | (
    st.text(max_size=12).map(lambda t: "".join(t.splitlines())))
# one key of each kind of flag a config value is parsed as, and a command line that runs
# once the value is accepted and then fails on its missing input file (exit 4)
CONFIG_KEYS = {
    "int": ("num_rounds", ["train", "--data", "{dir}/absent.csv", "--out-model", "{dir}/m.json",
                           "--seed", "0"]),
    "float": ("learning_rate", ["train", "--data", "{dir}/absent.csv",
                                "--out-model", "{dir}/m.json", "--seed", "0"]),
    "seed": ("seed", ["train", "--data", "{dir}/absent.csv", "--out-model", "{dir}/m.json"]),
    "choice": ("kind", ["plot", "--in", "{dir}/absent.csv", "--out", "{dir}/x.svg",
                        "--seed", "1"]),
    "store-true": ("roc_band", ["evaluate", "--model", "{dir}/absent.json",
                                "--data", "{dir}/absent.csv", "--out-prefix", "{dir}/e_",
                                "--seed", "1"]),
    "path": ("out", ["predict", "--model", "{dir}/absent.json", "--data", "{dir}/absent.csv"]),
    "fractions": ("fractions", ["simulate-bias", "--data", "{dir}/absent.csv",
                                "--out-dir", "{dir}/bias", "--seed", "1"]),
}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_data") / "data.csv"
    with open(path, "wb") as fh:
        save_csv(make_dataset(np.random.default_rng(2), 40), fh)
    return path


class TestCliFlags:
    """Flag and config values either parse or exit 2 with one error line, never 1."""

    @given(FRACTIONS_TEXT)
    @example("0.5,0.25,.50")
    @example("1,0_0,\u0661")
    def test_fractions_text(self, small_dataset, text):
        with tempfile.TemporaryDirectory() as out_dir:
            code, errors = exit_and_errors(["simulate-bias", "--data", small_dataset,
                                            "--out-dir", out_dir, "--seed", "1",
                                            f"--fractions={text}"])
        assert (code, len(errors)) in ((0, 0), (2, 1)), (code, errors)

    @pytest.mark.parametrize("kind", list(CONFIG_KEYS))
    @given(value=CONFIG_VALUES)
    def test_config_value_of_each_kind(self, scratch, kind, value):
        key, argv = CONFIG_KEYS[kind]
        config = scratch.with_name("run.cfg")
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        argv = [a.format(dir=scratch.parent) for a in argv]
        code, errors = exit_and_errors([*argv, "--config", config])
        assert (code, len(errors)) in ((2, 1), (4, 1)), (code, errors)
