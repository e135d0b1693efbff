"""Deterministic text serialization, and the one reader of every CSV table.

All real numbers leaving the package (model JSON, report CSVs, SVG
coordinates) go through these formatters so that identical values always
produce identical bytes, regardless of platform or thread count. Every
table the package reads (dataset, thresholds, ROC band and SHAP CSVs) goes
through `read_table`, which reads it as csv.reader would.
"""

from __future__ import annotations

import csv
import io
import math
from functools import partial
from itertools import chain

# 17 significant digits: the smallest count that round-trips every float64.
_REAL_FMT = "%.17g"
# PatternRows text is built and written in chunks of about this many characters, so
# the whole file (23 MB for 47,401 records' SHAP rows) is never held at once; a chunk
# of a few MB is mapped afresh by malloc and unmapped after its write, one page fault
# per 4 KiB, where a chunk this size reuses the same heap pages
_CHUNK_BYTES = 1 << 17
# read_table reads a table's text this many characters at a time: a whole-file read took
# the survey-scale beeswarm child to about 102 MB
_READ_CHUNK = 1 << 16


def fmt_real(x: float) -> str:
    """Format a finite real with 17 significant digits.

    NaN is the undefined-ratio marker throughout the package and serializes
    to the empty string so CSV consumers cannot mistake it for a number.
    """
    if isinstance(x, float) and math.isnan(x):
        return ""
    return _REAL_FMT % float(x)


def fmt_cell(value) -> str:
    """Format one CSV cell: ints verbatim, reals at 17 digits, None/NaN empty."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise TypeError("ambiguous cell type: bool")
    if isinstance(value, int):
        return str(value)
    return fmt_real(value)


class PatternRows:
    """Rows led by a record index, record r having pattern inverse[r]'s rows.

    pattern_rows[p] lists pattern p's rows without the index; write_csv
    formats each once, with the bytes of writing the rows one by one.
    """

    def __init__(self, pattern_rows: list, inverse):
        self.pattern_rows = pattern_rows
        self.inverse = inverse.tolist()  # an integer NumPy array

    def __len__(self) -> int:
        return sum(len(self.pattern_rows[p]) for p in self.inverse)

    def chunks(self):
        """The UTF-8 CSV bytes of these rows, in chunks of at most _CHUNK_BYTES characters.

        A chunk holds as many records as fit the longest pattern's text, indices included,
        and at least one; it is one list of record texts, joined once and encoded once.
        """
        # str(r).join(("", s1, s2)) == f"{r}{s1}{r}{s2}": one join per record
        blocks = [("",) + tuple("," + _line(row) for row in rows) for rows in self.pattern_rows]
        digits = len(str(len(self.inverse) - 1))
        longest = max((sum(map(len, block)) + digits * (len(block) - 1) for block in blocks),
                      default=0)
        step = max(1, _CHUNK_BYTES // max(1, longest))
        for start in range(0, len(self.inverse), step):
            yield "".join([str(r).join(blocks[p]) for r, p in
                           enumerate(self.inverse[start:start + step], start)]).encode("utf-8")


def _line(row) -> str:
    return ",".join(map(fmt_cell, row)) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    """Write a UTF-8 CSV with LF newlines and deterministic cell formatting.

    rows is an iterable of row tuples or a PatternRows; the text is encoded
    in memory and written to a binary file.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if isinstance(rows, PatternRows):
            fh.writelines(rows.chunks())
        else:
            fh.write("".join(map(_line, rows)).encode("utf-8"))


def read_table(text, needed) -> tuple:
    """Read a CSV text stream as csv.reader would: the 4-tuple (header, rows, ids, error).

    rows: the distinct records as tuples of cells, in order of first appearance;
    ids: each record's index into rows, so row k is first on line ids.index(k) + 2 (the
    header is line 1, each record one line); error: the csv error, or "not UTF-8 text",
    that ended the reading, else None. With needed (the columns read) given, records are
    keyed by their text without the first column not needed, and that cell of each row
    that has it is None. A chunk with no quote, CR, NUL or line over csv's field limit is
    split on LF; from the first other one, the rest goes through csv.
    """
    limit = csv.field_size_limit()
    header, ids, index, row_ids, error = None, [], {}, {}, None

    def add(cells: tuple) -> int:
        if skip is not None and len(cells) > skip:
            cells = cells[:skip] + (None,) + cells[skip + 1:]
        return row_ids.setdefault(cells, len(row_ids))

    try:
        first = text.readline()  # as csv.reader takes the header: one decode of 8 KiB
        if _plain(first) and len(first) <= limit:
            header = _cells(first.removesuffix("\n")) if first else None
        else:
            header = next(csv.reader(chain([first], text)), None)
        # the first column not needed, if any
        skip = None if needed is None else next(
            (j for j, name in enumerate(header or ()) if name not in needed), None)
        carry = ""
        for chunk in chain(iter(partial(text.read, _READ_CHUNK), ""), [""]):  # "" ends a last line
            block = carry + chunk
            body = block.split("\n") if block else []
            if not _plain(block) or len(block) > limit and max(map(len, body)) > limit:
                # readline ends the unfinished line, or joins a CR to its LF
                head = io.StringIO(block + text.readline(), newline="")
                for row in csv.reader(chain(head, text)):
                    ids.append(add(tuple(row)))
                break
            if skip == 0:  # a tail is never empty: a line with none is keyed by LF and the line
                keys = [line.partition(",")[2] or "\n" + line for line in body]
            elif skip:
                keys = [_emptied(line, skip) for line in body]
            else:
                keys = body
            carry = body.pop() if chunk else ""
            for line, key in zip(body, keys):
                row = index.get(key)
                if row is None:
                    row = index[key] = add(_cells(line))
                ids.append(row)
    except csv.Error as exc:
        error = str(exc)
    except UnicodeDecodeError:
        error = "not UTF-8 text"
    return header, list(row_ids), ids, error


def _plain(text: str) -> bool:
    """True if csv.reader reads text as split on LF and comma: no quote, CR or NUL."""
    return '"' not in text and "\r" not in text and "\0" not in text


def _emptied(line: str, j: int) -> str:
    """line with cell j emptied and its commas kept; a line without cell j as it is."""
    cells = line.split(",", j + 1)
    if len(cells) > j:
        cells[j] = ""
    return ",".join(cells)


def _cells(line: str) -> tuple:
    return tuple(line.split(",")) if line else ()
