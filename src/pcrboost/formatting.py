"""Deterministic text serialization helpers.

All real numbers leaving the package (model JSON, report CSVs, SVG
coordinates) go through these formatters so that identical values always
produce identical bytes, regardless of platform or thread count.
"""

from __future__ import annotations

import math

# 17 significant digits: the smallest count that round-trips every float64.
_REAL_FMT = "%.17g"
# PatternRows bytes are built and written this many records at a time, so the
# whole file (23 MB for 47,401 records' SHAP rows) is never held at once
_CHUNK_RECORDS = 4096


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
        """The UTF-8 CSV bytes of these rows, _CHUNK_RECORDS records at a time.

        Each chunk is one list of record texts, joined once and encoded once.
        """
        # str(r).join(("", s1, s2)) == f"{r}{s1}{r}{s2}": one join per record
        blocks = [("",) + tuple("," + _line(row) for row in rows) for rows in self.pattern_rows]
        for start in range(0, len(self.inverse), _CHUNK_RECORDS):
            yield "".join([str(r).join(blocks[p]) for r, p in
                           enumerate(self.inverse[start:start + _CHUNK_RECORDS], start)]
                          ).encode("utf-8")


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
