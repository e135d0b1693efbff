"""Datasets of binary symptom features with RT-PCR labels.

Ingests and emits the fixed-schema CSV format, synthesizes datasets
calibrated to the published class-conditional marginals of the Israeli
Ministry of Health RT-PCR symptom survey, computes reporter-positive
rates, and produces the under-reporting bias simulation variants.

All randomness in this package uses NumPy's PCG64 generator with one
explicit seed per operation; see the README for the policy.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import ContractError, DataFormatError

FEATURE_NAMES: tuple[str, ...] = (
    "sex_male",
    "age_60_plus",
    "cough",
    "fever",
    "sore_throat",
    "shortness_of_breath",
    "headache",
    "contact_confirmed",
)

# The five self-reported symptoms; the bias simulation keys on these only,
# not on sex/age/contact, which a reluctant reporter cannot under-report.
SYMPTOM_FEATURES: tuple[str, ...] = (
    "cough",
    "fever",
    "sore_throat",
    "shortness_of_breath",
    "headache",
)

N_FEATURES = len(FEATURE_NAMES)

CSV_HEADER: tuple[str, ...] = FEATURE_NAMES + ("label",)

# Every record is one of 2^8 patterns; bit f of a pattern code is feature f.
PATTERNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
PATTERNS.flags.writeable = False


def lattice_sums(per_pattern) -> np.ndarray:
    """Sums of a 256-entry per-pattern array over every partial assignment.

    Entry sum(a_f * 3**f) of the 3^8 result, with a_f = 0 or 1 fixing feature
    f and a_f = 2 leaving it free, sums the patterns that match the fixed
    features; the last entry (all free) is the total. Each of the 8 steps
    appends one feature's sum along its axis as that axis's third index.
    """
    table = np.asarray(per_pattern)
    for f in range(N_FEATURES):
        # axes: the pattern bits above f, bit f, the 3^f assignments below f
        t = table.reshape(-1, 2, 3 ** f)
        table = np.concatenate([t, t[:, :1] + t[:, 1:]], axis=1)
    return table.reshape(-1)


def pattern_codes(X) -> np.ndarray:
    """uint8 pattern code of each row of an (n, 8) 0/1 matrix; other values are refused."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise ContractError(f"feature vector length must be {N_FEATURES}")
    if not np.isin(X, (0, 1)).all():
        raise ContractError("non-binary value in features")
    return np.packbits(X.astype(np.uint8, copy=False), axis=1, bitorder="little")[:, 0]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered records of 8 binary features plus a binary label.

    Attributes:
        codes: uint8 array of shape (n_records,), each record's pattern code (bit f =
            feature f, as in PATTERNS); from an (n, 8) 0/1 matrix X, `pattern_codes(X)`.
        y: uint8 array of shape (n_records,), 1 = positive RT-PCR.
    """

    codes: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        codes, y = np.asarray(self.codes), np.asarray(self.y)
        if codes.ndim != 1 or y.shape != codes.shape:
            raise ContractError(f"codes and labels must be equal-length vectors, "
                                f"got shapes {codes.shape} and {y.shape}")
        if not np.isin(codes, np.arange(len(PATTERNS))).all():
            raise ContractError("pattern code outside 0..255")
        if not np.isin(y, (0, 1)).all():  # before the cast, which would make 0.5 a 0
            raise ContractError("non-binary value in labels")
        for name, value in (("codes", codes), ("y", y)):
            value = value.astype(np.uint8)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @cached_property
    def X(self) -> np.ndarray:
        """(n_records, 8) uint8 feature matrix in schema order, derived from codes."""
        X = PATTERNS[self.codes]
        X.flags.writeable = False
        return X

    @property
    def cells(self) -> np.ndarray:
        """Each record's cell 2 * code + label of the 512-cell (pattern, label) table."""
        return 2 * self.codes.astype(np.intp) + self.y

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __eq__(self, other) -> bool:
        """Record equality: same patterns and labels."""
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.codes, other.codes) and np.array_equal(self.y, other.y)

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def n_negative(self) -> int:
        return int(np.sum(self.y == 0))

    def take(self, indices: np.ndarray) -> "Dataset":
        """Sub-dataset at the given record indices, in the given order."""
        return Dataset(self.codes[indices], self.y[indices])


@dataclass(frozen=True)
class MarginalTable:
    """Class-conditional feature rates plus the class counts behind them."""

    rate_given_positive: np.ndarray
    rate_given_negative: np.ndarray
    n_positive: int
    n_negative: int

    def __post_init__(self):
        if self.n_positive < 0 or self.n_negative < 0:
            raise ContractError("class counts must be nonnegative")
        for name in ("rate_given_positive", "rate_given_negative"):
            rates = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if rates.shape != (N_FEATURES,):
                raise ContractError(f"rates must have shape ({N_FEATURES},)")
            if not np.all((rates >= 0.0) & (rates <= 1.0)):
                raise ContractError("rates outside [0,1]")
            rates.flags.writeable = False
            object.__setattr__(self, name, rates)

    def rate(self, feature: str, label: int) -> float:
        i = FEATURE_NAMES.index(feature)
        rates = self.rate_given_positive if label == 1 else self.rate_given_negative
        return float(rates[i])


@dataclass(frozen=True)
class BiasSimConfig:
    """Parameters of the under-reporting simulation."""

    drop_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise ContractError("drop_fraction must be in [0,1]")


def _line_table(positions) -> dict[str, int]:
    """Every valid body line → its cell code (2 * pattern code + label), in cell order,
    for a file that holds schema column i at position positions[i]."""
    cells = np.arange(2 << N_FEATURES)
    schema_rows = np.column_stack([PATTERNS[cells >> 1], cells & 1])
    file_rows = np.where(schema_rows[:, np.argsort(positions)] == 1, "1", "0")
    return {",".join(row): cell for cell, row in enumerate(file_rows.tolist())}


def load_csv(source) -> Dataset:
    """Parse a dataset from a byte stream (or bytes) of the documented CSV.

    The header must name all 8 schema columns plus `label`, in any order;
    columns are mapped onto schema order. Body cells must be literal 0 or 1.
    A leading UTF-8 byte-order mark is skipped.

    A body line is one of 512 texts for the header's column order, so the body
    is split on LF and each line looked up in that table. If any line misses,
    the whole body goes through csv.reader instead, which names the first bad
    row. The body is decoded in one piece: a byte that is not UTF-8 is reported
    even when an earlier row is bad.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        try:
            header = next(csv.reader(text))
        except StopIteration:
            raise DataFormatError("empty CSV: missing header") from None
        except csv.Error as exc:
            raise DataFormatError(f"malformed CSV: {exc}") from None
        expected = set(CSV_HEADER)
        seen: dict[str, int] = {}
        for pos, name in enumerate(header):
            if name not in expected:
                raise DataFormatError(f"unknown column {name!r}")
            if name in seen:
                raise DataFormatError(f"duplicate column {name!r}")
            seen[name] = pos
        missing = [name for name in CSV_HEADER if name not in seen]
        if missing:
            raise DataFormatError(f"missing column {missing[0]!r}")
        positions = [seen[name] for name in CSV_HEADER]
        table = _line_table(positions)

        body = text.read()
        lines = body.split("\n")
        if lines[-1] == "":
            lines.pop()
        cells = list(map(table.get, lines))
        if None in cells:
            cells = []
            try:
                for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
                    if len(row) != len(CSV_HEADER):
                        raise DataFormatError(
                            f"line {lineno}: expected {len(CSV_HEADER)} cells, got {len(row)}")
                    cell = table.get(",".join(row))
                    if cell is None:  # some cell, first in schema order, is not 0 or 1
                        bad = next(row[pos] for pos in positions if row[pos] not in ("0", "1"))
                        raise DataFormatError(f"line {lineno}: non-binary value {bad!r}")
                    cells.append(cell)
            except csv.Error as exc:
                raise DataFormatError(f"malformed CSV: {exc}") from None
        if not cells:
            raise DataFormatError("empty CSV body")
        cells = np.array(cells, dtype=np.uint16)
        return Dataset(cells >> 1, cells & 1)
    except UnicodeDecodeError:
        raise DataFormatError("malformed CSV: not UTF-8 text") from None
    finally:
        text.detach()


def save_csv(ds: Dataset, dest) -> None:
    """Write the documented CSV (LF newlines, ASCII 0/1 cells) to a binary stream."""
    # the canonical column order's 512 body lines, indexed by cell code
    lines = np.array([line + "\n" for line in _line_table(range(len(CSV_HEADER)))], dtype=object)
    dest.write((",".join(CSV_HEADER) + "\n").encode("ascii"))
    dest.write("".join(lines[ds.cells]).encode("ascii"))


def marginals_from(ds: Dataset) -> MarginalTable:
    """Class-conditional feature rates: count(feature=1 and class) / count(class)."""
    counts = np.bincount(ds.cells, minlength=2 << N_FEATURES).reshape(-1, 2)  # code, label
    n_neg, n_pos = counts.sum(axis=0).tolist()
    if n_pos == 0 or n_neg == 0:
        raise ContractError("degenerate class balance: one class absent")
    true_counts = PATTERNS.T @ counts  # (8, 2): feature = 1, by label
    return MarginalTable(true_counts[:, 1] / n_pos, true_counts[:, 0] / n_neg, n_pos, n_neg)


def synthesize(m: MarginalTable, n_pos: int, n_neg: int, seed: int) -> Dataset:
    """Draw a dataset of n_pos positives and n_neg negatives from the marginals.

    Labels are laid out positives-first then shuffled by the seed; each
    feature is then an independent biased coin at its class-conditional rate.
    Deterministic for fixed (m, n_pos, n_neg, seed).
    """
    if n_pos < 0 or n_neg < 0:
        raise ContractError("class counts must be nonnegative")
    n = n_pos + n_neg
    if n < 1:
        raise ContractError("need at least one record")
    if n > sys.maxsize // N_FEATURES:  # beyond any (n, 8) array NumPy can size
        raise ContractError(f"too many records: {n} > {sys.maxsize // N_FEATURES}")
    rng = np.random.Generator(np.random.PCG64(seed))
    y = np.concatenate([np.ones(n_pos, dtype=np.uint8), np.zeros(n_neg, dtype=np.uint8)])
    rng.shuffle(y)
    rates = np.where(
        (y == 1)[:, None], m.rate_given_positive[None, :], m.rate_given_negative[None, :]
    )
    return Dataset(pattern_codes(rng.random((n, N_FEATURES)) < rates), y)


def reporter_positive_rate(ds: Dataset, feature: str) -> float:
    """Among records reporting the feature, the fraction with a positive label."""
    reporters = PATTERNS[:, FEATURE_NAMES.index(feature)] == 1
    counts = np.bincount(ds.cells, minlength=2 << N_FEATURES).reshape(-1, 2)[reporters]
    n_reporters = int(counts.sum())
    if n_reporters == 0:
        raise ContractError(f"feature never reported: {feature}")
    return int(counts[:, 1].sum()) / n_reporters


def asymptomatic_negative_indices(ds: Dataset) -> np.ndarray:
    """Indices of negative-labeled records reporting none of the five symptoms."""
    symptoms = sum(1 << FEATURE_NAMES.index(f) for f in SYMPTOM_FEATURES)
    return np.flatnonzero((ds.y == 0) & (ds.codes & symptoms == 0))


def simulate_bias(ds: Dataset, cfg: BiasSimConfig) -> Dataset:
    """Remove a seeded uniformly random drop_fraction of asymptomatic negatives.

    The presumed under-reporters are the negative-labeled records whose five
    symptom features are all 0; all other records are retained in order.
    """
    if len(ds) == 0:
        raise ContractError("empty dataset")
    candidates = asymptomatic_negative_indices(ds)
    n_drop = int(len(candidates) * cfg.drop_fraction + 0.5)
    keep = np.ones(len(ds), dtype=bool)
    if n_drop:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        dropped = rng.choice(candidates, size=n_drop, replace=False)
        keep[dropped] = False
    return ds.take(np.flatnonzero(keep))


def reference_counts() -> dict:
    """The bundled verbatim survey counts (per feature x {true,false} x class)."""
    payload = resources.files("pcrboost.data").joinpath("reference_counts.json")
    return json.loads(payload.read_text(encoding="utf-8"))


def _class_totals(counts: dict) -> tuple[int, int]:
    # Only the sex, age and contact rows sum consistently in the source;
    # class totals are fixed from the sex rows.
    sex = counts["features"]["sex_male"]
    n_pos = sex["true"]["positive_n"] + sex["false"]["positive_n"]
    n_neg = sex["true"]["negative_n"] + sex["false"]["negative_n"]
    return n_pos, n_neg


def reference_marginals() -> MarginalTable:
    """MarginalTable from the bundled survey counts (the default generator source)."""
    counts = reference_counts()
    n_pos, n_neg = _class_totals(counts)
    rows = [counts["features"][name]["true"] for name in FEATURE_NAMES]
    return MarginalTable([row["positive_n"] / n_pos for row in rows],
                         [row["negative_n"] / n_neg for row in rows], n_pos, n_neg)

