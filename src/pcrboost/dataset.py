"""Datasets of binary symptom features with RT-PCR labels.

Ingests and emits the fixed-schema CSV format, synthesizes datasets
calibrated to the published class-conditional marginals of the Israeli
Ministry of Health RT-PCR symptom survey, computes reporter-positive
rates, and produces the under-reporting bias simulation variants.

Every record is one of 256 patterns with one of 2 labels, so a dataset's
statistics come from its (256, 2) count table `Dataset.counts`, counted
once on first read: the class counts, `marginals_from`,
`reporter_positive_rate` and `gbm.fit` read it, not the records.

All randomness in this package uses NumPy's PCG64 generator with one
explicit seed per operation; see the README for the policy.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import ContractError, DataFormatError
from .formatting import read_table

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
# 2^f for each feature f: a 0/1 row's dot product with these is its pattern code
_BIT_VALUES = (1 << np.arange(N_FEATURES)).astype(np.uint8)
# the lattice layout: entry sum(a_f * LATTICE_STEPS[f]), with a_f = 0 or 1 fixing
# feature f and a_f = 2 leaving it free; Python ints, for list and memoryview indexing
LATTICE_STEPS = tuple(3 ** f for f in range(N_FEATURES))


def lattice_sums(per_pattern) -> np.ndarray:
    """Sums of 256-entry per-pattern arrays over every partial assignment.

    The patterns are the last axis; leading axes are kept, so several
    tables are summed in one pass with the same additions as one at a time.
    Entry sum(a_f * LATTICE_STEPS[f]) of the 3^8 result sums the patterns
    that match the fixed features; the last entry (all free) is the total.
    Each of the 8 steps appends one feature's sum along its axis as that
    axis's third index.
    """
    table = np.asarray(per_pattern)
    lead = table.shape[:-1]
    for f in range(N_FEATURES):
        # axes: the leading axes, the pattern bits above f, bit f, the 3^f assignments below f
        t = table.reshape(*lead, -1, 2, LATTICE_STEPS[f])
        table = np.concatenate([t, t[..., :1, :] + t[..., 1:, :]], axis=-2)
    return table.reshape(*lead, -1)


def pattern_codes(X) -> np.ndarray:
    """uint8 pattern code of each row of an (n, 8) 0/1 matrix; other values are refused."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise ContractError(f"feature vector length must be {N_FEATURES}")
    if not ((X == 0) | (X == 1)).all():  # as np.isin(X, (0, 1)), without its lookup table
        raise ContractError("non-binary value in features")
    return X.astype(np.uint8, copy=False) @ _BIT_VALUES


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

    @cached_property
    def counts(self) -> np.ndarray:
        """(256, 2) int64 (pattern, label) count table: counts[code, label] records."""
        cells = 2 * self.codes.astype(np.int64) + self.y  # cell 2 * code + label
        counts = np.bincount(cells, minlength=2 * len(PATTERNS)).reshape(-1, 2)
        counts.flags.writeable = False
        return counts

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __eq__(self, other) -> bool:
        """Record equality: same patterns and labels."""
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.codes, other.codes) and np.array_equal(self.y, other.y)

    @property
    def n_positive(self) -> int:
        return int(self.counts[:, 1].sum())

    @property
    def n_negative(self) -> int:
        return int(self.counts[:, 0].sum())

    def take(self, indices: np.ndarray) -> "Dataset":
        """Sub-dataset at the given record indices, in the given order."""
        return Dataset(self.codes[indices], self.y[indices])


@dataclass(frozen=True, eq=False)
class MarginalTable:
    """Class-conditional feature rates, in schema order."""

    rate_given_positive: np.ndarray
    rate_given_negative: np.ndarray

    def __post_init__(self):
        for name in ("rate_given_positive", "rate_given_negative"):
            rates = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if rates.shape != (N_FEATURES,):
                raise ContractError(f"rates must have shape ({N_FEATURES},)")
            if not np.all((rates >= 0.0) & (rates <= 1.0)):
                raise ContractError("rates outside [0,1]")
            rates.flags.writeable = False
            object.__setattr__(self, name, rates)


def load_csv(source) -> Dataset:
    """Parse a dataset from a byte stream (or bytes) of the documented CSV.

    The header must name all 8 schema columns plus `label`, in any order;
    columns are mapped onto schema order. Body cells must be literal 0 or 1.
    A leading UTF-8 byte-order mark is skipped.

    Each distinct line is checked once. The first bad row in file order is
    named (a blank line is a row of no cells); a csv error, or a byte that is
    not UTF-8, is named once the rows read before it pass.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        header, rows, ids, error = read_table(text, None)
    finally:
        text.detach()
    if header is None:
        raise DataFormatError(f"malformed CSV: {error}" if error else "empty CSV: missing header")
    for pos, name in enumerate(header):
        if name not in CSV_HEADER:
            raise DataFormatError(f"unknown column {name!r}")
        if header.index(name) < pos:
            raise DataFormatError(f"duplicate column {name!r}")
    missing = [name for name in CSV_HEADER if name not in header]
    if missing:
        raise DataFormatError(f"missing column {missing[0]!r}")
    positions = [header.index(name) for name in CSV_HEADER]

    cells = []  # each distinct row's cells, in schema order
    for k, row in enumerate(rows):
        if len(row) != len(CSV_HEADER):
            raise DataFormatError(f"line {ids.index(k) + 2}: "
                                  f"expected {len(CSV_HEADER)} cells, got {len(row)}")
        bad = next((row[pos] for pos in positions if row[pos] not in ("0", "1")), None)
        if bad is not None:
            raise DataFormatError(f"line {ids.index(k) + 2}: non-binary value {bad!r}")
        cells.append([row[pos] == "1" for pos in positions])
    if error is not None:
        raise DataFormatError(f"malformed CSV: {error}")
    if not ids:
        raise DataFormatError("empty CSV body")
    cells, ids = np.array(cells, dtype=np.uint8), np.fromiter(ids, np.intp, len(ids))
    return Dataset((cells[:, :N_FEATURES] @ _BIT_VALUES)[ids], cells[ids, N_FEATURES])


def save_csv(ds: Dataset, dest) -> None:
    """Write the documented CSV (LF newlines, ASCII 0/1 cells) to a binary stream."""
    # the 512 body lines, indexed as the count table is: [pattern code, label]
    lines = np.array([[",".join(map(str, x)) + f",{label}\n" for label in (0, 1)]
                      for x in PATTERNS.tolist()], dtype=object)
    dest.write((",".join(CSV_HEADER) + "\n").encode("ascii"))
    dest.write("".join(lines[ds.codes, ds.y]).encode("ascii"))


def marginals_from(ds: Dataset) -> MarginalTable:
    """Class-conditional feature rates: count(feature=1 and class) / count(class)."""
    n_neg, n_pos = ds.counts.sum(axis=0).tolist()
    if n_pos == 0 or n_neg == 0:
        raise ContractError("degenerate class balance: one class absent")
    true_counts = PATTERNS.T @ ds.counts  # (8, 2): feature = 1, by label; integer, no BLAS
    return MarginalTable(true_counts[:, 1] / n_pos, true_counts[:, 0] / n_neg)


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
    n_neg, n_pos = (PATTERNS[:, FEATURE_NAMES.index(feature)] @ ds.counts).tolist()
    if n_neg + n_pos == 0:
        raise ContractError(f"feature never reported: {feature}")
    return n_pos / (n_neg + n_pos)


def asymptomatic_negative_indices(ds: Dataset) -> np.ndarray:
    """Indices of negative-labeled records reporting none of the five symptoms."""
    symptoms = sum(1 << FEATURE_NAMES.index(f) for f in SYMPTOM_FEATURES)
    return np.flatnonzero((ds.y == 0) & (ds.codes & symptoms == 0))


def simulate_bias(ds: Dataset, drop_fraction: float, seed: int) -> Dataset:
    """Remove a seeded uniformly random drop_fraction of asymptomatic negatives.

    The presumed under-reporters are the negative-labeled records whose five
    symptom features are all 0; all other records are retained in order.
    """
    if not 0.0 <= drop_fraction <= 1.0:  # false for NaN too
        raise ContractError("drop_fraction must be in [0,1]")
    if len(ds) == 0:
        raise ContractError("empty dataset")
    candidates = asymptomatic_negative_indices(ds)
    n_drop = int(len(candidates) * drop_fraction + 0.5)
    keep = np.ones(len(ds), dtype=bool)
    if n_drop:
        rng = np.random.Generator(np.random.PCG64(seed))
        dropped = rng.choice(candidates, size=n_drop, replace=False)
        keep[dropped] = False
    return ds.take(np.flatnonzero(keep))


def reference_counts() -> dict:
    """The bundled verbatim survey counts (per feature x {true,false} x class)."""
    payload = resources.files("pcrboost.data").joinpath("reference_counts.json")
    return json.loads(payload.read_text(encoding="utf-8"))


def reference_marginals() -> MarginalTable:
    """MarginalTable from the bundled survey counts (the default generator source)."""
    counts = reference_counts()
    # Only the sex, age and contact rows sum consistently in the source;
    # class totals are fixed from the sex rows.
    sex = counts["features"]["sex_male"]
    n_pos = sex["true"]["positive_n"] + sex["false"]["positive_n"]
    n_neg = sex["true"]["negative_n"] + sex["false"]["negative_n"]
    rows = [counts["features"][name]["true"] for name in FEATURE_NAMES]
    return MarginalTable([row["positive_n"] / n_pos for row in rows],
                         [row["negative_n"] / n_neg for row in rows])

