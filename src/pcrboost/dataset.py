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
from dataclasses import dataclass
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


def pattern_codes(X) -> np.ndarray:
    """uint8 pattern code of each row of an (n, 8) 0/1 matrix; other values are refused."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise ContractError(f"feature vector length must be {N_FEATURES}")
    if not np.isin(X, (0, 1)).all():
        raise ContractError("non-binary value in features")
    return np.packbits(X.astype(np.uint8, copy=False), axis=1, bitorder="little")[:, 0]


def distinct_patterns(X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct pattern codes of X's rows, ascending; each one's first row; each row's index
    into them)."""
    return np.unique(pattern_codes(X), return_index=True, return_inverse=True)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered records of 8 binary features plus a binary label.

    Attributes:
        X: uint8 array of shape (n_records, 8), feature values in schema order.
        y: uint8 array of shape (n_records,), 1 = positive RT-PCR.
        provenance: free-text origin tag (e.g. "csv:path", "synth:seed=7").
    """

    X: np.ndarray
    y: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        X = np.array(self.X, dtype=np.uint8, copy=True)
        y = np.array(self.y, dtype=np.uint8, copy=True)
        if X.ndim != 2 or X.shape[1] != N_FEATURES:
            raise ContractError(f"feature matrix must be (n, {N_FEATURES}), got {X.shape}")
        if y.shape != (X.shape[0],):
            raise ContractError("label vector length must match record count")
        if X.size and X.max() > 1:
            raise ContractError("non-binary value in features")
        if y.size and y.max() > 1:
            raise ContractError("non-binary value in labels")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.X.shape[0]

    def __eq__(self, other) -> bool:
        """Record equality: same features and labels (provenance excluded)."""
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.X, other.X) and np.array_equal(self.y, other.y)

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def n_negative(self) -> int:
        return int(np.sum(self.y == 0))

    def take(self, indices: np.ndarray, provenance: str | None = None) -> "Dataset":
        """Sub-dataset at the given record indices, in the given order."""
        return Dataset(
            self.X[indices],
            self.y[indices],
            self.provenance if provenance is None else provenance,
        )


@dataclass(frozen=True)
class MarginalTable:
    """Class-conditional feature rates plus the class counts behind them."""

    rate_given_positive: np.ndarray
    rate_given_negative: np.ndarray
    n_positive: int
    n_negative: int

    def __post_init__(self):
        rp = np.array(self.rate_given_positive, dtype=np.float64, copy=True)
        rn = np.array(self.rate_given_negative, dtype=np.float64, copy=True)
        if rp.shape != (N_FEATURES,) or rn.shape != (N_FEATURES,):
            raise ContractError(f"rates must have shape ({N_FEATURES},)")
        for rates in (rp, rn):
            if not np.all((rates >= 0.0) & (rates <= 1.0)):
                raise ContractError("rates outside [0,1]")
        if self.n_positive < 0 or self.n_negative < 0:
            raise ContractError("class counts must be nonnegative")
        rp.flags.writeable = False
        rn.flags.writeable = False
        object.__setattr__(self, "rate_given_positive", rp)
        object.__setattr__(self, "rate_given_negative", rn)

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


def load_csv(source) -> Dataset:
    """Parse a dataset from a byte stream (or bytes) of the documented CSV.

    The header must name all 8 schema columns plus `label`, in any order;
    columns are mapped onto schema order. Body cells must be literal 0 or 1.
    A leading UTF-8 byte-order mark is skipped.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        reader = csv.reader(text)
        try:
            header = next(reader)
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
        order = [seen[name] for name in CSV_HEADER]

        rows: list[list[int]] = []
        try:
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(CSV_HEADER):
                    raise DataFormatError(f"line {lineno}: expected {len(CSV_HEADER)} cells, got {len(row)}")
                out = []
                for pos in order:
                    cell = row[pos]
                    if cell == "0":
                        out.append(0)
                    elif cell == "1":
                        out.append(1)
                    else:
                        raise DataFormatError(f"line {lineno}: non-binary value {cell!r}")
                rows.append(out)
        except csv.Error as exc:
            raise DataFormatError(f"malformed CSV: {exc}") from None
        if not rows:
            raise DataFormatError("empty CSV body")
        arr = np.array(rows, dtype=np.uint8)
        return Dataset(arr[:, :N_FEATURES], arr[:, N_FEATURES], provenance="csv")
    except UnicodeDecodeError:
        raise DataFormatError("malformed CSV: not UTF-8 text") from None
    finally:
        text.detach()


def save_csv(ds: Dataset, dest) -> None:
    """Write the documented CSV (LF newlines, ASCII 0/1 cells) to a binary stream."""
    lines = [",".join(CSV_HEADER)]
    body = np.column_stack([ds.X, ds.y])
    for row in body:
        lines.append(",".join("1" if v else "0" for v in row))
    dest.write(("\n".join(lines) + "\n").encode("ascii"))


def marginals_from(ds: Dataset) -> MarginalTable:
    """Class-conditional feature rates: count(feature=1 and class) / count(class)."""
    n_pos = ds.n_positive
    n_neg = ds.n_negative
    if n_pos == 0 or n_neg == 0:
        raise ContractError("degenerate class balance: one class absent")
    pos_counts = ds.X[ds.y == 1].sum(axis=0, dtype=np.int64)
    neg_counts = ds.X[ds.y == 0].sum(axis=0, dtype=np.int64)
    return MarginalTable(pos_counts / n_pos, neg_counts / n_neg, n_pos, n_neg)


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
    rng = _rng(seed)
    y = np.concatenate([np.ones(n_pos, dtype=np.uint8), np.zeros(n_neg, dtype=np.uint8)])
    rng.shuffle(y)
    rates = np.where(
        (y == 1)[:, None], m.rate_given_positive[None, :], m.rate_given_negative[None, :]
    )
    X = (rng.random((n, N_FEATURES)) < rates).astype(np.uint8)
    return Dataset(X, y, provenance=f"synth:seed={seed}")


def reporter_positive_rate(ds: Dataset, feature: str) -> float:
    """Among records reporting the feature, the fraction with a positive label."""
    i = FEATURE_NAMES.index(feature)
    reporters = ds.X[:, i] == 1
    n_reporters = int(np.sum(reporters))
    if n_reporters == 0:
        raise ContractError(f"feature never reported: {feature}")
    n_pos = int(np.sum(ds.y[reporters] == 1))
    return n_pos / n_reporters


def asymptomatic_negative_indices(ds: Dataset) -> np.ndarray:
    """Indices of negative-labeled records reporting none of the five symptoms."""
    cols = [FEATURE_NAMES.index(f) for f in SYMPTOM_FEATURES]
    no_symptoms = ~np.any(ds.X[:, cols] == 1, axis=1)
    return np.flatnonzero((ds.y == 0) & no_symptoms)


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
        dropped = _rng(cfg.seed).choice(candidates, size=n_drop, replace=False)
        keep[dropped] = False
    return ds.take(
        np.flatnonzero(keep),
        provenance=f"{ds.provenance}|bias:drop={cfg.drop_fraction},seed={cfg.seed}",
    )


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
    rate_pos = np.empty(N_FEATURES)
    rate_neg = np.empty(N_FEATURES)
    for i, name in enumerate(FEATURE_NAMES):
        row = counts["features"][name]["true"]
        rate_pos[i] = row["positive_n"] / n_pos
        rate_neg[i] = row["negative_n"] / n_neg
    return MarginalTable(rate_pos, rate_neg, n_pos, n_neg)

