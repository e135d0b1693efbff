"""Dataset module: CSV I/O, marginals, synthesis, reporter rates, bias sim."""

from __future__ import annotations

import io

import numpy as np
import pytest

from pcrboost.dataset import (
    CSV_HEADER,
    FEATURE_NAMES,
    SYMPTOM_FEATURES,
    BiasSimConfig,
    Dataset,
    MarginalTable,
    asymptomatic_negative_indices,
    load_csv,
    marginals_from,
    reference_counts,
    reference_marginals,
    reporter_positive_rate,
    save_csv,
    simulate_bias,
    synthesize,
)
from pcrboost.errors import ContractError, DataFormatError
from conftest import from_class_counts, reference_dataset


def csv_bytes(header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestLoadCsv:
    def test_single_row_direct_parse(self):
        ds = load_csv(csv_bytes(CSV_HEADER, [[1, 0, 1, 0, 0, 0, 0, 1, 1]]))
        assert len(ds) == 1
        assert ds.X[0, FEATURE_NAMES.index("cough")] == 1
        assert ds.X[0, FEATURE_NAMES.index("sex_male")] == 1
        assert ds.X[0, FEATURE_NAMES.index("fever")] == 0
        assert ds.y[0] == 1

    def test_non_binary_value_rejected(self):
        blob = csv_bytes(CSV_HEADER, [[2, 0, 0, 0, 0, 0, 0, 0, 0]])
        with pytest.raises(DataFormatError, match="non-binary value"):
            load_csv(blob)

    def test_permuted_columns_equal_unpermuted(self, rng):
        n = 40
        X = rng.integers(0, 2, size=(n, 8), dtype=np.uint8)
        y = rng.integers(0, 2, size=n, dtype=np.uint8)
        rows = np.column_stack([X, y]).tolist()
        straight = load_csv(csv_bytes(CSV_HEADER, rows))

        perm = list(rng.permutation(9))
        header = [CSV_HEADER[i] for i in perm]
        shuffled_rows = [[row[i] for i in perm] for row in rows]
        permuted = load_csv(csv_bytes(header, shuffled_rows))
        assert permuted == straight

    def test_missing_column(self):
        with pytest.raises(DataFormatError, match="missing column"):
            load_csv(csv_bytes(CSV_HEADER[:-1], [[0] * 8]))

    def test_duplicate_column(self):
        header = list(CSV_HEADER[:-1]) + ["cough"]
        with pytest.raises(DataFormatError, match="duplicate column"):
            load_csv(csv_bytes(header, [[0] * 9]))

    def test_unknown_column(self):
        header = list(CSV_HEADER) + ["extra"]
        with pytest.raises(DataFormatError, match="unknown column"):
            load_csv(csv_bytes(header, [[0] * 10]))

    def test_empty_body(self):
        with pytest.raises(DataFormatError, match="empty CSV body"):
            load_csv(csv_bytes(CSV_HEADER, []))

    def test_ragged_row(self):
        with pytest.raises(DataFormatError, match="expected 9 cells"):
            load_csv(csv_bytes(CSV_HEADER, [[0, 1]]))

    def test_crlf_accepted(self):
        blob = csv_bytes(CSV_HEADER, [[0] * 9]).replace(b"\n", b"\r\n")
        assert len(load_csv(blob)) == 1

    def test_utf8_bom_accepted(self):
        blob = csv_bytes(CSV_HEADER, [[1, 0, 1, 0, 0, 0, 0, 1, 1]])
        assert load_csv(b"\xef\xbb\xbf" + blob) == load_csv(blob)
        assert load_csv(io.BytesIO(b"\xef\xbb\xbf" + blob)) == load_csv(blob)


class TestSaveCsv:
    def test_round_trip_identity(self, rng):
        X = rng.integers(0, 2, size=(25, 8), dtype=np.uint8)
        y = rng.integers(0, 2, size=25, dtype=np.uint8)
        ds = Dataset(X, y)
        buf = io.BytesIO()
        save_csv(ds, buf)
        assert load_csv(buf.getvalue()) == ds

    def test_lf_newlines_and_header(self):
        ds = Dataset(np.zeros((1, 8), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        buf = io.BytesIO()
        save_csv(ds, buf)
        blob = buf.getvalue()
        assert b"\r" not in blob
        assert blob.decode().splitlines()[0] == ",".join(CSV_HEADER)
        assert blob.decode().splitlines()[1] == "0,0,0,0,0,0,0,0,0"


class TestMarginals:
    def test_reference_positive_fever_rate(self):
        m = reference_marginals()
        assert m.rate("fever", 1) == 3735 / 8393
        assert abs(m.rate("fever", 1) - 0.4450) < 5e-4

    def test_reference_cough_rates(self):
        m = reference_marginals()
        assert m.rate("cough", 1) == 4053 / 8393
        assert m.rate("cough", 0) == 10715 / 90839

    def test_all_positive_single_record_errors(self):
        ds = Dataset(np.ones((1, 8), dtype=np.uint8), np.ones(1, dtype=np.uint8))
        with pytest.raises(ContractError, match="degenerate class balance"):
            marginals_from(ds)

    def test_matches_counting_oracle(self, rng):
        ds = Dataset(
            rng.integers(0, 2, size=(100, 8), dtype=np.uint8),
            np.array([1] * 37 + [0] * 63, dtype=np.uint8),
        )
        m = marginals_from(ds)
        for i in range(8):
            pos = sum(1 for r in range(100) if ds.y[r] == 1 and ds.X[r, i] == 1)
            neg = sum(1 for r in range(100) if ds.y[r] == 0 and ds.X[r, i] == 1)
            assert m.rate_given_positive[i] == pos / 37
            assert m.rate_given_negative[i] == neg / 63

    def test_rate_bounds_enforced(self):
        with pytest.raises(ContractError, match="rates outside"):
            MarginalTable(np.full(8, 1.2), np.zeros(8), 1, 1)

    def test_reference_dataset_realizes_counts(self):
        counts = reference_counts()["features"]
        ds = reference_dataset()
        assert (len(ds), ds.n_positive, ds.n_negative) == (99232, 8393, 90839)
        for i, name in enumerate(FEATURE_NAMES):
            assert int(ds.X[ds.y == 1, i].sum()) == counts[name]["true"]["positive_n"]
            assert int(ds.X[ds.y == 0, i].sum()) == counts[name]["true"]["negative_n"]


class TestSynthesize:
    def test_empirical_rates_near_reference(self):
        ds = synthesize(reference_marginals(), 4769, 47062, seed=101)
        m = marginals_from(ds)
        assert abs(m.rate("cough", 1) - 0.4829) < 0.02

    def test_n_pos_zero_all_negative(self):
        ds = synthesize(reference_marginals(), 0, 5, seed=1)
        assert len(ds) == 5
        assert ds.n_positive == 0

    def test_same_seed_byte_identical(self):
        m = reference_marginals()
        a, b = synthesize(m, 50, 200, seed=9), synthesize(m, 50, 200, seed=9)
        bufs = []
        for ds in (a, b):
            buf = io.BytesIO()
            save_csv(ds, buf)
            bufs.append(buf.getvalue())
        assert a == b
        assert bufs[0] == bufs[1]

    def test_empty_request_rejected(self):
        with pytest.raises(ContractError):
            synthesize(reference_marginals(), 0, 0, seed=1)

    def test_round_trip_concentration(self, rng):
        ds = Dataset(
            (rng.random((400, 8)) < 0.35).astype(np.uint8),
            np.array([1] * 150 + [0] * 250, dtype=np.uint8),
        )
        m = marginals_from(ds)
        big = synthesize(m, 60_000, 60_000, seed=17)
        m2 = marginals_from(big)
        assert np.all(np.abs(m2.rate_given_positive - m.rate_given_positive) < 0.01)
        assert np.all(np.abs(m2.rate_given_negative - m.rate_given_negative) < 0.01)


class TestReporterPositiveRate:
    def test_reference_rates_match_published(self):
        ds = reference_dataset()
        assert reporter_positive_rate(ds, "headache") == 1731 / 1799
        assert reporter_positive_rate(ds, "cough") == 4053 / 14768
        assert reporter_positive_rate(ds, "shortness_of_breath") == 859 / 930

    def test_feature_never_reported(self):
        ds = Dataset(np.zeros((3, 8), dtype=np.uint8), np.array([1, 0, 1], dtype=np.uint8))
        with pytest.raises(ContractError, match="never reported"):
            reporter_positive_rate(ds, "cough")


def bias_fixture_dataset(n_asym: int = 1000):
    """n_asym asymptomatic negatives plus symptomatic positives/negatives."""
    blocks = []
    asym = np.zeros((n_asym, 8), dtype=np.uint8)
    asym[:, 0] = 1  # sex bit set so records are not all-zero rows
    blocks.append((asym, np.zeros(n_asym, dtype=np.uint8)))
    sympt_neg = np.zeros((60, 8), dtype=np.uint8)
    sympt_neg[:, FEATURE_NAMES.index("headache")] = 1
    blocks.append((sympt_neg, np.zeros(60, dtype=np.uint8)))
    pos = np.zeros((40, 8), dtype=np.uint8)
    pos[:, FEATURE_NAMES.index("headache")] = 1
    pos[:, FEATURE_NAMES.index("cough")] = 1
    blocks.append((pos, np.ones(40, dtype=np.uint8)))
    X = np.concatenate([b for b, _ in blocks])
    y = np.concatenate([lbl for _, lbl in blocks])
    return Dataset(X, y)


class TestSimulateBias:
    def test_fraction_zero_identity(self):
        ds = bias_fixture_dataset()
        assert simulate_bias(ds, BiasSimConfig(0.0, seed=4)) == ds

    def test_fraction_one_removes_all_asymptomatic_negatives(self):
        ds = bias_fixture_dataset()
        out = simulate_bias(ds, BiasSimConfig(1.0, seed=4))
        assert len(asymptomatic_negative_indices(out)) == 0
        assert len(out) == len(ds) - 1000

    def test_half_fraction_removes_exactly_half(self):
        ds = bias_fixture_dataset(n_asym=1000)
        out = simulate_bias(ds, BiasSimConfig(0.5, seed=4))
        assert len(out) == len(ds) - 500
        assert len(asymptomatic_negative_indices(out)) == 500
        # headache reporters are untouched by construction, so the reporter
        # rate is provably unchanged (dropped records report no symptoms)
        before = reporter_positive_rate(ds, "headache")
        after = reporter_positive_rate(out, "headache")
        assert after == before
        assert before == 40 / 100

    def test_output_is_multiset_subset(self, rng):
        X = rng.integers(0, 2, size=(300, 8), dtype=np.uint8)
        y = rng.integers(0, 2, size=300, dtype=np.uint8)
        ds = Dataset(X, y)
        out = simulate_bias(ds, BiasSimConfig(0.75, seed=8))
        rows_in = [tuple(r) for r in np.column_stack([ds.X, ds.y]).tolist()]
        rows_out = [tuple(r) for r in np.column_stack([out.X, out.y]).tolist()]
        for row in set(rows_out):
            assert rows_out.count(row) <= rows_in.count(row)

    def test_order_preserved_and_deterministic(self):
        ds = bias_fixture_dataset(n_asym=50)
        a = simulate_bias(ds, BiasSimConfig(0.4, seed=3))
        b = simulate_bias(ds, BiasSimConfig(0.4, seed=3))
        assert a == b
        # kept rows appear in their original relative order: the symptomatic
        # tail (last 100 records) must be the tail of the output too
        assert np.array_equal(a.X[-100:], ds.X[-100:])

    def test_drop_fraction_bounds(self):
        with pytest.raises(ContractError, match="drop_fraction"):
            BiasSimConfig(1.5, seed=0)


class TestReferenceTable:
    def test_class_totals_from_sex_rows(self):
        counts = reference_counts()["features"]["sex_male"]
        assert counts["true"]["positive_n"] + counts["false"]["positive_n"] == 8393
        assert counts["true"]["negative_n"] + counts["false"]["negative_n"] == 90839

    def test_sore_throat_duplicates_fever_as_printed(self):
        feats = reference_counts()["features"]
        assert feats["sore_throat"]["true"] == feats["fever"]["true"]

    def test_symptom_feature_set(self):
        assert set(SYMPTOM_FEATURES) == {
            "cough", "fever", "sore_throat", "shortness_of_breath", "headache",
        }

    def test_from_class_counts_validates(self):
        pos = dict.fromkeys(FEATURE_NAMES, 2)
        neg = dict.fromkeys(FEATURE_NAMES, 1)
        with pytest.raises(ContractError):
            from_class_counts(pos, neg, n_positive=1, n_negative=5)
