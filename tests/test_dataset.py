"""Dataset module: CSV I/O, marginals, synthesis, reporter rates, bias sim."""

from __future__ import annotations

import io

import numpy as np
import pytest

from pcrboost.dataset import (
    CSV_HEADER,
    FEATURE_NAMES,
    PATTERNS,
    SYMPTOM_FEATURES,
    Dataset,
    MarginalTable,
    asymptomatic_negative_indices,
    lattice_sums,
    load_csv,
    marginals_from,
    pattern_codes,
    reference_counts,
    reference_marginals,
    reporter_positive_rate,
    save_csv,
    simulate_bias,
    synthesize,
)
from pcrboost.errors import ContractError, DataFormatError
from oracles import (
    from_class_counts,
    make_dataset,
    reference_asymptomatic_negative_indices,
    reference_dataset,
    reference_load_csv,
    reference_marginals_from,
    reference_reporter_positive_rate,
    reference_save_csv,
)


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
        ds = Dataset(pattern_codes(X), y)
        buf = io.BytesIO()
        save_csv(ds, buf)
        assert load_csv(buf.getvalue()) == ds

    def test_lf_newlines_and_header(self):
        ds = Dataset(pattern_codes(np.zeros((1, 8), dtype=np.uint8)), np.zeros(1, dtype=np.uint8))
        buf = io.BytesIO()
        save_csv(ds, buf)
        blob = buf.getvalue()
        assert b"\r" not in blob
        assert blob.decode().splitlines()[0] == ",".join(CSV_HEADER)
        assert blob.decode().splitlines()[1] == "0,0,0,0,0,0,0,0,0"


# digit f of each of the 3^8 lattice indices: 0 or 1 fixes feature f, 2 leaves it free
LATTICE_DIGITS = np.arange(3 ** 8)[:, None] // 3 ** np.arange(8) % 3


class TestLatticeSums:
    """Every partial assignment's sum against summing its matching patterns."""

    def brute_force(self, values):
        matches = (LATTICE_DIGITS[:, None, :] == 2) | (LATTICE_DIGITS[:, None, :] == PATTERNS)
        return np.where(matches.all(axis=2), values, 0).sum(axis=1)

    def test_integer_counts_exact(self, rng):
        counts = rng.integers(0, 1000, size=256)
        lattice = lattice_sums(counts)
        assert lattice.shape == (3 ** 8,) and lattice.dtype == np.int64
        assert np.array_equal(lattice, self.brute_force(counts))

    def test_random_floats_close(self, rng):
        values = rng.random(256)
        assert np.allclose(lattice_sums(values), self.brute_force(values), rtol=1e-12, atol=0.0)

    def test_all_free_entry_is_the_total(self, rng):
        counts = rng.integers(0, 1000, size=256)
        assert lattice_sums(counts)[3 ** 8 - 1] == counts.sum()
        unit = lattice_sums(np.ones(256, dtype=np.int64))
        assert np.array_equal(unit, 2 ** np.sum(LATTICE_DIGITS == 2, axis=1))

    def test_leading_axis_sums_each_table_alone(self, rng):
        tables = np.stack([rng.normal(size=256), rng.random(256), rng.normal(size=256) * 1e9])
        stacked = lattice_sums(tables)
        assert stacked.shape == (3, 3 ** 8)
        for row, table in zip(stacked, tables):
            assert np.array_equal(row, lattice_sums(table))  # bit for bit

    def test_fixing_a_free_feature_partitions_its_node(self, rng):
        lattice = lattice_sums(rng.integers(0, 1000, size=256))
        for f in range(8):
            free = np.flatnonzero(LATTICE_DIGITS[:, f] == 2)
            assert len(free) == 3 ** 7
            fixed_0, fixed_1 = lattice[free - 2 * 3 ** f], lattice[free - 3 ** f]
            assert np.array_equal(lattice[free], fixed_0 + fixed_1)


class TestDatasetRecord:
    """A Dataset holds pattern codes and labels; X is derived from the codes."""

    @pytest.mark.parametrize("n", [0, 1, 7, 600])
    def test_x_is_the_matrix_the_codes_were_packed_from(self, rng, n):
        X = rng.integers(0, 2, size=(n, 8), dtype=np.uint8)
        ds = Dataset(pattern_codes(X), rng.integers(0, 2, size=n, dtype=np.uint8))
        assert ds.codes.dtype == ds.y.dtype == ds.X.dtype == np.uint8
        assert ds.X.shape == (n, 8) and np.array_equal(ds.X, X)
        assert not ds.X.flags.writeable

    def test_every_pattern_code(self):
        ds = Dataset(np.arange(256), np.zeros(256, dtype=np.uint8))
        assert np.array_equal(ds.X, PATTERNS)
        assert np.array_equal(pattern_codes(ds.X), ds.codes)

    @pytest.mark.parametrize("bad", [0.5, -1, 2])
    def test_label_not_zero_or_one_refused(self, bad):
        for labels in ([bad, 1], [0, bad]):
            with pytest.raises(ContractError, match="non-binary value in labels"):
                Dataset(np.array([3, 200]), np.array(labels))

    @pytest.mark.parametrize("bad", [0.5, -1, 256])
    def test_code_outside_the_patterns_refused(self, bad):
        with pytest.raises(ContractError, match="pattern code outside"):
            Dataset(np.array([3, bad]), np.array([0, 1]))

    def test_feature_matrix_is_not_a_code_vector(self):
        # an (n, 8) matrix goes through pattern_codes, which refuses 0.5 features
        with pytest.raises(ContractError, match="equal-length vectors"):
            Dataset(np.zeros((2, 8), dtype=np.uint8), np.array([0, 1]))
        with pytest.raises(ContractError, match="non-binary value in features"):
            Dataset(pattern_codes(np.full((2, 8), 0.5)), np.array([0, 1]))

    def test_label_length_must_match(self):
        with pytest.raises(ContractError, match="equal-length vectors"):
            Dataset(np.array([3, 4]), np.array([0, 1, 1]))

    def test_never_equal_to_a_non_dataset(self):
        ds = Dataset(np.array([3, 4]), np.array([0, 1]))
        assert ds == Dataset(np.array([3, 4]), np.array([0, 1]))
        assert not ds == 5 and ds != 5

    def test_line_table_and_csv_reader_fallback_agree(self, rng):
        ds = Dataset(rng.integers(0, 256, size=900), rng.integers(0, 2, size=900))
        buf = io.BytesIO()
        save_csv(ds, buf)
        lf = buf.getvalue()
        crlf = lf.replace(b"\n", b"\r\n")  # no line is in the table: csv.reader reads it all
        by_table, by_reader = load_csv(lf), load_csv(crlf)
        assert by_table == by_reader == ds
        for loaded in (by_table, by_reader):
            assert loaded.codes.dtype == loaded.y.dtype == np.uint8


def counts_oracle(ds: Dataset) -> np.ndarray:
    """The (pattern, label) count table, counted one record at a time."""
    counts = np.zeros((256, 2), dtype=np.int64)
    for code, label in zip(ds.codes.tolist(), ds.y.tolist()):
        counts[code, label] += 1
    return counts


class TestCounts:
    """Dataset.counts is the (256, 2) table counts[code, label], built once and read-only."""

    def datasets(self, rng):
        ds = make_dataset(rng, 3000)
        buf = io.BytesIO()
        save_csv(ds, buf)
        yield ds
        yield make_dataset(rng, 1)
        yield Dataset(np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        yield ds.take(rng.integers(0, len(ds), size=700))
        yield simulate_bias(ds, 0.6, seed=4)
        yield load_csv(buf.getvalue())

    def test_equals_per_record_oracle(self, rng):
        for ds in self.datasets(rng):
            assert ds.counts.shape == (256, 2) and ds.counts.dtype == np.int64
            assert np.array_equal(ds.counts, counts_oracle(ds))

    def test_class_counts_are_its_column_sums(self, rng):
        for ds in self.datasets(rng):
            assert ds.n_negative == ds.counts[:, 0].sum() == np.sum(ds.y == 0)
            assert ds.n_positive == ds.counts[:, 1].sum() == np.sum(ds.y == 1)

    def test_read_only_and_built_once(self, rng):
        ds = make_dataset(rng, 200)
        assert ds.counts is ds.counts
        with pytest.raises(ValueError):
            ds.counts[0, 0] = 7
        assert np.array_equal(ds.counts, counts_oracle(ds))


def column_scan_case(name: str, rng) -> Dataset:
    """Random datasets for the code-bit and count-table readers."""
    n, p_one, p_pos = {"one": (1, 0.5, 0.5), "small": (60, 0.5, 0.3),
                       "sparse": (800, 0.1, 0.5), "rare_positive": (3000, 0.6, 0.02),
                       "unreported_cough": (500, 0.5, 0.4), "all_negative": (500, 0.5, 0.0),
                       "all_positive": (40, 0.5, 1.0)}[name]
    X = (rng.random((n, 8)) < p_one).astype(np.uint8)
    if name == "unreported_cough":
        X[:, FEATURE_NAMES.index("cough")] = 0
    return Dataset(pattern_codes(X), (rng.random(n) < p_pos).astype(np.uint8))


def outcome(fn, *args):
    """fn's result, or the message of the ContractError it raises."""
    try:
        return fn(*args)
    except ContractError as exc:
        return f"ContractError: {exc}"


COLUMN_SCAN_CASES = ["one", "small", "sparse", "rare_positive", "unreported_cough",
                     "all_negative", "all_positive"]


class TestAgainstColumnScanOracles:
    """Readers of code bits and the 512-cell count table against the column scans they replaced."""

    @pytest.mark.parametrize("name", COLUMN_SCAN_CASES)
    def test_marginals_from(self, rng, name):
        ds = column_scan_case(name, rng)
        got = outcome(marginals_from, ds)
        want = outcome(reference_marginals_from, ds)
        if isinstance(want, str):
            assert got == want
            return
        assert np.array_equal(got.rate_given_positive, want.rate_given_positive)
        assert np.array_equal(got.rate_given_negative, want.rate_given_negative)

    @pytest.mark.parametrize("name", COLUMN_SCAN_CASES)
    def test_reporter_positive_rate(self, rng, name):
        ds = column_scan_case(name, rng)
        for feature in FEATURE_NAMES:
            want = outcome(reference_reporter_positive_rate, ds, feature)
            assert outcome(reporter_positive_rate, ds, feature) == want
        if name == "unreported_cough":
            assert outcome(reporter_positive_rate, ds, "cough") == (
                "ContractError: feature never reported: cough")

    @pytest.mark.parametrize("name", COLUMN_SCAN_CASES)
    def test_asymptomatic_negative_indices(self, rng, name):
        ds = column_scan_case(name, rng)
        got = asymptomatic_negative_indices(ds)
        assert got.dtype == np.intp
        assert np.array_equal(got, reference_asymptomatic_negative_indices(ds))

    def test_every_cell(self):
        cells = np.arange(512)
        ds = Dataset(cells >> 1, cells & 1)
        assert np.array_equal(asymptomatic_negative_indices(ds),
                              reference_asymptomatic_negative_indices(ds))
        assert np.array_equal(marginals_from(ds).rate_given_positive,
                              reference_marginals_from(ds).rate_given_positive)
        for feature in FEATURE_NAMES:
            assert (reporter_positive_rate(ds, feature)
                    == reference_reporter_positive_rate(ds, feature) == 0.5)


class TestAgainstPerCellOracles:
    """The per-line loader and writer against the per-cell loop they replaced."""

    @staticmethod
    def saved(save, ds) -> bytes:
        buf = io.BytesIO()
        save(ds, buf)
        return buf.getvalue()

    @pytest.mark.parametrize("n", [0, 1, 2, 513, 5000])
    def test_save_csv_bytes(self, rng, n):
        ds = Dataset(pattern_codes(rng.integers(0, 2, size=(n, 8), dtype=np.uint8)),
                     rng.integers(0, 2, size=n, dtype=np.uint8))
        assert self.saved(save_csv, ds) == self.saved(reference_save_csv, ds)

    def test_save_csv_bytes_every_cell(self):
        codes = np.arange(512)
        ds = Dataset(pattern_codes(PATTERNS[codes >> 1]), codes & 1)
        assert self.saved(save_csv, ds) == self.saved(reference_save_csv, ds)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_load_csv_permuted_columns(self, rng, newline):
        ds = Dataset(pattern_codes(rng.integers(0, 2, size=(3000, 8), dtype=np.uint8)),
                     rng.integers(0, 2, size=3000, dtype=np.uint8))
        perm = list(rng.permutation(9))
        rows = np.column_stack([ds.X, ds.y])[:, perm].tolist()
        blob = csv_bytes([CSV_HEADER[i] for i in perm], rows).replace(b"\n", newline)
        assert load_csv(blob) == reference_load_csv(blob) == ds

    def test_undecodable_byte_beyond_the_first_chunk_wins(self):
        # an invalid byte past the first 8 KiB decode chunk is named before every
        # row of the 64 KiB read it lies in (here the whole 36 KB body), so before
        # an earlier bad row, which the per-row oracle names; both exit 2
        body = [[0] * 9] * 2000
        body[0] = [2] + [0] * 8
        blob = csv_bytes(CSV_HEADER, body) + b"\xff\n"
        with pytest.raises(DataFormatError, match="not UTF-8"):
            load_csv(blob)
        with pytest.raises(DataFormatError, match="line 2: non-binary value '2'"):
            reference_load_csv(blob)


class TestMarginals:
    def test_reference_positive_fever_rate(self):
        m = reference_marginals()
        fever = m.rate_given_positive[FEATURE_NAMES.index("fever")]
        assert fever == 3735 / 8393
        assert abs(fever - 0.4450) < 5e-4

    def test_reference_cough_rates(self):
        m = reference_marginals()
        cough = FEATURE_NAMES.index("cough")
        assert m.rate_given_positive[cough] == 4053 / 8393
        assert m.rate_given_negative[cough] == 10715 / 90839

    def test_all_positive_single_record_errors(self):
        ds = Dataset(pattern_codes(np.ones((1, 8), dtype=np.uint8)), np.ones(1, dtype=np.uint8))
        with pytest.raises(ContractError, match="degenerate class balance"):
            marginals_from(ds)

    def test_matches_counting_oracle(self, rng):
        ds = Dataset(
            pattern_codes(rng.integers(0, 2, size=(100, 8), dtype=np.uint8)),
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
            MarginalTable(np.full(8, 1.2), np.zeros(8))

    @pytest.mark.parametrize("shape", [(7,), (9,), (1, 8), ()], ids=str)
    def test_rate_shape_enforced(self, shape):
        for rates in ((np.zeros(shape), np.zeros(8)), (np.zeros(8), np.zeros(shape))):
            with pytest.raises(ContractError, match=r"rates must have shape \(8,\)"):
                MarginalTable(*rates)

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
        assert abs(m.rate_given_positive[FEATURE_NAMES.index("cough")] - 0.4829) < 0.02

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

    @pytest.mark.parametrize("n_pos, n_neg", [(-1, 5), (5, -1), (-1, -1)])
    def test_negative_class_count_rejected(self, n_pos, n_neg):
        with pytest.raises(ContractError, match="class counts must be nonnegative"):
            synthesize(reference_marginals(), n_pos, n_neg, seed=1)

    def test_round_trip_concentration(self, rng):
        ds = Dataset(
            pattern_codes((rng.random((400, 8)) < 0.35).astype(np.uint8)),
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
        ds = Dataset(pattern_codes(np.zeros((3, 8), dtype=np.uint8)),
                     np.array([1, 0, 1], dtype=np.uint8))
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
    return Dataset(pattern_codes(X), y)


class TestSimulateBias:
    def test_fraction_zero_identity(self):
        ds = bias_fixture_dataset()
        assert simulate_bias(ds, 0.0, seed=4) == ds

    def test_fraction_one_removes_all_asymptomatic_negatives(self):
        ds = bias_fixture_dataset()
        out = simulate_bias(ds, 1.0, seed=4)
        assert len(asymptomatic_negative_indices(out)) == 0
        assert len(out) == len(ds) - 1000

    def test_half_fraction_removes_exactly_half(self):
        ds = bias_fixture_dataset(n_asym=1000)
        out = simulate_bias(ds, 0.5, seed=4)
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
        ds = Dataset(pattern_codes(X), y)
        out = simulate_bias(ds, 0.75, seed=8)
        rows_in = [tuple(r) for r in np.column_stack([ds.X, ds.y]).tolist()]
        rows_out = [tuple(r) for r in np.column_stack([out.X, out.y]).tolist()]
        for row in set(rows_out):
            assert rows_out.count(row) <= rows_in.count(row)

    def test_order_preserved_and_deterministic(self):
        ds = bias_fixture_dataset(n_asym=50)
        a = simulate_bias(ds, 0.4, seed=3)
        b = simulate_bias(ds, 0.4, seed=3)
        assert a == b
        # kept rows appear in their original relative order: the symptomatic
        # tail (last 100 records) must be the tail of the output too
        assert np.array_equal(a.X[-100:], ds.X[-100:])

    def test_drop_fraction_bounds(self):
        with pytest.raises(ContractError, match="drop_fraction"):
            simulate_bias(Dataset(np.zeros(0), np.zeros(0)), 1.5, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_empty_dataset_rejected(self, fraction):
        with pytest.raises(ContractError, match="empty dataset"):
            simulate_bias(Dataset(np.zeros(0), np.zeros(0)), fraction, seed=0)


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
