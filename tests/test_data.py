"""Dataset loading, validation, writing, and Poisson subsampling of row ids."""
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import make_dataset
from dpmix import data
from dpmix.data import (
    DENSE_CSV,
    SPARSE_ITEMS,
    load_labels,
    load_records,
    sample_batch,
    write_records,
)
from dpmix.errors import DataError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _reference_parse(text, allow_empty):
    """Line-by-line sparse-items parser: the records, or the DataError message."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("m="):
        return "line 1: expected header 'm=<int>'"
    m = int(lines[0][2:])
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        row = np.zeros(m, dtype=np.uint8)
        if not tokens:
            if not allow_empty:
                return f"line {lineno}: empty record"
            rows.append(row)
            continue
        try:  # object dtype: exact also for indices past int64
            idx = np.array([int(t) for t in tokens], dtype=object)
        except ValueError:
            return f"line {lineno}: malformed item index"
        if (idx < 0).any() or (idx >= m).any():
            bad = idx[(idx < 0) | (idx >= m)][0]
            return f"line {lineno}: item index {bad} out of range [0, {m})"
        if idx.size > 1 and not (np.diff(idx) > 0).all():
            return f"line {lineno}: item indices must be strictly increasing"
        row[idx.astype(np.int64)] = 1
        rows.append(row)
    return np.stack(rows)


def _reference_write(records):
    """Row-by-row sparse-items writer."""
    out = [f"m={records.shape[1]}"]
    for row in records:
        out.append(" ".join(str(int(i)) for i in np.flatnonzero(row)))
    return "\n".join(out) + "\n"


def _load_or_message(path, allow_empty):
    try:
        return load_records(path, SPARSE_ITEMS, allow_empty=allow_empty).records
    except DataError as exc:
        return str(exc)


def _assert_parses_like_reference(path, allow_empty):
    want = _reference_parse(path.read_bytes().decode("utf-8"), allow_empty)
    got = _load_or_message(path, allow_empty)
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


def _messy_text(records, rng, newline):
    """Sparse-items text with tabs, repeated, leading and trailing blanks."""
    blanks = np.array([" ", "\t", "  ", " \t ", "\t\t"])
    seps = iter(rng.choice(blanks, size=int(records.sum()) + 2 * len(records)).tolist())
    trail = (rng.random(len(records)) < 0.3).tolist()
    lines = [f"m={records.shape[1]}"]
    for row, trailing in zip(records, trail):
        line = "".join(next(seps) + str(i) for i in np.flatnonzero(row).tolist())
        lines.append(line + (next(seps) if trailing else ""))
    return newline.join(lines)


class TestSparseFormat:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, "d.txt", "m=10\n3 7 9\n0\n")
        ds = load_records(path, SPARSE_ITEMS)
        assert ds.m == 10 and len(ds) == 2
        expected = np.zeros((2, 10), dtype=np.uint8)
        expected[0, [3, 7, 9]] = 1
        expected[1, 0] = 1
        np.testing.assert_array_equal(ds.records, expected)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        recs = (rng.random((30, 17)) < 0.3).astype(np.uint8)
        recs[recs.sum(1) == 0, 0] = 1
        ds = make_dataset(recs)
        path = tmp_path / "rt.txt"
        write_records(ds, path)
        back = load_records(path, SPARSE_ITEMS)
        assert back.m == ds.m
        np.testing.assert_array_equal(back.records, ds.records)

    def test_missing_header(self, tmp_path):
        path = _write(tmp_path, "d.txt", "3 7 9\n")
        with pytest.raises(DataError, match="line 1"):
            load_records(path, SPARSE_ITEMS)

    def test_index_out_of_range(self, tmp_path):
        path = _write(tmp_path, "d.txt", "m=5\n1 5\n")
        with pytest.raises(DataError, match="line 2.*out of range"):
            load_records(path, SPARSE_ITEMS)

    def test_not_strictly_increasing(self, tmp_path):
        path = _write(tmp_path, "d.txt", "m=5\n0 2\n3 3\n")
        with pytest.raises(DataError, match="line 3.*strictly increasing"):
            load_records(path, SPARSE_ITEMS)

    def test_malformed_token_names_line(self, tmp_path):
        path = _write(tmp_path, "d.txt", "m=5\n0 2\n1 x\n")
        with pytest.raises(DataError, match="line 3"):
            load_records(path, SPARSE_ITEMS)

    def test_empty_record_rejected(self, tmp_path):
        path = _write(tmp_path, "d.txt", "m=5\n0 2\n\n1\n")
        with pytest.raises(DataError, match="line 3: empty record"):
            load_records(path, SPARSE_ITEMS)

    def test_empty_record_tolerated_when_allowed(self, tmp_path):
        path = _write(tmp_path, "d.txt", "m=5\n0 2\n\n1\n")
        ds = load_records(path, SPARSE_ITEMS, allow_empty=True)
        assert len(ds) == 3
        assert ds.records[1].sum() == 0


@pytest.fixture
def block_bytes(monkeypatch):
    """A 4 KB parse block: the block-boundary cases, sized from it, cross as
    many block boundaries as at the production size in a sixteenth of the text."""
    monkeypatch.setattr(data, "PARSE_BLOCK_BYTES", 1 << 12)
    return data.PARSE_BLOCK_BYTES


class TestSparseParseMatchesReference:
    @pytest.mark.parametrize("m", [1, 50, 64, 65, 784])
    @pytest.mark.parametrize("allow_empty", [False, True])
    @pytest.mark.parametrize("newline,final", [
        ("\n", "\n"), ("\r\n", "\r\n"), ("\n", ""), ("\r\n", ""),
    ], ids=["lf", "crlf", "lf-no-final", "crlf-no-final"])
    def test_random_files(self, tmp_path, block_bytes, m, allow_empty, newline, final):
        rng = np.random.default_rng(m + 7 * allow_empty)
        density = min(0.5, 8 / m + 0.05)
        n = 6 * block_bytes // int(3 + 4 * density * m)
        records = (rng.random((n, m)) < density).astype(np.uint8)
        if allow_empty:
            records[rng.random(n) < 0.1] = 0
        else:
            records[records.sum(axis=1) == 0, rng.integers(0, m)] = 1
        records[-1, 0] = 1  # an empty last line needs its newline
        text = _messy_text(records, rng, newline) + final
        assert len(text) > 3 * block_bytes  # several blocks
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode())
        np.testing.assert_array_equal(_reference_parse(text, allow_empty), records)
        _assert_parses_like_reference(path, allow_empty)

    def test_random_file_in_production_blocks(self, tmp_path):
        self.test_random_files(tmp_path, data.PARSE_BLOCK_BYTES, 784, True, "\r\n", "")

    def test_line_longer_than_a_block(self, tmp_path, block_bytes):
        m = block_bytes  # an all-ones record spans several blocks
        long_lines = [" ".join(map(str, range(m))), "0 5", "  ".join(map(str, range(1, m, 2)))]
        text = f"m={m}\n" + "\n".join(long_lines)
        path = tmp_path / "d.txt"
        path.write_text(text)
        got = load_records(path, SPARSE_ITEMS).records
        assert got.shape == (3, m) and got[0].all() and got[1].sum() == 2
        _assert_parses_like_reference(path, False)

    @staticmethod
    def _lines_and_boundary(rng, block):
        # about five blocks of text
        records = (rng.random((3 * block // 16, 40)) < 0.2).astype(np.uint8)
        records[:, 0] = 1
        lines = _reference_write(records).splitlines()
        # line i + 1 (1-based) is the last one that ends inside the first block
        ends = np.cumsum([len(line) + 1 for line in lines])
        last_in_first = int(np.searchsorted(ends, block, side="right"))
        return lines, last_in_first

    @pytest.mark.parametrize("kind,bad", [
        ("malformed", "3 x 7"),
        ("malformed", "3 7a"),
        ("empty", ""),
        ("empty", " \t "),
        ("range", "3 40"),
        ("range", "3 99999999999999999999999"),
        ("range", "39 40 2"),
        ("increasing", "3 3"),
        ("increasing", "7 3"),
        ("malformed beats range", "45 x"),
    ])
    @pytest.mark.parametrize("where", ["first", "block-end", "block-start", "later"])
    def test_error_messages(self, tmp_path, block_bytes, kind, bad, where):
        lines, last_in_first = self._lines_and_boundary(np.random.default_rng(5), block_bytes)
        at = {"first": 1, "block-end": last_in_first, "block-start": last_in_first + 1,
              "later": 2 * last_in_first + 17}[where]
        lines[at] = bad
        lines[at + 3] = "5 1"  # a later error never wins
        text = "\n".join(lines) + "\n"
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode())
        want = _reference_parse(text, False)
        assert want.startswith(f"line {at + 1}: ")
        assert _load_or_message(path, False) == want

    @pytest.mark.parametrize("line", [
        "3 \x0c 7", "3\r4", "-1", "+3", "1_0", "3\u00a07", "\u0663",
    ])
    def test_outside_the_grammar_is_malformed(self, tmp_path, line):
        # text the grammar does not name is refused, also where Python's
        # str.split and int would have read it
        path = tmp_path / "d.txt"
        path.write_bytes(f"m=5\n0 2\n{line}\n1\n".encode())
        with pytest.raises(DataError, match="^line 3: malformed item index$"):
            load_records(path, SPARSE_ITEMS)

    def test_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_bytes(b"m=5\n0 2\n1 \xff 3\n")
        with pytest.raises(DataError, match="^line 3: malformed item index$"):
            load_records(path, SPARSE_ITEMS)
        path.write_bytes(b"m=5\xff\n0 2\n")
        with pytest.raises(DataError, match="^line 1: not UTF-8 text$"):
            load_records(path, SPARSE_ITEMS)

    @pytest.mark.parametrize("text,message", [
        ("", "line 1: expected header 'm=<int>'"),
        ("m=5", "dataset contains no records"),
        ("m=5\n", "dataset contains no records"),
        ("m=x\n1\n", "line 1: malformed header 'm=x'"),
        ("m=0\n1\n", "line 1: declared dimension must be >= 1, got 0"),
    ])
    def test_header_and_no_records(self, tmp_path, text, message):
        path = _write(tmp_path, "d.txt", text)
        assert _load_or_message(path, True) == message

    def test_load_peak_memory_is_the_result_plus_the_file(self, tmp_path):
        n, m = 20_000, 784
        rng = np.random.default_rng(3)
        records = rng.integers(0, 100, size=(n, m), dtype=np.uint8) < 8
        records[:, 0] = True
        path = tmp_path / "big.txt"
        write_records(make_dataset(records), path)
        del records
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ds = load_records(path, SPARSE_ITEMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.records.shape == (n, m)
        # the (n, m) result, the file's bytes and block-sized temporaries
        assert peak < n * m + size + 4 * 2**20, (peak, size)


class TestWriteMatchesReference:
    @pytest.mark.parametrize("m", [1, 50, 65, 784])
    def test_bytes(self, tmp_path, m):
        rng = np.random.default_rng(m)
        records = (rng.random((500, m)) < 0.3).astype(np.uint8)
        records[::7] = 0
        path = tmp_path / "out.txt"
        write_records(make_dataset(records, allow_empty=True), path)
        assert path.read_bytes() == _reference_write(records).encode()

    def test_no_rows(self, tmp_path):
        path = tmp_path / "out.txt"
        write_records(make_dataset(np.zeros((0, 4), dtype=np.uint8)), path)
        assert path.read_text() == "m=4\n"


class TestDenseFormat:
    def test_threshold_binarization(self, tmp_path):
        path = _write(tmp_path, "d.csv", "0,128,255\n50,127,200\n")
        ds = load_records(path, DENSE_CSV)  # default threshold 127: strict >
        np.testing.assert_array_equal(ds.records, [[0, 1, 1], [0, 0, 1]])

    def test_cell_out_of_range(self, tmp_path):
        path = _write(tmp_path, "d.csv", "0,300\n")
        with pytest.raises(DataError, match="line 1.*\\[0, 255\\]"):
            load_records(path, DENSE_CSV)

    def test_all_zero_row_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "200,200\n1,2\n")
        with pytest.raises(DataError, match="^line 2: empty record"):
            load_records(path, DENSE_CSV)
        ds = load_records(path, DENSE_CSV, allow_empty=True)
        assert ds.records.dtype == np.uint8 and not ds.records.flags.writeable
        np.testing.assert_array_equal(ds.records, [[1, 1], [0, 0]])

    def test_undecodable_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"200,200\n1,\xe9\n")
        with pytest.raises(DataError, match="^line 2: not UTF-8 text$"):
            load_records(path, DENSE_CSV)

    def test_ragged_rows_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "200,200\n200\n")
        with pytest.raises(DataError, match="line 2"):
            load_records(path, DENSE_CSV)


class TestValidation:
    def test_non_binary_rejected(self):
        for records in ([[0, 2]], np.array([[0, 2]], dtype=np.uint8), [[0, -1]],
                        [[0.0, 0.5]], [[1.0, np.nan]]):
            with pytest.raises(DataError, match="0/1"):
                make_dataset(np.array(records))

    def test_binary_accepted(self):
        for records in ([[True, False]], [[1.0, 0.0]], np.array([[1, 0]], dtype=np.int8),
                        np.zeros((0, 3), dtype=np.uint8)):
            np.testing.assert_array_equal(make_dataset(records).records, records)

    def test_records_frozen(self):
        ds = make_dataset(np.array([[1, 0]]))
        with pytest.raises(ValueError):
            ds.records[0, 0] = 0


class TestLabels:
    def test_load_labels(self, tmp_path):
        path = _write(tmp_path, "l.txt", "0\n1\n1\n")
        np.testing.assert_array_equal(load_labels(path), [0, 1, 1])

    def test_malformed_label(self, tmp_path):
        path = _write(tmp_path, "l.txt", "0\nx\n")
        with pytest.raises(DataError, match="line 2"):
            load_labels(path)

    def test_undecodable_label(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_bytes(b"0\n1\n\xff\n")
        with pytest.raises(DataError, match="^line 3: not UTF-8 text$"):
            load_labels(path)


class TestSampleBatch:
    def test_extremes(self):
        members = np.array([2, 3, 5, 7, 11, 13, 17, 19])
        rng = np.random.default_rng(0)
        assert len(sample_batch(members, 0.0, rng)) == 0
        full = sample_batch(members, 1.0, rng)
        np.testing.assert_array_equal(full, members)

    def test_keeps_member_ids_in_order(self):
        # the batch holds row ids taken from members, in their order, never
        # positions among them; one uniform per member decides
        members = np.sort(np.random.default_rng(30).choice(500, size=60, replace=False))
        batch = sample_batch(members, 1 / 3, np.random.default_rng(31))
        mask = np.random.default_rng(31).random(60) < 1 / 3
        np.testing.assert_array_equal(batch, members[mask])

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            sample_batch(np.arange(2), 1.5, np.random.default_rng(0))

    def test_mean_batch_size(self):
        # q=0.5 on 10,000 records over 1,000 trials: the mean sits within
        # three standard errors of 5,000 (per-trial sigma 50).
        n, q, trials = 10_000, 0.5, 1_000
        rng = np.random.default_rng(2024)
        sizes = np.array([len(sample_batch(np.arange(n), q, rng)) for _ in range(trials)])
        se = 50.0 / np.sqrt(trials)
        assert abs(sizes.mean() - n * q) < 3 * se

    def test_inclusion_frequency_chi2(self):
        # Inclusion of one fixed record is Bernoulli(q); chi-square
        # goodness of fit at the 1% level over 10,000 trials.
        trials, q = 10_000, 0.3
        members = np.arange(100, 140)
        rng = np.random.default_rng(7)
        hits = sum(100 in sample_batch(members, q, rng) for _ in range(trials))
        expected = trials * q
        stat = (hits - expected) ** 2 / (trials * q * (1 - q))
        assert stat < chi2.ppf(0.99, df=1)
