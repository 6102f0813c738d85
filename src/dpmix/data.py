"""Binary record datasets: loading, validation, writing, Poisson subsampling.

A record is a {0,1} vector of length m marking which items of a fixed
universe an individual holds.  The record is the unit of privacy.
Datasets are immutable after construction and safe for concurrent reads.

Two on-disk formats are supported:

* ``sparse-items``: first line ``m=<int>``, then one record per line as
  strictly increasing item indices in ``[0, m)``.  An index is a run of
  ASCII digits; indices are separated by spaces or tabs, and each line
  ends with ``\n`` or ``\r\n`` (the last one may end at the end of the
  file instead).  Any other byte on a record line is a malformed index.
* ``dense-csv``: no header, one record per line of comma-separated
  numbers in ``[0, 255]``; a cell becomes 1 when it exceeds the
  binarization threshold.

Files are read as UTF-8; input that does not decode is a DataError
naming its line, like any other malformed line.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BINARIZE_THRESHOLD, DENSE_CSV, FORMATS, SPARSE_ITEMS, atomic_write
from .errors import DataError

# Sparse-items text is parsed in blocks of about this many bytes, each
# cut after a newline, so the parse temporaries stay small beside the
# (n, m) result.
PARSE_BLOCK_BYTES = 1 << 16
# Records are formatted this many rows at a time when written.
WRITE_BLOCK_ROWS = 256

_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[ord("0") : ord("9") + 1] = True
_RECORD_TEXT = _DIGIT.copy()  # bytes a sparse record line may hold
_RECORD_TEXT[[ord(" "), ord("\t"), ord("\r"), ord("\n")]] = True


@dataclass(frozen=True)
class BinaryDataset:
    """m-dimensional binary records, one row per individual.

    ``records`` has shape (n, m), uint8 entries in {0, 1}, is read-only
    and gives n and m.  The loaders and ``mixture.generate`` build it from
    arrays they filled with 0/1 themselves, without a check or a copy.
    """

    records: np.ndarray

    @property
    def m(self) -> int:
        return int(self.records.shape[1])

    def __len__(self) -> int:
        return int(self.records.shape[0])


def load_records(
    path,
    fmt: str = SPARSE_ITEMS,
    *,
    binarize_threshold: int = DEFAULT_BINARIZE_THRESHOLD,
    allow_empty: bool = False,
) -> BinaryDataset:
    """Load a dataset from disk, reporting malformed lines by number."""
    if fmt not in FORMATS:
        raise DataError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt == SPARSE_ITEMS:
        return _parse_sparse(raw, allow_empty)
    return _parse_dense(_text_lines(raw), binarize_threshold, allow_empty)


def _text_lines(raw: bytes) -> list[str]:
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"line {line}: not UTF-8 text") from None


def _parse_sparse(raw: bytes, allow_empty: bool) -> BinaryDataset:
    body = raw.find(b"\n") + 1 or len(raw)
    header = (_text_lines(raw[:body]) or [""])[0]
    if not header.startswith("m="):
        raise DataError("line 1: expected header 'm=<int>'")
    try:
        m = int(header[2:])
    except ValueError:
        raise DataError(f"line 1: malformed header {header!r}") from None
    if m < 1:
        raise DataError(f"line 1: declared dimension must be >= 1, got {m}")
    n = raw.count(b"\n", body) + (len(raw) > body and not raw.endswith(b"\n"))
    if n == 0:
        raise DataError("dataset contains no records")
    records = np.zeros((n, m), dtype=np.uint8)
    row = 0
    start = body
    while start < len(raw):
        stop = raw.rfind(b"\n", start, start + PARSE_BLOCK_BYTES) + 1
        if stop <= start:  # the line in hand is longer than a block
            stop = raw.find(b"\n", start) + 1 or len(raw)
        row += _parse_block(raw[start:stop], records, row, allow_empty)
        start = stop
    # every entry was written as 0 or 1 and every line was checked
    records.flags.writeable = False
    return BinaryDataset(records=records)


def _parse_block(block: bytes, records: np.ndarray, row0: int, allow_empty: bool) -> int:
    """Parse whole lines of record text into rows ``row0, row0 + 1, ...``.

    Returns the number of lines.  A bad line raises DataError naming its
    line in the file (the header is line 1).
    """
    m = records.shape[1]
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, buf.size)
    digit = _DIGIT[buf]
    starts = np.flatnonzero(np.diff(digit.view(np.int8), prepend=0) == 1)
    line = np.searchsorted(ends, starts)
    bad = ~_RECORD_TEXT[buf]
    cr = np.flatnonzero(buf == ord("\r"))  # allowed only right before a newline
    bad[cr[buf[np.minimum(cr + 1, buf.size - 1)] != ord("\n")]] = True
    malformed = np.zeros(ends.size, dtype=bool)
    malformed[np.searchsorted(ends, np.flatnonzero(bad))] = True
    if malformed.any():  # blank the bad bytes so the other lines still parse
        block = np.where(digit, buf, np.uint8(ord(" "))).tobytes()
    values = np.fromstring(block, dtype=np.int64, sep=" ") if starts.size else starts
    # an index too long for int64 reads as the int64 maximum, which is out of range too
    out_of_range = values >= m
    descending = (line[1:] == line[:-1]) & (values[1:] <= values[:-1])
    empty = ~malformed & (np.bincount(line, minlength=ends.size) == 0) & (not allow_empty)
    if malformed.any() or empty.any() or out_of_range.any() or descending.any():
        bad_lines = np.concatenate([
            np.flatnonzero(malformed), np.flatnonzero(empty),
            line[out_of_range], line[1:][descending],
        ])
        first = int(bad_lines.min())
        where = f"line {row0 + first + 2}"
        if malformed[first]:
            raise DataError(f"{where}: malformed item index")
        if empty[first]:
            raise DataError(f"{where}: empty record")
        hits = np.flatnonzero(out_of_range & (line == first))
        if hits.size:
            token = block[starts[hits[0]]:].split(maxsplit=1)[0]
            raise DataError(f"{where}: item index {int(token)} out of range [0, {m})")
        raise DataError(f"{where}: item indices must be strictly increasing")
    records.reshape(-1)[(row0 + line) * m + values] = 1
    return int(ends.size)


def _parse_dense(lines: list[str], threshold: int, allow_empty: bool) -> BinaryDataset:
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise DataError(f"line {lineno}: empty record")
        cells = line.split(",")
        try:
            vals = np.array([float(c) for c in cells], dtype=np.float64)
        except ValueError:
            raise DataError(f"line {lineno}: malformed cell") from None
        if width is None:
            width = vals.size
        elif vals.size != width:
            raise DataError(
                f"line {lineno}: expected {width} columns, got {vals.size}"
            )
        # written so that NaN fails too: it compares false both ways
        if not ((vals >= 0) & (vals <= 255)).all():
            raise DataError(f"line {lineno}: cell value outside [0, 255]")
        rows.append(vals > threshold)
        if not (allow_empty or rows[-1].any()):
            raise DataError(f"line {lineno}: empty record (no cell above {threshold})")
    if not rows:
        raise DataError("dataset contains no records")
    records = np.stack(rows).view(np.uint8)  # a bool is one byte, 0 or 1
    records.flags.writeable = False
    return BinaryDataset(records=records)


def write_records(dataset: BinaryDataset, path) -> None:
    """Write in sparse-items format; loading the result round-trips.

    Rows are formatted WRITE_BLOCK_ROWS at a time, and the file is
    written through ``atomic_write``, so a failed write leaves no file.
    """
    names = np.array([str(i) for i in range(dataset.m)], dtype=object)
    with atomic_write(path) as fh:
        fh.write(f"m={dataset.m}\n")
        for first in range(0, len(dataset), WRITE_BLOCK_ROWS):
            block = dataset.records[first : first + WRITE_BLOCK_ROWS]
            rows, cols = np.nonzero(block)
            items = names[cols].tolist()
            lines, start = [], 0
            for stop in np.cumsum(np.bincount(rows, minlength=len(block))).tolist():
                lines.append(" ".join(items[start:stop]))
                start = stop
            fh.write("\n".join(lines) + "\n")


def load_labels(path) -> np.ndarray:
    """One integer class id per line."""
    with open(path, "rb") as fh:
        lines = _text_lines(fh.read())
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise DataError(f"line {lineno}: empty label")
        try:
            out.append(int(line.strip()))
        except ValueError:
            raise DataError(f"line {lineno}: malformed label {line.strip()!r}") from None
    if not out:
        raise DataError("labels file contains no entries")
    return np.array(out, dtype=np.int64)


def sample_batch(members: np.ndarray, q: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson subsample of the row ids ``members``: each is kept with probability q.

    One ``rng.random(len(members))`` draw decides; the kept ids are
    returned in their order in ``members``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling probability must be in [0, 1], got {q}")
    return members[rng.random(len(members)) < q]
