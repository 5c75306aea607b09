"""Tabulation of dichotomous response matrices into distinct patterns."""
from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class IngestionError(ValueError):
    """Malformed response data; carries the offending 1-based location."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {col})" if col is not None else ")")
        super().__init__(message + where)
        self.row = row
        self.col = col


@dataclass(frozen=True)
class PatternData:
    """Distinct response patterns with their frequencies.

    patterns : (P, I) uint8 array, rows lexicographically sorted
    freqs    : (P,) int64 array, all >= 1
    """

    patterns: np.ndarray
    freqs: np.ndarray

    @property
    def n_items(self) -> int:
        return self.patterns.shape[1]

    @property
    def n_persons(self) -> int:
        return int(self.freqs.sum())

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[0]

    @cached_property
    def float_freqs(self) -> np.ndarray:
        """The frequencies as a read-only float64 array, built once."""
        f = self.freqs.astype(np.float64)
        f.setflags(write=False)
        return f


def tabulate(matrix) -> PatternData:
    """Collapse an N x I matrix of 0/1 responses into distinct patterns.

    Patterns are ordered lexicographically for determinism.  Items that
    nobody or everybody solved are allowed but flagged with a warning,
    since their log-odds are only defined through clamping downstream.
    """
    try:
        arr = np.asarray(matrix)
    except ValueError as exc:
        raise IngestionError(f"ragged response matrix: {exc}") from exc
    if arr.dtype == object:
        raise IngestionError("ragged response matrix: rows have unequal lengths")
    if arr.ndim != 2 or arr.size == 0:
        raise IngestionError(
            f"response matrix must be a nonempty 2-d array, got shape {arr.shape}"
        )

    bad = (arr != 0) & (arr != 1)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise IngestionError(
            f"response values must be 0 or 1, got {arr[r, c]!r}",
            row=int(r) + 1,
            col=int(c) + 1,
        )

    arr = arr.astype(np.uint8, copy=False)
    totals = arr.sum(axis=0)
    n = arr.shape[0]
    for j, t in enumerate(totals):
        if t == 0 or t == n:
            warnings.warn(
                f"item {j + 1} was answered {'in' if t == 0 else ''}correctly by "
                "every person; its estimates rely on clamped log-odds",
                stacklevel=2,
            )

    first, counts = _distinct_rows(np.packbits(arr, axis=1))
    pats = arr[first]
    pats.setflags(write=False)
    counts.setflags(write=False)
    return PatternData(patterns=pats, freqs=counts)


def _distinct_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index and the count of each distinct row of packed, in row order.

    packed is (N, B) uint8, each row a pattern packed first item in the high
    bit, so its bytes read as a big-endian unsigned integer, zero-padded on
    the right, order the patterns lexicographically.  A row of at most 8
    bytes is one integer of 1, 2, 4 or 8 bytes, which a stable argsort
    orders (by radix for 1 and 2 bytes); a longer row is a run of 8-byte
    words, ordered by lexsort.  The sorts are stable, so each distinct row
    keeps its first index, as np.unique's return_index does.
    """
    n, width = packed.shape
    key_bytes = next((w for w in (1, 2, 4) if width <= w), -(-width // 8) * 8)
    if key_bytes != width:
        packed = np.pad(packed, ((0, 0), (0, key_bytes - width)))
    word = min(key_bytes, 8)
    words = packed.view(f">u{word}").astype(f"u{word}")
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0], kind="stable")
    else:
        order = np.lexsort(words.T[::-1])  # lexsort's last key is the primary one
    words = words[order]
    new_row = np.ones(n, dtype=bool)
    np.any(words[1:] != words[:-1], axis=1, out=new_row[1:])
    starts = np.flatnonzero(new_row)
    return order[starts], np.diff(starts, append=n).astype(np.int64, copy=False)


def load_response_csv(path: str | Path, raw: bytes | None = None) -> np.ndarray:
    """Read a response CSV: one person per row, comma-separated 0/1 values.

    An optional header row is detected by the presence of any token that is
    not 0 or 1.  Accepts LF or CRLF line endings.  A strict file (0/1
    values, bare commas, LF or CRLF line ends throughout, final newline) is
    parsed as one byte array; any other file goes to the csv-module parser,
    which owns every IngestionError.  raw, when given, is the file's bytes,
    already read by the caller; path then only names the file in errors.
    """
    if raw is None:
        raw = Path(path).read_bytes()
    matrix = _parse_strict(raw)
    return matrix if matrix is not None else _parse_csv(raw, path)


def _parse_strict(raw: bytes) -> np.ndarray | None:
    """The response matrix of a strict file, or None for any other file.

    A leading UTF-8 byte-order mark is skipped, as _parse_csv's utf-8-sig
    decoding does.  The first line sets the line end, "\n" or "\r\n", and
    is skipped under the header rule of _parse_csv.  Without quotes or
    other carriage returns in it, splitting on commas gives the tokens
    csv.reader would, so both parsers skip the same line.  Every remaining
    row must read "d,d,...,d" and that line end, with d in {0, 1}, which
    both parsers read as the same values; a file of mixed line ends is not
    strict.
    """
    bom = 3 if raw.startswith(b"\xef\xbb\xbf") else 0  # UTF-8 byte-order mark
    head_end = raw.find(b"\n")
    if head_end < 0:
        return None
    eol = b"\r\n" if raw[head_end - 1 : head_end] == b"\r" else b"\n"
    try:
        head = raw[bom : head_end + 1 - len(eol)].decode("utf-8")
    except UnicodeDecodeError:
        return None
    if '"' in head or "\r" in head:
        return None
    header = any(tok.strip() not in ("0", "1") for tok in head.split(","))
    start = head_end + 1 if header else bom
    width = raw.find(b"\n", start) + 1 - start  # two bytes per value, one more for a "\r"
    items = (width + 1 - len(eol)) // 2
    if items < 1 or 2 * items - 1 + len(eol) != width or (len(raw) - start) % width:
        return None
    cells = np.frombuffer(raw, dtype=np.uint8, offset=start).reshape(-1, width)
    values = cells[:, : 2 * items : 2] - np.uint8(ord("0"))
    if (
        (values > 1).any()
        or (cells[:, 1 : 2 * items - 1 : 2] != ord(",")).any()
        or (cells[:, 2 * items - 1 :] != np.frombuffer(eol, dtype=np.uint8)).any()
    ):
        return None
    return values


def _parse_csv(raw: bytes, path: str | Path) -> np.ndarray:
    """Parse any response CSV with the csv module, locating malformed cells."""
    try:
        # all at once: the reader's decoder reads ahead in chunks, so the
        # row it has reached is not the row of the bad byte
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts from after a byte-order mark; the csv module ends
        # a line at "\r\n", "\n" or a lone "\r"
        body = raw[3:] if raw.startswith(b"\xef\xbb\xbf") else raw
        head = body[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        message = f"not UTF-8 at byte {body[exc.start]:#04x}: {exc.reason}"
        raise IngestionError(message, row=head.count(b"\n") + 1) from exc
    rows: list[list[int]] = []
    width: int | None = None
    with io.TextIOWrapper(io.BytesIO(raw), newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if not record or all(tok.strip() == "" for tok in record):
                continue
            tokens = [tok.strip() for tok in record]
            if lineno == 1 and any(tok not in ("0", "1") for tok in tokens):
                continue  # header row
            parsed = []
            for col, tok in enumerate(tokens, start=1):
                if tok not in ("0", "1"):
                    raise IngestionError(
                        f"expected 0 or 1, got {tok!r}", row=lineno, col=col
                    )
                parsed.append(int(tok))
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise IngestionError(
                    f"row has {len(parsed)} values, expected {width}", row=lineno
                )
            rows.append(parsed)
    if not rows:
        raise IngestionError(f"no response rows found in {path}")
    return np.array(rows, dtype=np.uint8)
