"""Instance types: selection matrices with exactly-k-sparse rows, their Gram
matrices over the Boolean semiring and over the integers, deterministic
generation, and serialization.

A selection matrix doubles as the incidence matrix of a k-uniform hypergraph
(rows = hyperedges); its Boolean Gram matrix is the adjacency matrix of the
hypergraph's line graph plus self-loops.

Bit conventions used throughout the package:
  - a row support is also stored as an r-bit mask, bit j set <=> column j in
    the support;
  - a Gram matrix is an (m, ceil(m/64)) array of little-endian uint64 words,
    entry (a, j) = bit j % 64 of word j // 64 of row a, zero at j >= m.
With zero padding, the columns that are zero in a set of Gram rows number
m - popcount(OR of the rows); all mu-kernels use this.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError

_SEED_MASK = (1 << 64) - 1
_WORD = np.dtype("<u8")
_CHUNK_WORDS = 1 << 16  # words per temporary in the chunked row kernels
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def n_words(m: int) -> int:
    """Words per packed Gram row."""
    return (m + 63) // 64


def _row_chunks(n: int, words_per_row: int):
    step = max(1, _CHUNK_WORDS // max(1, words_per_row))
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def split_seed(seed: int, index: int) -> int:
    """Per-unit seed for parallel-safe deterministic generation."""
    return (seed ^ index) & _SEED_MASK


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so per-row streams are independent.
    return np.random.Generator(np.random.Philox(key=seed & _SEED_MASK))


@dataclass(frozen=True)
class SelectionMatrix:
    """m x r Boolean matrix with exactly k ones per row."""

    m: int
    r: int
    k: int
    rows: tuple  # tuple of m sorted index tuples, each of length k
    masks: tuple = field(default=None)  # r-bit masks, parallel to rows

    def __post_init__(self):
        if self.k < 1 or self.r < 1 or self.m < 1 or self.k > self.r:
            raise ParameterError(
                f"need 1 <= k <= r and m >= 1, got m={self.m} r={self.r} k={self.k}")
        if len(self.rows) != self.m:
            raise DimensionError(f"expected {self.m} rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != self.k or len(set(row)) != self.k:
                raise ParameterError(f"row {row} is not a {self.k}-subset")
            if min(row) < 0 or max(row) >= self.r:
                raise ParameterError(f"row {row} has indices outside [0, {self.r})")
        if self.masks is None:
            masks = tuple(sum(1 << j for j in row) for row in self.rows)
            object.__setattr__(self, "masks", masks)

    def dense(self) -> np.ndarray:
        """0/1 array of shape (m, r)."""
        out = np.zeros((self.m, self.r), dtype=np.int8)
        for a, row in enumerate(self.rows):
            out[a, list(row)] = 1
        return out

    def to_json(self, seed=None) -> dict:
        obj = {"m": self.m, "r": self.r, "k": self.k,
               "rows": [list(row) for row in self.rows]}
        if seed is not None:
            obj["seed"] = int(seed)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SelectionMatrix":
        rows = tuple(tuple(sorted(row)) for row in obj["rows"])
        return cls(m=int(obj["m"]), r=int(obj["r"]), k=int(obj["k"]), rows=rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in self.dense():
                writer.writerow(row.tolist())


@dataclass(frozen=True)
class GramMatrix:
    """m x m Gram matrix of a selection matrix.

    ``bits`` stores the Boolean-semiring entries (supports intersect) as an
    (m, n_words(m)) array of packed words, laid out as in the module
    docstring.  ``counts``, when present, stores the integer entries
    |S_a cap S_b|.
    """

    m: int
    bits: np.ndarray  # (m, n_words(m)) little-endian uint64, zero at bits >= m
    counts: np.ndarray = None  # optional (m, m) small ints

    def __post_init__(self):
        if np.shape(self.bits) != (self.m, n_words(self.m)):
            raise DimensionError(f"expected {self.m} rows of {n_words(self.m)} words")

    def entry(self, a: int, b: int) -> int:
        return int(self.bits[a, b >> 6] >> (b & 63)) & 1

    def dense(self) -> np.ndarray:
        """Boolean entries as a 0/1 array of shape (m, m)."""
        flat = np.unpackbits(self.bits.view(np.uint8), axis=1, bitorder="little")
        return flat[:, : self.m].astype(np.int8)

    def to_json(self) -> dict:
        # Big-endian hex per row: reverse the little-endian bytes, then drop
        # the leading nibbles, which hold only zero padding.
        nibbles = (self.m + 3) // 4
        return {"m": self.m,
                "hex_rows": [row[::-1].tobytes().hex()[-nibbles:]
                             for row in self.bits.view(np.uint8)]}

    @classmethod
    def from_json(cls, obj: dict) -> "GramMatrix":
        """Decode and check the row count, ceil(m/4) hex digits per row, no bit
        at a position >= m, the unit diagonal and symmetry (ParameterError)."""
        m = int(obj["m"])
        rows = obj["hex_rows"]
        if m < 1 or not isinstance(rows, list) or len(rows) != m:
            raise ParameterError(f"expected a list of m={m} >= 1 hex rows")
        nibbles, width = (m + 3) // 4, 16 * n_words(m)
        bits = np.zeros((m, n_words(m)), dtype=_WORD)
        raw = bits.view(np.uint8)
        for a, row in enumerate(rows):
            if not isinstance(row, str) or len(row) != nibbles or not set(row) <= _HEX_DIGITS:
                raise ParameterError(f"hex row {a} is not {nibbles} hex digits")
            raw[a] = np.frombuffer(bytes.fromhex(row.rjust(width, "0"))[::-1], np.uint8)
        if m % 64 and np.any(bits[:, -1] >> (m % 64)):
            raise ParameterError(f"a hex row sets a bit at a position >= m={m}")
        for w in range(n_words(m)):
            # Rows 64w.. against columns 64w..: equal, with ones on the diagonal.
            block = np.unpackbits(raw[64 * w: 64 * w + 64], axis=1, bitorder="little")[:, :m]
            column = np.unpackbits(raw[:, 8 * w: 8 * w + 8], axis=1, bitorder="little")
            if not np.array_equal(block, column[:, : len(block)].T):
                raise ParameterError(f"not symmetric in rows {64 * w}..{64 * w + 63}")
            if not np.diagonal(block, offset=64 * w).all():
                raise ParameterError(f"a diagonal entry in rows {64 * w}.. is 0")
        return cls(m=m, bits=bits)

    def to_csv(self, path, arithmetic: str = "boolean") -> None:
        data = self.dense() if arithmetic == "boolean" else self.counts
        if data is None:
            raise ParameterError("integer entries were not computed for this matrix")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in data:
                writer.writerow(np.asarray(row).tolist())


def sample_k_subset(rng: np.random.Generator, r: int, k: int) -> tuple:
    """Floyd's algorithm: uniform k-subset of [0, r)."""
    chosen = set()
    for j in range(r - k, r):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return tuple(sorted(chosen))


def gen_selection_matrix(m: int, r: int, k: int, seed: int) -> SelectionMatrix:
    """Rows drawn i.i.d. uniformly from the C(r, k) size-k subsets.

    Row i uses its own counter-based stream keyed by ``seed ^ i``, so
    generation is reproducible regardless of evaluation order.
    """
    if k < 1 or r < 1 or m < 1 or k > r:
        raise ParameterError(f"need 1 <= k <= r and m >= 1, got m={m} r={r} k={k}")
    rows = tuple(sample_k_subset(_rng(split_seed(seed, i)), r, k) for i in range(m))
    return SelectionMatrix(m=m, r=r, k=k, rows=rows)


def _gram_rows(W: SelectionMatrix):
    """Packed Boolean Gram rows of W in chunks: yields (lo, hi, rows lo..hi-1).

    Row a is the OR of the packed column masks of a's support, so the cost
    is m*k word-row operations.
    """
    m = W.m
    cols = np.zeros((W.r, n_words(m)), dtype=_WORD)
    cols.view(np.uint8)[:, : (m + 7) // 8] = np.packbits(
        W.dense().T.astype(bool), axis=1, bitorder="little")
    support = np.array(W.rows, dtype=np.intp)
    for lo, hi in _row_chunks(m, W.k * n_words(m)):
        yield lo, hi, np.bitwise_or.reduce(cols[support[lo:hi]], axis=1)


def gram(W: SelectionMatrix, arithmetic: str = "boolean") -> GramMatrix:
    """Gram matrix of W: Boolean (supports intersect) or integer (|S_a cap S_b|)."""
    if arithmetic not in ("boolean", "integer"):
        raise ParameterError(f"unknown arithmetic {arithmetic!r}")
    bits = np.empty((W.m, n_words(W.m)), dtype=_WORD)
    for lo, hi, rows in _gram_rows(W):
        bits[lo:hi] = rows
    counts = None
    if arithmetic == "integer":
        dense = W.dense().astype(np.int32)
        counts = dense @ dense.T
    return GramMatrix(m=W.m, bits=bits, counts=counts)


def factorization_error(M: GramMatrix, W: SelectionMatrix,
                        arithmetic: str = "boolean",
                        off_diagonal_only: bool = False) -> int:
    """Number of entries where M differs from gram(W).

    Symmetric disagreements are double-counted (full-matrix L0); pass
    ``off_diagonal_only`` to drop the forced diagonal.
    """
    if M.m != W.m:
        raise DimensionError(f"M is {M.m}x{M.m} but W has {W.m} rows")
    if arithmetic == "boolean":
        # Compared chunk by chunk, so gram(W) is never held whole.
        total = 0
        for lo, hi, rows in _gram_rows(W):
            total += int(np.bitwise_count(rows ^ M.bits[lo:hi]).sum())
        if off_diagonal_only:
            # gram(W) has a unit diagonal: its disagreements are M's diagonal zeros.
            total -= sum(1 - M.entry(a, a) for a in range(M.m))
        return total
    G = gram(W, arithmetic)
    if M.counts is None:
        raise ParameterError("M has no integer entries")
    diff = np.asarray(M.counts) != G.counts
    if off_diagonal_only:
        np.fill_diagonal(diff, False)
    return int(diff.sum())


def save_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
