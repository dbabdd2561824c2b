"""Instance types: selection matrices with exactly-k-sparse rows, their Gram
matrices over the Boolean semiring and over the integers, deterministic
generation, and serialization.

A selection matrix doubles as the incidence matrix of a k-uniform hypergraph
(rows = hyperedges); its Boolean Gram matrix is the adjacency matrix of the
hypergraph's line graph plus self-loops.

Bit conventions used throughout the package:
  - a selection matrix is an (m, k) array of sorted column indices;
  - a Gram matrix is an (m, ceil(m/64)) array of little-endian uint64 words,
    entry (a, j) = bit j % 64 of word j // 64 of row a, zero at j >= m.
With zero padding, the columns that are zero in a set of Gram rows number
m - popcount(OR of the rows); all mu-kernels use this.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_WORD = np.dtype("<u8")
_CHUNK_WORDS = 1 << 16  # words per temporary in the chunked row kernels


def n_words(m: int) -> int:
    """Words per packed Gram row."""
    return (m + 63) // 64


def _row_chunks(n: int, words_per_row: int):
    step = max(1, _CHUNK_WORDS // max(1, words_per_row))
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _pack(flags) -> np.ndarray:
    """Rows of 0/1 flags as rows of packed words, laid out as Gram rows."""
    flags = np.ascontiguousarray(flags)
    out = np.zeros((len(flags), n_words(flags.shape[1])), dtype=_WORD)
    out.view(np.uint8)[:, : (flags.shape[1] + 7) // 8] = np.packbits(
        flags, axis=1, bitorder="little")
    return out


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The first n flags of each row of packed words, as a 0/1 int8 array."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :n].astype(np.int8)


def _json_ints(obj, *keys) -> list:
    """The integer fields ``keys`` of a decoded JSON object (ParameterError)."""
    if not isinstance(obj, dict):
        raise ParameterError(f"expected a JSON object, got {type(obj).__name__}")
    values = [obj[key] for key in keys]
    if not all(type(v) is int for v in values):
        raise ParameterError(f"{', '.join(keys)} must be integers, got {values}")
    return values


def _holds_bool(rows) -> bool:
    """Whether a nested sequence of integer rows holds a bool, which np.array
    would silently turn into 0 or 1 (an ndarray of integers holds none)."""
    return not isinstance(rows, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for row in rows for x in row)


def split_seed(seed: int, index: int) -> int:
    """Seed of child stream ``index`` of ``seed``: a 128-bit hash of both
    integers, so distinct (seed, index) pairs, nested splits included, give
    distinct seeds (up to hash collisions)."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=16).digest()
    return int.from_bytes(digest, "little")


def _rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream keyed by split_seed(seed, index)."""
    return np.random.Generator(np.random.Philox(key=split_seed(seed, index)))


@dataclass(frozen=True, init=False, eq=False)
class SelectionMatrix:
    """m x r Boolean matrix with exactly k ones per row.

    ``support`` is the one stored form: a read-only (m, k) integer array
    whose row a holds the columns of row a in increasing order.  The
    constructor takes any (m, k) array-like of k-subsets of [0, r); bools
    are not indices, even mixed with integers.
    """

    m: int
    r: int
    k: int
    support: np.ndarray

    def __init__(self, m: int, r: int, k: int, rows):
        if k < 1 or r < 1 or m < 1 or k > r:
            raise ParameterError(f"need 1 <= k <= r and m >= 1, got m={m} r={r} k={k}")
        try:
            support = np.array(rows)
        except ValueError as exc:  # ragged rows
            raise ParameterError(f"rows are not {k}-subsets: {exc}") from None
        if support.ndim != 2 or len(support) != m:
            raise ParameterError(f"expected {m} rows of {k} indices, got shape {support.shape}")
        if support.shape[1] != k or support.dtype.kind not in "iu" or _holds_bool(rows):
            raise ParameterError(f"rows must hold {k} integers (not bools), got "
                                 f"{support.shape[1]} of dtype {support.dtype}")
        support = np.sort(support, axis=1).astype(np.intp)
        bad = (support[:, 0] < 0) | (support[:, -1] >= r) | np.any(
            support[:, 1:] == support[:, :-1], axis=1)
        if bad.any():
            a = int(np.argmax(bad))
            raise ParameterError(f"row {a} = {support[a].tolist()} is not a "
                                 f"{k}-subset of [0, {r})")
        support.flags.writeable = False
        for name, value in (("m", m), ("r", r), ("k", k), ("support", support)):
            object.__setattr__(self, name, value)

    @property
    def rows(self) -> tuple:
        """The supports as a tuple of m sorted index tuples (derived)."""
        return tuple(map(tuple, self.support.tolist()))

    def dense(self) -> np.ndarray:
        """0/1 array of shape (m, r)."""
        out = np.zeros((self.m, self.r), dtype=np.int8)
        np.put_along_axis(out, self.support, 1, axis=1)
        return out

    def to_json(self, seed=None) -> dict:
        obj = {"m": self.m, "r": self.r, "k": self.k, "rows": self.support.tolist()}
        if seed is not None:
            obj["seed"] = int(seed)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SelectionMatrix":
        """Decode and check that m, r and k are JSON integers (not bools or
        floats); the constructor checks the rows (ParameterError)."""
        m, r, k = _json_ints(obj, "m", "r", "k")
        return cls(m=m, r=r, k=k, rows=obj["rows"])


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
            raise ParameterError(f"expected {self.m} rows of {n_words(self.m)} words")

    def entry(self, a: int, b: int) -> int:
        if not (0 <= a < self.m and 0 <= b < self.m):  # numpy would wrap negatives
            raise IndexError(f"entry ({a},{b}) out of range for m={self.m}")
        return int(self.bits[a, b >> 6] >> (b & 63)) & 1

    def dense(self, rows=None) -> np.ndarray:
        """Boolean entries as a 0/1 array of shape (m, m), or of the given rows only."""
        return _unpack(self.bits if rows is None else self.bits[rows], self.m)

    def to_json(self) -> dict:
        # Big-endian hex per row: reverse the little-endian bytes, then drop
        # the leading nibbles, which hold only zero padding.
        nibbles = (self.m + 3) // 4
        obj = {"m": self.m,
               "hex_rows": [row[::-1].tobytes().hex()[-nibbles:]
                            for row in self.bits.view(np.uint8)]}
        if self.counts is not None:
            obj["counts"] = np.asarray(self.counts).tolist()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "GramMatrix":
        """Decode and check the row count, ceil(m/4) hex digits per row, the
        unit diagonal and symmetry, zero bits at positions >= m included;
        optional integer ``counts`` must be an m x m symmetric array of non-negative
        integers, positive exactly where the bit is set (ParameterError)."""
        (m,) = _json_ints(obj, "m")
        rows = obj["hex_rows"]
        if m < 1 or not isinstance(rows, list) or len(rows) != m:
            raise ParameterError(f"expected a list of m={m} >= 1 hex rows")
        nibbles, width = (m + 3) // 4, 16 * n_words(m)
        bits = np.zeros((m, n_words(m)), dtype=_WORD)
        raw = bits.view(np.uint8)
        for a, row in enumerate(rows):
            try:  # fromhex rejects non-hex digits; ASCII whitespace it skips leaves data short
                data = bytes.fromhex(row.rjust(width, "0")) if len(row) == nibbles else b""
            except (AttributeError, TypeError, ValueError):  # not a string, or not hex
                data = b""
            if len(data) != width // 2:
                raise ParameterError(f"hex row {a} is not {nibbles} hex digits")
            raw[a] = np.frombuffer(data[::-1], np.uint8)
        for w in range(n_words(m)):
            # Rows 64w.. transposed equal word w of all rows, padding bits included.
            block = _unpack(bits[64 * w: 64 * w + 64], m)
            if not np.array_equal(_pack(block.T), bits[:, w: w + 1]):
                raise ParameterError(f"rows {64 * w}..{64 * w + 63} are not symmetric "
                                     f"or set a bit at a position >= m={m}")
            if not np.diagonal(block, offset=64 * w).all():
                raise ParameterError(f"a diagonal entry in rows {64 * w}.. is 0")
        M = cls(m=m, bits=bits)
        if "counts" not in obj:
            return M
        try:
            counts = np.array(obj["counts"])
        except ValueError as exc:  # ragged rows
            raise ParameterError(f"counts is not an m x m array: {exc}") from None
        if (counts.shape != (m, m) or counts.dtype.kind not in "iu"
                or _holds_bool(obj["counts"]) or counts.min() < 0
                or not np.array_equal(counts, counts.T)
                or not np.array_equal(counts > 0, M.dense() > 0)):
            raise ParameterError(f"counts must be a symmetric {m} x {m} array of non-negative "
                                 "integers, positive exactly where the Boolean entry is 1")
        return cls(m=m, bits=bits, counts=counts)


def _floyd_subsets(rng: np.random.Generator, n: int, r: int, k: int) -> np.ndarray:
    """n uniform k-subsets of [0, r) as an unsorted (n, k) array.

    Floyd's algorithm on all n rows at once: step s draws column s of every
    row uniformly from [0, r-k+s] and replaces a value the row already holds
    by r-k+s.  Working memory is O(n k).
    """
    rows = rng.integers(0, np.arange(r - k + 1, r + 1), size=(n, k))
    for s in range(1, k):
        taken = np.any(rows[:, :s] == rows[:, s, None], axis=1)
        rows[taken, s] = r - k + s
    return rows


def gen_selection_matrix(m: int, r: int, k: int, seed: int) -> SelectionMatrix:
    """Rows drawn i.i.d. uniformly from the C(r, k) size-k subsets, all from
    one stream per instance."""
    if k < 1 or r < 1 or m < 1 or k > r:
        raise ParameterError(f"need 1 <= k <= r and m >= 1, got m={m} r={r} k={k}")
    return SelectionMatrix(m=m, r=r, k=k, rows=_floyd_subsets(_rng(seed, 0x5e1ec7), m, r, k))


def _gram_rows(W: SelectionMatrix):
    """Packed Boolean Gram rows of W in chunks: yields (lo, hi, rows lo..hi-1).

    Row a is the OR of the packed column masks of a's support, so the cost
    is m*k word-row operations.
    """
    m = W.m
    cols = _pack(W.dense().T)
    for lo, hi in _row_chunks(m, W.k * n_words(m)):
        yield lo, hi, np.bitwise_or.reduce(cols[W.support[lo:hi]], axis=1)


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


def factorization_error(M: GramMatrix, W: SelectionMatrix) -> int:
    """Number of Boolean entries where M differs from gram(W).

    Symmetric disagreements are double-counted (full-matrix L0).  gram(W) is
    compared chunk by chunk and never held whole.
    """
    if M.m != W.m:
        raise ParameterError(f"M is {M.m}x{M.m} but W has {W.m} rows")
    total = 0
    for lo, hi, rows in _gram_rows(W):
        total += int(np.bitwise_count(rows ^ M.bits[lo:hi]).sum())
    return total


def save_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def save_csv(rows, path) -> None:
    """Rows of values as CSV (excel dialect, CRLF line ends) to a path or an
    open text file."""
    if hasattr(path, "write"):
        csv.writer(path).writerows(rows)
    else:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
