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
    """(lo, hi) bounds of n rows in chunks of at most _CHUNK_WORDS words,
    equal to within one row.  A short last chunk whose size varies with the
    data made the glibc heap fragment: the recover benchmark's peak RSS rose
    from 68 to 86 MB in about a third of runs, and in none with equal chunks."""
    step = max(1, _CHUNK_WORDS // max(1, words_per_row))
    count = -(-n // step)
    for c in range(count):
        yield c * n // count, (c + 1) * n // count


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


def _int_array(values, what: str, noun: str = "integers") -> np.ndarray:
    """np.asarray(values); ParameterError naming ``what`` for ragged rows, a non-integer or
    a bool, read as 0 or 1 among ints, so a nested sequence (not an ndarray) is scanned."""
    try:
        out = np.asarray(values)
    except ValueError as exc:  # ragged rows
        raise ParameterError(f"{what} are ragged: {exc}") from None
    ints = out.dtype.kind in "iu"
    rows = [values] if ints and out.ndim and not isinstance(values, np.ndarray) else ()
    for _ in range(out.ndim - 1):
        rows = (x for row in rows for x in row)
    if out.dtype.kind == "b" or any(isinstance(x, (bool, np.bool_)) for row in rows for x in row):
        raise ParameterError(f"{what} hold a bool entry; bools are not {noun}")
    if out.size and not ints:
        raise ParameterError(f"{what} must hold {noun} of an integer dtype, got dtype {out.dtype}")
    return out


def _is_int(x) -> bool:
    """Whether x is an integer and not a bool, which numpy and range checks
    would read as 0 or 1.  A plain int, the common index, is tested first."""
    return type(x) is int or isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_shape(r: int, k: int, m: int = None) -> None:
    """The shape rule of every entry point: ParameterError unless
    1 <= k <= r, and m >= 1 when m is given, and unless each is an integer.
    The range comes first, as plain comparisons, so a shape that is not a
    number raises TypeError."""
    rule, got = ("", "") if m is None else (" and m >= 1", f"m={m} ")
    if not (1 <= k <= r and (m is None or m >= 1)):
        raise ParameterError(f"need 1 <= k <= r{rule}, got {got}r={r} k={k}")
    if not all(x is None or _is_int(x) for x in (r, k, m)):
        raise ParameterError(f"need integer {'m, ' if got else ''}r and k, got {got}r={r} k={k}")


def _check_entry(m: int, idx: tuple, what: str = "entry") -> None:
    """IndexError naming ``what`` and idx unless each index of idx is an
    integer in [0, m), where numpy would read a bool or a float as some row
    and wrap a negative.  A plain int in range, the common index, passes first."""
    for i in idx:
        if type(i) is int and 0 <= i < m:
            continue
        if not _is_int(i):
            raise IndexError(f"{what} ({','.join(map(str, idx))}): {i!r} is not an integer index")
        if not 0 <= i < m:
            raise IndexError(f"{what} ({','.join(map(str, idx))}) out of range for m={m}")


def _bit(bits: np.ndarray, a, b) -> int:
    """Bit b of packed row a, the word read and b shifted as Python ints: numpy
    has no uint64 >> int64 loop, so a numpy integer b would raise TypeError."""
    b = int(b)
    return bits.item(a, b >> 6) >> (b & 63) & 1


def _check_anchors(m: int, anchors) -> tuple:
    """The anchors as a tuple: IndexError naming the first one that is not
    an integer in [0, m), as for an entry, and ParameterError if none."""
    anchors = tuple(anchors)
    if not anchors:
        raise ParameterError("the anchor set is empty")
    for a in anchors:
        _check_entry(m, (a,), "anchor")
    return anchors


def split_seed(seed: int, index: int) -> int:
    """Seed of child stream ``index`` of ``seed``: a 128-bit hash of both
    integers, so distinct (seed, index) pairs, nested splits included, give
    distinct seeds (up to hash collisions)."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=16).digest()
    return int.from_bytes(digest, "little")


def _rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream keyed by split_seed(seed, index); ParameterError
    unless seed is an integer, since split_seed would key any str(seed)."""
    if not _is_int(seed):
        raise ParameterError(f"seed {seed!r} is not an integer")
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
        _check_shape(r, k, m)
        support = _int_array(rows, "rows", "indices")
        if support.shape != (m, k):
            raise ParameterError(f"expected {m} rows of {k} indices, got shape {support.shape}")
        # Rows already increasing, as generated, skip the sort; `bad` only names the fault.
        support, dup = support.astype(np.intp), False
        if not (support[:, 1:] > support[:, :-1]).all():
            support.sort(axis=1)
            dup = (support[:, 1:] == support[:, :-1]).any()
        if dup or support[:, 0].min() < 0 or support[:, -1].max() >= r:
            bad = (support[:, 0] < 0) | (support[:, -1] >= r) | np.any(
                support[:, 1:] == support[:, :-1], axis=1)
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
    |S_a cap S_b|; the constructor checks them against ``bits``.
    """

    m: int
    bits: np.ndarray  # (m, n_words(m)) little-endian uint64, zero at bits >= m
    counts: np.ndarray = None  # optional (m, m) small ints

    def __post_init__(self):
        if self.m < 1 or np.shape(self.bits) != (self.m, n_words(self.m)):
            raise ParameterError(f"need m >= 1 and bits of shape (m, ceil(m/64)), "
                                 f"got m={self.m} and shape {np.shape(self.bits)}")
        if self.counts is not None:
            counts = _int_array(self.counts, "counts")
            if (counts.shape != (self.m, self.m) or counts.min() < 0
                    or not np.array_equal(counts, counts.T)
                    or not np.array_equal(counts > 0, self.dense() > 0)):
                raise ParameterError(f"counts must be symmetric, {self.m} x {self.m}, and "
                                     "positive exactly where the bit is set, else 0")
            object.__setattr__(self, "counts", counts)

    def entry(self, a: int, b: int) -> int:
        _check_entry(self.m, (a, b))
        return _bit(self.bits, a, b)

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
            obj["counts"] = self.counts.tolist()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "GramMatrix":
        """Decode and check the row count, ceil(m/4) hex digits per row, the
        unit diagonal and symmetry, zero bits at positions >= m included; the
        constructor checks the optional ``counts`` (ParameterError)."""
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
        if "counts" in obj and obj["counts"] is None:
            raise ParameterError("counts is null; omit it for Boolean entries only")
        return cls(m=m, bits=bits, counts=obj.get("counts"))


def _floyd_subsets(rng: np.random.Generator, n: int, r: int, k: int) -> np.ndarray:
    """n uniform k-subsets of [0, r) as an unsorted (n, k) array.

    Floyd's algorithm on all n rows at once: step s draws column s of every
    row uniformly from [0, r-k+s] and replaces a value the row already holds
    by r-k+s.  Working memory is O(n k).
    """
    rows = rng.integers(0, np.arange(r - k + 1, r + 1), size=(n, k))
    for s in range(1, k):
        taken = rows[:, 0] == rows[:, s]
        for u in range(1, s):
            taken |= rows[:, u] == rows[:, s]
        rows[taken, s] = r - k + s
    return rows


def gen_selection_matrix(m: int, r: int, k: int, seed: int) -> SelectionMatrix:
    """Rows drawn i.i.d. uniformly from the C(r, k) size-k subsets, all from
    one stream per instance."""
    _check_shape(r, k, m)
    return SelectionMatrix(m=m, r=r, k=k, rows=_floyd_subsets(_rng(seed, 0x5e1ec7), m, r, k))


def _gram_rows(W: SelectionMatrix):
    """Packed Boolean Gram rows of W in chunks: yields (lo, hi, rows lo..hi-1),
    a fresh array the caller may overwrite.

    Row a is the OR of the packed column masks of a's support, so the cost
    is m*k word-row operations: one gather per support position, OR-ed in
    place.
    """
    m = W.m
    cols = _pack(W.dense().T)
    # Chunk by k rows' words, not one row's: the k times larger chunks made
    # the README factorization_error take 15-22 ms against 8.1-8.4 ms.
    for lo, hi in _row_chunks(m, W.k * n_words(m)):
        support = W.support[lo:hi]
        rows = cols[support[:, 0]]
        for t in range(1, W.k):
            rows |= cols[support[:, t]]
        yield lo, hi, rows


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
    compared chunk by chunk and never held whole; a chunk is popcounted only
    when its XOR with M has a nonzero word.
    """
    if M.m != W.m:
        raise ParameterError(f"M is {M.m}x{M.m} but W has {W.m} rows")
    total = 0
    for lo, hi, rows in _gram_rows(W):
        rows ^= M.bits[lo:hi]
        if np.count_nonzero(rows):
            total += int(np.bitwise_count(rows).sum())
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
