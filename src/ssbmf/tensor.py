"""Third-order intersection tensor bootstrapped from a Boolean Gram matrix.

Entry (a, b, c) is |S_a cap S_b cap S_c|, recovered by inclusion-exclusion
from mu-inverted union sizes:

    T_abc = t_abc - t_ab - t_ac - t_bc + 3k.

Every path reads the union sizes from one table per tensor,
``mu.invert_counts`` of each zero count 0..m.  An anchored tensor is just
its block; a lazy one computes each entry on demand.  Since
T_abc <= |S_a cap S_b|, a lazy entry is 0 without a count when one of the
bits M[a,b], M[a,c], M[b,c] is 0, which spares most random triples the four
union counts; it differs from the count only where a count is misread,
below the sample size.

An anchored block reads only the anchor rows of M, merged over their
distinct columns into weighted packed words whose zero counts
(``mu.zero_counts``) equal those of the full rows.  Its entries with a
repeated index come from the pair counts alone, T_aab = 3k - t_aa - t_ab,
and they bound the rest: T_abc <= min(T_aab, T_abb, T_aac, ...).  So a
distinct triple with a zero pair entry is 0 without a count, and one
chunked pass counts each other unordered triple once and writes it at all
six index orders.  An exact oracle built directly from the generating
supports is provided for testing.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InconsistencyError, ParameterError
from .instance import (_WORD, GramMatrix, SelectionMatrix, _bit, _check_anchors, _check_entry,
                       _pack, _row_chunks, _unpack)
from .mu import _zero_count, invert_counts, mu_table, zero_counts


class IntersectionTensor:
    """Symmetric tensor with entries in {0..k}.

    Either materialized, ``block`` over the rows ``indices`` and nothing
    else, or a lazy handle whose ``entry_fn`` computes every entry on demand
    from the Gram matrix.
    """

    def __init__(self, m, block=None, indices=None, entry_fn=None):
        self.m = m
        self.block = block
        self.indices = tuple(indices) if indices is not None else None
        self._entry_fn = entry_fn
        self._pos = {idx: i for i, idx in enumerate(self.indices or ())}

    def entry(self, a: int, b: int, c: int) -> int:
        _check_entry(self.m, (a, b, c))
        if self._entry_fn is not None:
            return self._entry_fn(a, b, c)
        if a in self._pos and b in self._pos and c in self._pos:
            return int(self.block[self._pos[a], self._pos[b], self._pos[c]])
        raise ParameterError(f"entry ({a},{b},{c}) outside the materialized block")


def contract(T: IntersectionTensor, v) -> np.ndarray:
    """Sum_c v_c * T[:, :, c] over the materialized index set."""
    if T.block is None:
        raise ParameterError("contraction requires a materialized tensor")
    v = np.asarray(v, dtype=float)
    if v.shape != (T.block.shape[0],):
        raise ParameterError(
            f"vector of length {v.shape} against block dim {T.block.shape[0]}")
    return np.einsum("abc,c->ab", T.block.astype(float), v)


def _pie(t_abc, t_ab, t_ac, t_bc, k):
    return t_abc - t_ab - t_ac - t_bc + 3 * k


def _distinct_columns(M: GramMatrix, rows):
    """The given rows of M packed over their distinct columns: (bits, weights).

    Zero counts of these rows depend only on each column's pattern in them.
    A pattern occurring c times is kept once in plane b for each set bit b of
    c, plane b's words weigh 2^b, and the planes hold at most m bits.
    """
    columns = _pack(M.dense(rows).T)  # row j: the pattern of column j
    key = _WORD if columns.shape[1] == 1 else np.dtype((np.void, columns[0].nbytes))
    patterns, counts = np.unique(columns.view(key).ravel(), return_counts=True)
    patterns = _unpack(patterns.view(_WORD).reshape(len(patterns), -1), len(rows))
    planes = [_pack(patterns[(counts >> b) & 1 == 1].T)
              for b in range(int(counts.max()).bit_length())]
    weights = [np.full(plane.shape[1], 1 << b) for b, plane in enumerate(planes)]
    return np.concatenate(planes, axis=1), np.concatenate(weights)


def _block_error(n: int, limit: str) -> ParameterError:
    """The error for an n^3 int16 block beyond ``limit``, naming n0 and its size."""
    need = n ** 3 * np.dtype(np.int16).itemsize
    return ParameterError(
        f"n0={n} anchors need an n0^3 int16 tensor block of {need / 2 ** 30:.3g} GiB, {limit}")


def _check_block_fits(n: int) -> None:
    """ParameterError unless an n^3 int16 block fits in physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n ** 3 * np.dtype(np.int16).itemsize > have:
        raise _block_error(n, f"more than the {have / 2 ** 30:.3g} GiB of physical memory")


def _open_triples(meet: np.ndarray, bits: np.ndarray):
    """Chunks (I, J, L, bits[I] | bits[J] | bits[L]) over the positions
    I < J < L whose three pairs all meet, in block order.  Each pair's OR
    is taken once, and a chunk of unions holds at most _CHUNK_WORDS words."""
    n, words = bits.shape
    upper = np.triu(meet, 1)
    I, J = np.nonzero(upper)
    for lo, hi in _row_chunks(len(I), max(n, words)):
        i, j = I[lo:hi], J[lo:hi]
        p, L = np.nonzero(upper[i] & upper[j])
        pair_union = bits[i] | bits[j]
        for s, e in _row_chunks(len(L), words):
            union = pair_union[p[s:e]]
            union |= bits[L[s:e]]
            yield i[p[s:e]], j[p[s:e]], L[s:e], union


def build_tensor(M: GramMatrix, r: int, k: int, mode: str = "anchored",
                 anchors=None) -> IntersectionTensor:
    """Bootstrap the intersection tensor from the Boolean Gram matrix.

    mode="anchored" materializes the subtensor on the given anchor rows, and
    the tensor is just that block (anchors=range(m) gives the whole tensor,
    memory m^3).  Before M is read, an anchor that is not an integer in
    [0, m) raises IndexError, and no anchors or a block beyond physical
    memory ParameterError, as does a block the process cannot allocate.  A
    distinct triple with a zero pair entry is 0 by the pair bound.
    mode="lazy" only supports per-entry access: an entry is 0 when one of
    its three pair bits of M is 0, else it counts zeros in the ORs of its
    three packed rows.  Entries outside {0..k} raise InconsistencyError.
    """
    m = M.m
    # Union size of every zero count 0..m: the one mu-inversion per tensor.
    size_of = invert_counts(np.arange(m + 1), m, mu_table(r, k))
    if mode == "lazy":
        sizes = size_of.tolist()  # a list reads one entry faster than the array
        rows = M.rows
        slot = range(m) if M.index is None else M.index.tolist()  # row a is rows[slot[a]]

        def entry_fn(a, b, c):
            sa, sb = slot[a], slot[b]
            # T_abc <= |S_a cap S_b|, ...: 0 unless M says all three pairs meet.
            if not (_bit(rows, sa, b) and _bit(rows, sa, c) and _bit(rows, sb, c)):
                return 0
            A, B, C = rows[sa], rows[sb], rows[slot[c]]
            unions = np.empty((4, rows.shape[1]), dtype=_WORD)  # A|B|C, A|B, A|C, B|C
            np.bitwise_or(np.bitwise_or(A, B, out=unions[1]), C, out=unions[0])
            np.bitwise_or(A, C, out=unions[2])
            np.bitwise_or(B, C, out=unions[3])
            val = _pie(*[sizes[m - n] for n in np.bitwise_count(unions).sum(axis=1).tolist()], k)
            if not 0 <= val <= k:
                raise InconsistencyError((a, b, c), val)
            return val

        return IntersectionTensor(m, entry_fn=entry_fn)
    if mode != "anchored":
        raise ParameterError(f"unknown mode {mode!r}")
    if anchors is None:
        raise ParameterError("anchored mode requires an anchor set")
    idx = _check_anchors(m, anchors)
    n = len(idx)
    _check_block_fits(n)
    bits, weights = _distinct_columns(M, np.array(idx))
    weights = weights.astype(np.float32)
    t_pair = size_of[zero_counts(bits, m, range(n), weights=weights)]
    # The entries with a repeated index: pair[a, b] = T_aab = 3k - t_aa - t_ab.
    pair = 3 * k - t_pair.diagonal()[:, None] - t_pair
    try:
        block = np.zeros((n, n, n), dtype=np.int16)
    except MemoryError:  # an address-space limit below physical memory
        raise _block_error(n, "more than this process can allocate") from None
    a, b = np.arange(n)[:, None], np.arange(n)[None, :]
    block[a, a, b] = block[a, b, a] = block[b, a, a] = pair
    bad = bool(((pair < 0) | (pair > k)).any())
    # T_abc <= min(T_aab, T_abb, T_aac, ...): a distinct triple is 0 unless
    # its three pairs meet, so only those are counted.
    meet = (pair != 0) & (pair.T != 0)
    for i, j, l, union in _open_triples(meet, bits):
        val = _pie(size_of[_zero_count(union, m, weights)],
                   t_pair[i, j], t_pair[i, l], t_pair[j, l], k)
        block[i, j, l] = block[i, l, j] = block[j, i, l] = val
        block[j, l, i] = block[l, i, j] = block[l, j, i] = val
        bad = bad or bool(((val < 0) | (val > k)).any())
    if bad:
        i, j, l = np.argwhere((block < 0) | (block > k))[0]
        raise InconsistencyError((idx[i], idx[j], idx[l]), int(block[i, j, l]))
    return IntersectionTensor(m, block=block, indices=idx)


def oracle_tensor(W: SelectionMatrix, materialize: bool = False) -> IntersectionTensor:
    """Exact tensor |S_a cap S_b cap S_c| computed directly from the supports:
    its whole block when materialized, else one entry at a time."""
    if materialize:
        dense = W.dense().astype(np.int32)
        block = np.einsum("ai,bi,ci->abc", dense, dense, dense).astype(np.int16)
        return IntersectionTensor(W.m, block=block, indices=range(W.m))
    masks = [sum(1 << j for j in row) for row in W.rows]

    def entry_fn(a, b, c):
        return (masks[a] & masks[b] & masks[c]).bit_count()

    return IntersectionTensor(W.m, entry_fn=entry_fn)
