"""Third-order intersection tensor bootstrapped from a Boolean Gram matrix.

Entry (a, b, c) is |S_a cap S_b cap S_c|, recovered by inclusion-exclusion
from mu-inverted union sizes:

    T_abc = t_abc - t_ab - t_ac - t_bc + 3k.

An anchored block reads only the anchor rows of M, merged over their
distinct columns into weighted packed words whose zero counts
(``mu.zero_counts``) equal those of the full rows.  The tensor is symmetric,
so the block computes each unordered anchor triple once: slice i ORs anchor
i into the anchors from position i on, pairs them, and writes the result at
all six index orders.  An exact oracle built directly from the generating
supports is provided for testing.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistencyError, ParameterError
from .instance import _WORD, GramMatrix, SelectionMatrix, _pack, _unpack
from .mu import count_thresholds, invert_counts, mu_table, zero_counts


class IntersectionTensor:
    """Symmetric tensor with entries in {0..k}.

    Either materialized (``block`` over the rows ``indices``, with other
    entries computed on demand) or a lazy handle that computes every entry
    on demand from the Gram matrix.
    """

    def __init__(self, m, block=None, indices=None, entry_fn=None):
        self.m = m
        self.block = block
        self.indices = tuple(indices) if indices is not None else None
        self._entry_fn = entry_fn
        self._pos = {idx: i for i, idx in enumerate(self.indices or ())}

    def entry(self, a: int, b: int, c: int) -> int:
        if a in self._pos and b in self._pos and c in self._pos:
            return int(self.block[self._pos[a], self._pos[b], self._pos[c]])
        if self._entry_fn is None:
            raise ParameterError(f"entry ({a},{b},{c}) outside the materialized block")
        return self._entry_fn(a, b, c)


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


def build_tensor(M: GramMatrix, r: int, k: int, mode: str = "anchored",
                 anchors=None) -> IntersectionTensor:
    """Bootstrap the intersection tensor from the Boolean Gram matrix.

    mode="anchored" materializes the subtensor on the given anchor rows
    (anchors=range(m) gives the whole tensor, memory m^3); mode="lazy" only
    supports per-entry access, each entry counting zeros in the ORs of its
    three packed rows.  Entries outside {0..k} raise InconsistencyError.
    """
    if M.m < 1:
        raise ParameterError("empty Gram matrix")
    m = M.m
    thresholds = count_thresholds(m, mu_table(r, k))

    def entry_fn(a, b, c):
        if not all(0 <= i < m for i in (a, b, c)):  # numpy would wrap negatives
            raise IndexError(f"entry ({a},{b},{c}) out of range for m={m}")
        A, B, C = M.bits[[a, b, c]]
        unions = np.stack([A | B | C, A | B, A | C, B | C])
        counts = m - np.bitwise_count(unions).sum(axis=1, dtype=np.int64)
        val = _pie(*invert_counts(counts, thresholds).tolist(), k)
        if not 0 <= val <= k:
            raise InconsistencyError((a, b, c), val)
        return val

    if mode == "lazy":
        return IntersectionTensor(m, entry_fn=entry_fn)
    if mode != "anchored":
        raise ParameterError(f"unknown mode {mode!r}")
    if anchors is None:
        raise ParameterError("anchored mode requires an anchor set")
    idx = list(anchors)
    n = len(idx)
    bits, weights = _distinct_columns(M, idx)
    t_pair = invert_counts(zero_counts(bits, m, range(n), weights=weights), thresholds)
    block = np.empty((n, n, n), dtype=np.int16)
    for i in range(n):
        # The triples whose smallest position is i, written at all six orders.
        t_triple = invert_counts(
            zero_counts(bits[i:], m, range(n - i), extra=0, weights=weights), thresholds)
        row = t_pair[i, i:]
        block[i, i:, i:] = block[i:, i, i:] = block[i:, i:, i] = _pie(
            t_triple, row[:, None], row[None, :], t_pair[i:, i:], k)
    bad = (block < 0) | (block > k)
    if bad.any():
        i, j, l = np.argwhere(bad)[0]
        raise InconsistencyError((idx[i], idx[j], idx[l]), int(block[i, j, l]))
    return IntersectionTensor(m, block=block, indices=idx, entry_fn=entry_fn)


def oracle_tensor(W: SelectionMatrix, materialize: bool = False) -> IntersectionTensor:
    """Exact tensor |S_a cap S_b cap S_c| computed directly from the supports."""
    masks = [sum(1 << j for j in row) for row in W.rows]

    def entry_fn(a, b, c):
        return (masks[a] & masks[b] & masks[c]).bit_count()

    if materialize:
        dense = W.dense().astype(np.int32)
        block = np.einsum("ai,bi,ci->abc", dense, dense, dense).astype(np.int16)
        return IntersectionTensor(W.m, block=block, indices=range(W.m), entry_fn=entry_fn)
    return IntersectionTensor(W.m, entry_fn=entry_fn)
