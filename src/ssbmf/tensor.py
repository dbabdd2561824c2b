"""Third-order intersection tensor bootstrapped from a Boolean Gram matrix.

Entry (a, b, c) is |S_a cap S_b cap S_c|, recovered by inclusion-exclusion
from mu-inverted union sizes:

    T_abc = t_abc - t_ab - t_ac - t_bc + 3k.

The zero co-occurrence counts behind the union sizes come from the packed
Gram rows (``mu.zero_counts``): slice c of an anchored block ORs row c into
every anchor row before the pair kernel.  An exact oracle built directly
from the generating supports is provided for testing.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import DimensionError, InconsistencyError, ParameterError
from .instance import GramMatrix, SelectionMatrix
from .mu import (MuTable, count_thresholds, invert_counts, mu_table,
                 zero_cooccurrence, zero_counts)


class IntersectionTensor:
    """Symmetric tensor with entries in {0..k}.

    Either fully/partially materialized (``block`` over ``indices``) or a
    lazy handle that computes entries on demand from the Gram matrix.
    """

    def __init__(self, m, k, block=None, indices=None, entry_fn=None):
        self.m = m
        self.k = k
        self.block = block
        self.indices = tuple(indices) if indices is not None else None
        self._entry_fn = entry_fn
        self._pos = ({idx: i for i, idx in enumerate(self.indices)}
                     if self.indices is not None else None)

    @property
    def dim(self) -> int:
        return self.block.shape[0] if self.block is not None else self.m

    def entry(self, a: int, b: int, c: int) -> int:
        if self.block is not None:
            if self._pos is None:
                return int(self.block[a, b, c])
            if a in self._pos and b in self._pos and c in self._pos:
                return int(self.block[self._pos[a], self._pos[b], self._pos[c]])
        if self._entry_fn is None:
            raise ParameterError(f"entry ({a},{b},{c}) outside the materialized block")
        return self._entry_fn(a, b, c)

    def metadata(self) -> dict:
        mode = "full" if self.indices is None and self.block is not None else (
            "anchored" if self.block is not None else "lazy")
        out = {"m": self.m, "k": self.k, "mode": mode}
        if self.indices is not None:
            out["anchors"] = list(self.indices)
        return out


def contract(T: IntersectionTensor, v) -> np.ndarray:
    """Sum_c v_c * T[:, :, c] over the materialized index set."""
    if T.block is None:
        raise ParameterError("contraction requires a materialized tensor")
    v = np.asarray(v, dtype=float)
    if v.shape != (T.block.shape[0],):
        raise DimensionError(
            f"vector of length {v.shape} against block dim {T.block.shape[0]}")
    return np.einsum("abc,c->ab", T.block.astype(float), v)


def _pie(t_abc, t_ab, t_ac, t_bc, k):
    return t_abc - t_ab - t_ac - t_bc + 3 * k


def build_tensor(M: GramMatrix, r: int, k: int, mode: str = "full",
                 anchors=None, table: MuTable = None,
                 clamp: bool = False) -> IntersectionTensor:
    """Bootstrap the intersection tensor from the Boolean Gram matrix.

    mode="anchored" materializes the subtensor on the given anchor rows;
    mode="full" is anchored mode over all m rows (memory m^3); mode="lazy"
    only supports per-entry access.  Entries outside {0..k} raise
    InconsistencyError unless ``clamp`` is set.
    """
    if M.m < 1:
        raise ParameterError("empty Gram matrix")
    if table is None:
        table = mu_table(r, k)
    m = M.m
    thresholds = count_thresholds(m, table).tolist()

    def union(*rows):
        return len(thresholds) - bisect_right(thresholds, zero_cooccurrence(M, rows))

    def entry_fn(a, b, c):
        val = _pie(union(a, b, c), union(a, b), union(a, c), union(b, c), k)
        if not 0 <= val <= k:
            if clamp:
                return min(max(val, 0), k)
            raise InconsistencyError((a, b, c), val)
        return val

    if mode == "lazy":
        return IntersectionTensor(m, k, entry_fn=entry_fn)

    if mode == "full":
        anchors = range(m)
    elif mode != "anchored":
        raise ParameterError(f"unknown mode {mode!r}")
    if anchors is None:
        raise ParameterError("anchored mode requires an anchor set")
    idx = list(anchors)
    n = len(idx)
    t_pair = invert_counts(zero_counts(M, idx, idx), m, table)
    block = np.zeros((n, n, n), dtype=np.int16)
    for i in range(n):
        t_triple = invert_counts(zero_counts(M, idx, idx, extra=idx[i]), m, table)
        block[i] = _pie(t_triple, t_pair[i][:, None], t_pair[i][None, :], t_pair, k)
    bad = (block < 0) | (block > k)
    if bad.any():
        if clamp:
            block = np.clip(block, 0, k)
        else:
            i, j, l = np.argwhere(bad)[0]
            a, b, c = idx[i], idx[j], idx[l]
            raise InconsistencyError((a, b, c), int(block[i, j, l]))
    return IntersectionTensor(m, k, block=block, indices=idx, entry_fn=entry_fn)


def oracle_tensor(W: SelectionMatrix, materialize: bool = False) -> IntersectionTensor:
    """Exact tensor |S_a cap S_b cap S_c| computed directly from the supports."""
    masks = [sum(1 << j for j in row) for row in W.rows]

    def entry_fn(a, b, c):
        return (masks[a] & masks[b] & masks[c]).bit_count()

    block = None
    if materialize:
        dense = W.dense().astype(np.int32)
        block = np.einsum("ai,bi,ci->abc", dense, dense, dense).astype(np.int16)
    return IntersectionTensor(W.m, W.k, block=block, entry_fn=entry_fn)
