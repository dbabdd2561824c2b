from itertools import combinations

import numpy as np
import pytest

from ssbmf import (InconsistencyError, ParameterError, build_tensor,
                   gen_selection_matrix, gram, mu_table, oracle_tensor)
from ssbmf.instance import SelectionMatrix
from ssbmf.mu import invert_counts
from ssbmf.tensor import contract


def all_subsets_matrix(r, k):
    rows = tuple(combinations(range(r), k))
    return SelectionMatrix(m=len(rows), r=r, k=k, rows=rows)


def set_tensor_entry(W, a, b, c):
    return len(set(W.rows[a]) & set(W.rows[b]) & set(W.rows[c]))


def test_oracle_matches_set_arithmetic():
    W = gen_selection_matrix(10, 8, 3, seed=1)
    T = oracle_tensor(W)
    for a in range(10):
        for b in range(10):
            for c in range(10):
                assert T.entry(a, b, c) == set_tensor_entry(W, a, b, c)


def test_oracle_materialized_agrees_with_lazy():
    W = gen_selection_matrix(7, 6, 2, seed=2)
    lazy = oracle_tensor(W)
    full = oracle_tensor(W, materialize=True)
    for a in range(7):
        for b in range(7):
            for c in range(7):
                assert full.block[a, b, c] == lazy.entry(a, b, c)


def test_oracle_diagonal_and_symmetry():
    W = gen_selection_matrix(6, 7, 3, seed=3)
    T = oracle_tensor(W)
    for a in range(6):
        assert T.entry(a, a, a) == 3
        for b in range(6):
            for c in range(6):
                v = T.entry(a, b, c)
                assert v == T.entry(b, a, c) == T.entry(c, b, a)


def test_build_full_population_exact():
    # all C(r,k) subsets once: zero-fractions equal the mu values exactly.
    # r = 8 keeps every reachable union size t <= 3k at a distinct positive mu
    r, k = 8, 2
    W = all_subsets_matrix(r, k)
    M = gram(W)
    T = build_tensor(M, r, k, anchors=range(W.m))
    O = oracle_tensor(W)
    n = W.m
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert T.entry(a, b, c) == O.entry(a, b, c)


def test_build_lazy_matches_full():
    r, k = 8, 2
    W = all_subsets_matrix(r, k)
    M = gram(W)
    full = build_tensor(M, r, k, anchors=range(W.m))
    lazy = build_tensor(M, r, k, mode="lazy")
    for a in (0, 3, 9):
        for b in (1, 5, 14):
            for c in (2, 7, 11):
                assert lazy.entry(a, b, c) == full.entry(a, b, c)


def test_build_anchored_matches_oracle_large_m():
    W = gen_selection_matrix(4000, 10, 2, seed=8)
    M = gram(W)
    anchors = list(range(12))
    T = build_tensor(M, 10, 2, anchors=anchors)
    O = oracle_tensor(W)
    for a in anchors:
        for b in anchors:
            for c in anchors:
                assert T.entry(a, b, c) == O.entry(a, b, c)
    assert T.indices == tuple(anchors)


@pytest.mark.parametrize("order", ["increasing", "shuffled"])
def test_anchored_block_matches_oracle_with_repeated_classes(order):
    # 4000 rows over C(10, 2) = 45 supports: the anchors hold several rows of
    # one support (equal Gram rows), so many triples repeat an index class.
    W = gen_selection_matrix(4000, 10, 2, seed=8)
    supports = W.rows
    anchors = [a for a in range(400) if supports[a] == supports[0]][:5] + list(range(1, 25))
    anchors = sorted(set(anchors))
    if order == "shuffled":
        anchors = np.random.default_rng(3).permutation(anchors).tolist()
    T = build_tensor(gram(W), 10, 2, anchors=anchors)
    sub = SelectionMatrix(m=len(anchors), r=10, k=2, rows=W.support[anchors])
    assert np.array_equal(T.block, oracle_tensor(sub, materialize=True).block)
    assert T.indices == tuple(anchors)


def _reference_block(M, r, k, anchors):
    """The anchored block with zero counts taken straight from M's dense
    anchor rows: the block, or (triple, value) of its first bad entry."""
    table = mu_table(r, k)
    zero = 1.0 - M.dense()[anchors]
    pairs = invert_counts(np.rint(zero @ zero.T).astype(np.int64), M.m, table)
    triples = invert_counts(np.rint(np.einsum("aj,bj,cj->abc", zero, zero, zero,
                                              optimize=True)).astype(np.int64), M.m, table)
    block = triples - pairs[:, :, None] - pairs[:, None, :] - pairs[None, :, :] + 3 * k
    bad = np.argwhere((block < 0) | (block > k))
    if len(bad):
        i, j, l = bad[0]
        return (anchors[i], anchors[j], anchors[l]), int(block[i, j, l])
    return block


def _anchor_sets(m):
    """Shuffled anchor sets of at most 64 rows, of more (two-word column
    patterns) when m allows, and of all m rows."""
    order = np.random.default_rng(m).permutation(m).tolist()
    return [order[:n0] for n0 in sorted({min(m, 20), min(m, 70), m})]


@pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("r, k", [(5, 1), (8, 2)])
def test_anchored_block_matches_dense_reference(m, r, k):
    M = gram(gen_selection_matrix(m, r, k, seed=m))
    for anchors in _anchor_sets(m):
        want = _reference_block(M, r, k, anchors)
        if isinstance(want, tuple):
            with pytest.raises(InconsistencyError) as exc:
                build_tensor(M, r, k, anchors=anchors)
            assert (exc.value.triple, exc.value.value) == want
        else:
            assert np.array_equal(build_tensor(M, r, k, anchors=anchors).block, want)


@pytest.mark.parametrize("m, r", [(63, 7), (64, 8), (65, 5), (130, 13)])
def test_anchored_block_on_balanced_population_matches_oracle(m, r):
    # Each 1-subset of [r] repeated m / r times: the zero fractions equal the
    # mu values exactly, and equal anchor columns repeat with counts of
    # several bits (9, 8, 13 and 10 copies).
    rows = np.random.default_rng(r).permutation(np.repeat(np.arange(r), m // r))[:, None]
    W = SelectionMatrix(m=m, r=r, k=1, rows=rows)
    M = gram(W)
    for anchors in _anchor_sets(m):
        T = build_tensor(M, r, 1, anchors=anchors)
        sub = SelectionMatrix(m=len(anchors), r=r, k=1, rows=rows[anchors])
        assert np.array_equal(T.block, oracle_tensor(sub, materialize=True).block)
        assert np.array_equal(T.block, _reference_block(M, r, 1, anchors))


def test_anchored_entry_outside_block_falls_back():
    W = gen_selection_matrix(4000, 10, 2, seed=8)
    M = gram(W)
    T = build_tensor(M, 10, 2, anchors=[0, 1, 2, 3])
    O = oracle_tensor(W)
    assert T.entry(0, 1, 100) == O.entry(0, 1, 100)


@pytest.mark.parametrize("a", [-1, 300])
def test_lazy_entry_rejects_rows_out_of_range(a):
    # -1 would silently read row m - 1 of the packed words.
    T = build_tensor(gram(gen_selection_matrix(300, 8, 2, seed=1)), 8, 2, mode="lazy")
    for triple in ((a, 0, 1), (0, a, 1), (0, 1, a)):
        with pytest.raises(IndexError, match="out of range for m=300"):
            T.entry(*triple)


def test_inconsistency_raised():
    # all-ones Gram matrix: zero co-occurrence counts are all 0, so every
    # union inverts to t_max and inclusion-exclusion leaves the range {0..k}
    m, r, k = 6, 10, 2
    full = (1 << m) - 1
    from ssbmf.instance import GramMatrix
    M = GramMatrix.from_json({"m": m, "hex_rows": [format(full, "x")] * m})
    with pytest.raises(InconsistencyError, match=r"entry \(0, 0, 0\) = -6 ") as exc:
        build_tensor(M, r, k, anchors=range(m))
    assert (exc.value.triple, exc.value.value) == ((0, 0, 0), -6)


@pytest.mark.parametrize("anchors, triple", [
    (list(range(0, 1500, 23)), (0, 46, 713)),
    (list(range(1499, 0, -23)), (1499, 1269, 809))])
def test_inconsistency_names_the_first_bad_triple(anchors, triple):
    # m = 1500 is below the sample size for r=16, k=3; the first bad entry in
    # block order (positions i <= j <= l) is reported, anchors in given order.
    M = gram(gen_selection_matrix(1500, 16, 3, seed=0))
    with pytest.raises(InconsistencyError) as exc:
        build_tensor(M, 16, 3, anchors=anchors)
    assert (exc.value.triple, exc.value.value) == (triple, -1)


def test_contract_basis_vectors():
    W = gen_selection_matrix(8, 6, 2, seed=4)
    T = oracle_tensor(W, materialize=True)
    for c in (0, 3, 7):
        e = np.zeros(8)
        e[c] = 1.0
        slab = contract(T, e)
        assert np.array_equal(slab, T.block[:, :, c].astype(float))


def test_contract_linear():
    W = gen_selection_matrix(8, 6, 2, seed=5)
    T = oracle_tensor(W, materialize=True)
    rng = np.random.Generator(np.random.Philox(key=9))
    u, v = rng.normal(size=8), rng.normal(size=8)
    lhs = contract(T, 2.0 * u - 3.0 * v)
    rhs = 2.0 * contract(T, u) - 3.0 * contract(T, v)
    assert np.allclose(lhs, rhs)


def test_contract_rank_structure():
    # T(Id, Id, v) = W diag(W^T v) W^T for the exact tensor
    W = gen_selection_matrix(9, 6, 2, seed=6)
    T = oracle_tensor(W, materialize=True)
    rng = np.random.Generator(np.random.Philox(key=11))
    v = rng.normal(size=9)
    dense = W.dense().astype(float)
    want = dense @ np.diag(dense.T @ v) @ dense.T
    assert np.allclose(contract(T, v), want)


def test_build_rejects_unknown_mode():
    M = gram(gen_selection_matrix(5, 6, 2, seed=0))
    with pytest.raises(ParameterError):
        build_tensor(M, 6, 2, mode="sparse")
    with pytest.raises(ParameterError):
        build_tensor(M, 6, 2, mode="anchored")  # anchors missing
