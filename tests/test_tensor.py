import os
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from ssbmf import (InconsistencyError, ParameterError, build_tensor,
                   gen_selection_matrix, gram, mu_table, oracle_tensor)
from ssbmf.instance import SelectionMatrix
from ssbmf.mu import invert_counts, invert_fraction
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


def _bootstrap(M, r, k, anchors):
    """The raw anchored block, out-of-range entries included, with zero
    counts taken straight from M's dense anchor rows."""
    table = mu_table(r, k)
    zero = 1.0 - M.dense()[anchors]
    pairs = invert_counts(np.rint(zero @ zero.T).astype(np.int64), M.m, table)
    triples = invert_counts(np.rint(np.einsum("aj,bj,cj->abc", zero, zero, zero,
                                              optimize=True)).astype(np.int64), M.m, table)
    return triples - pairs[:, :, None] - pairs[:, None, :] - pairs[None, :, :] + 3 * k


def _forced_zero(block):
    """Flags of the distinct-index entries that have a zero pair entry, which
    the pair bound T_abc <= min(T_aab, T_abb, T_aac, ...) forces to 0."""
    n = len(block)
    pair = block[np.arange(n), np.arange(n)]  # pair[a, b] = T_aab
    meet = (pair != 0) & (pair.T != 0)
    distinct = np.ones((n, n), bool)
    np.fill_diagonal(distinct, False)
    return (distinct[:, :, None] & distinct[:, None, :] & distinct[None, :, :]
            & ~(meet[:, :, None] & meet[:, None, :] & meet[None, :, :]))


def _unmet(M, rows):
    """Flags of the triples over the given rows with a zero bit of M among
    their three pairs, which a lazy entry returns as 0 without a count."""
    meet = M.dense(rows)[:, rows].astype(bool)
    return ~(meet[:, :, None] & meet[:, None, :] & meet[None, :, :])


def _reference_block(M, r, k, anchors):
    """The dense bootstrap with the entries the pair bound forces to 0
    zeroed: the block, or (triple, value) of its first bad entry."""
    block = _bootstrap(M, r, k, anchors)
    block[_forced_zero(block)] = 0
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


def test_anchored_block_beyond_physical_memory_is_a_parameter_error(monkeypatch):
    # On a machine of 2 * 64^3 bytes a 64-anchor int16 block fits and a
    # 65-anchor one does not; the check comes before the anchor rows are read.
    import ssbmf.tensor
    sysconf = os.sysconf
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 * 64 ** 3 // 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or sysconf(name))
    M = gram(gen_selection_matrix(300, 8, 2, seed=1))
    assert build_tensor(M, 8, 2, anchors=range(64)).block.shape == (64, 64, 64)

    def unread(*args):
        raise AssertionError("anchor rows read")

    monkeypatch.setattr(ssbmf.tensor, "_distinct_columns", unread)
    with pytest.raises(ParameterError, match=r"^n0=65 anchors need an n0\^3 int16 tensor "
                       r"block of 0\.000512 GiB, more than the 0\.000488 GiB of physical memory$"):
        build_tensor(M, 8, 2, anchors=range(65))


def test_anchored_block_the_process_cannot_allocate_is_a_parameter_error(monkeypatch):
    # An address-space limit (ulimit -v) can refuse a block that fits in
    # physical memory.  Only the 3-D block's allocation fails here: packing
    # the anchor rows allocates 2-D zeros.
    zeros = np.zeros

    def refusing(shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 3:
            raise MemoryError(f"cannot allocate an array of shape {shape}")
        return zeros(shape, *args, **kwargs)

    M = gram(gen_selection_matrix(300, 8, 2, seed=1))
    monkeypatch.setattr(np, "zeros", refusing)
    with pytest.raises(ParameterError, match=r"^n0=64 anchors need an n0\^3 int16 tensor block "
                       r"of 0\.000488 GiB, more than this process can allocate$"):
        build_tensor(M, 8, 2, anchors=range(64))


@pytest.mark.parametrize("anchors, error, message", [
    ([-1, 0, 1, 2], IndexError, r"anchor \(-1\) out of range for m=300"),
    ([0, 1, 300], IndexError, r"anchor \(300\) out of range for m=300"),
    ([True, 2, 3], IndexError, r"anchor \(True\): True is not an integer index"),
    ([0, np.False_, 3], IndexError, r"anchor \(False\): np\.False_ is not an integer index"),
    ([0, 1.5, 2], IndexError, r"anchor \(1\.5\): 1\.5 is not an integer index"),
    ([], ParameterError, r"the anchor set is empty")])
def test_anchored_build_rejects_bad_anchors_before_reading_m(anchors, error, message):
    # -1 would build over row m - 1 and True over row 1.  M has no rows
    # here, so a check that came after reading them would fail otherwise.
    M = SimpleNamespace(m=300)
    with pytest.raises(error, match=rf"^{message}$"):
        build_tensor(M, 8, 2, anchors=anchors)


def test_anchored_entry_outside_block_raises():
    # An anchored tensor is its block: no entry is counted outside it.
    W = gen_selection_matrix(4000, 10, 2, seed=8)
    M = gram(W)
    T = build_tensor(M, 10, 2, anchors=[0, 1, 2, 3])
    O = oracle_tensor(W)
    assert T.entry(0, 3, 1) == O.entry(0, 3, 1)
    with pytest.raises(ParameterError, match=r"^entry \(0,1,100\) outside the materialized block$"):
        T.entry(0, 1, 100)


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


def test_lazy_entry_raises_inconsistency():
    # The all-ones Gram matrix of test_inconsistency_raised, read entry by entry.
    m, r, k = 6, 10, 2
    from ssbmf.instance import GramMatrix
    M = GramMatrix.from_json({"m": m, "hex_rows": [format((1 << m) - 1, "x")] * m})
    T = build_tensor(M, r, k, mode="lazy")
    with pytest.raises(InconsistencyError, match=r"entry \(2, 0, 5\) = -6 ") as exc:
        T.entry(2, 0, 5)
    assert (exc.value.triple, exc.value.value) == ((2, 0, 5), -6)


@pytest.mark.parametrize("mode", ["lazy", "anchored"])
def test_tensor_builds_its_thresholds_once(mode, monkeypatch):
    # One inversion, of the counts 0..m, per tensor: not one per entry or
    # per slice.  An anchored tensor reads its entries from its block only.
    import ssbmf.tensor
    inversions = []

    def inverting(counts, m, table):
        inversions.append((len(counts), m, table.r, table.k))
        return invert_counts(counts, m, table)

    monkeypatch.setattr(ssbmf.tensor, "invert_counts", inverting)
    W = gen_selection_matrix(600, 8, 2, seed=4)
    T = build_tensor(gram(W), 8, 2, mode=mode, anchors=None if mode == "lazy" else range(24))
    oracle = oracle_tensor(W)
    rows = 600 if mode == "lazy" else 24
    triples = np.random.default_rng(0).integers(0, rows, size=(100, 3)).tolist()
    assert [T.entry(*t) for t in triples] == [oracle.entry(*t) for t in triples]
    if mode == "anchored":
        with pytest.raises(ParameterError, match="outside the materialized block"):
            T.entry(0, 1, 24)
    assert inversions == [(601, 600, 8, 2)]


@pytest.mark.parametrize("m, r, k", [(8, 4, 1), (10, 5, 1), (600, 8, 2), (1000, 16, 3),
                                     (64, 12, 3), (65, 5, 1)])
def test_size_table_equals_the_exact_inversion_of_every_count(m, r, k, monkeypatch):
    # All but m = 65 put some count exactly on the midpoint of two
    # consecutive mu values, where the tie goes to the smaller union size.
    import ssbmf.tensor
    tables = []

    def keeping(counts, m, table):
        tables.append(invert_counts(counts, m, table))
        return tables[-1]

    monkeypatch.setattr(ssbmf.tensor, "invert_counts", keeping)
    build_tensor(gram(gen_selection_matrix(m, r, k, seed=m)), r, k, mode="lazy")
    table = mu_table(r, k)
    assert tables[0].tolist() == [invert_fraction(Fraction(c, m), table) for c in range(m + 1)]
    mu = table.values
    ties = {int(m * (mu[t] + mu[t + 1]) / 2): t for t in range(table.t_max)
            if (m * (mu[t] + mu[t + 1]) / 2).denominator == 1}
    assert bool(ties) == (m != 65)
    assert all(tables[0][c] == t for c, t in ties.items())


def _exact_population(m, k):
    """m rows whose bootstrapped tensor is exact: k = 1 balances the
    1-subsets of [r], k = 2 holds every pair of [8] twice and a few more,
    k = 3 every 3-subset of [12].  Returns (r, rows)."""
    if k == 1:
        r = {63: 7, 64: 8, 65: 5}[m]
        return r, np.random.default_rng(r).permutation(np.repeat(np.arange(r), m // r))[:, None]
    if k == 2:
        more = [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7), (0, 3)]
        return 8, list(combinations(range(8), 2)) * 2 + more[:m - 56]
    return 12, list(combinations(range(12), 3))


@pytest.mark.parametrize("m, k", [(63, 1), (64, 1), (65, 1), (63, 2), (64, 2), (65, 2),
                                  (220, 3)])
def test_lazy_entries_match_the_oracle_on_ordered_triples(m, k):
    # Every ordered triple of rows 0..11 and the last 8, which hold repeated
    # supports and the k = 2 rows past the full population; m = 63, 64 and 65
    # put the padding at a word boundary, m = 220 has 36 padding bits.
    r, rows = _exact_population(m, k)
    W = SelectionMatrix(m=m, r=r, k=k, rows=rows)
    T = build_tensor(gram(W), r, k, mode="lazy")
    want = oracle_tensor(W, materialize=True).block
    idx = list(range(12)) + list(range(m - 8, m))
    assert all(T.entry(a, b, c) == want[a, b, c] for a, b, c in product(idx, repeat=3))


@pytest.mark.parametrize("m", [63, 64, 65])
def test_lazy_entries_match_the_dense_bootstrap_at_k3(m):
    # k = 3 at m ~ 64 is far below the sample size: many entries leave
    # {0..k}, and each such entry raises with the dense bootstrap's value.
    # A triple with a zero pair bit of M is 0 whatever its count.
    M = gram(gen_selection_matrix(m, 12, 3, seed=m))
    T = build_tensor(M, 12, 3, mode="lazy")
    want = _bootstrap(M, 12, 3, list(range(m)))
    want[_unmet(M, list(range(m)))] = 0
    bad = 0
    for a, b, c in product(list(range(10)) + list(range(m - 6, m)), repeat=3):
        if 0 <= want[a, b, c] <= 3:
            assert T.entry(a, b, c) == want[a, b, c]
        else:
            bad += 1
            with pytest.raises(InconsistencyError) as exc:
                T.entry(a, b, c)
            assert (exc.value.triple, exc.value.value) == ((a, b, c), want[a, b, c])
    assert bad > 0


@pytest.mark.parametrize("m, r, k", [(6151, 12, 2), (13302, 16, 3)])
def test_lazy_entries_of_rows_that_meet_pairwise_match_the_oracle(m, r, k):
    # Few random triples meet pairwise, so these are drawn to: b meets a and
    # c meets both, read from W's supports.  Each is counted, not skipped.
    W = gen_selection_matrix(m, r, k, seed=m)
    M = gram(W)
    T = build_tensor(M, r, k, mode="lazy")
    oracle = oracle_tensor(W)
    support = W.dense().astype(bool)
    rng = np.random.default_rng(m)
    values = []
    for a in rng.choice(m, 100, replace=False):
        meets_a = support @ support[a]
        b = rng.choice(np.flatnonzero(meets_a))
        c = rng.choice(np.flatnonzero(meets_a & (support @ support[b])))
        for triple in ((a, b, c), (c, a, b), (a, a, b), (b, c, c)):
            assert all(M.entry(*p) for p in combinations(triple, 2))
            assert T.entry(*triple) == oracle.entry(*triple)
            values.append(oracle.entry(*triple))
    assert {0, 1, 2} <= set(values)


class _Row(int):
    """An int subclass that is not bool."""


@pytest.mark.parametrize("mode", ["lazy", "anchored"])
@pytest.mark.parametrize("index", [True, np.True_, False, 1.0, 1.5, np.float64(2.0), "1"])
def test_entry_rejects_an_index_that_is_not_an_integer(mode, index):
    # A bool would silently read row 0 or 1, a float is not a row at all.
    W = gen_selection_matrix(300, 8, 2, seed=1)
    M = gram(W)
    T = build_tensor(M, 8, 2, mode=mode, anchors=None if mode == "lazy" else range(8))
    for triple in ((index, 0, 1), (0, index, 1), (0, 1, index)):
        name = ",".join(map(str, triple))
        with pytest.raises(IndexError, match=rf"^entry \({name}\): .* is not an integer index$"):
            T.entry(*triple)
    oracle = oracle_tensor(W)
    assert T.entry(np.int64(3), np.uint8(1), 2) == oracle.entry(3, 1, 2)
    # numpy integers in every position, at a triple whose pair bits are all
    # set and at one with a zero pair bit.
    met = [t for t in combinations(range(8), 3) if all(M.entry(*p) for p in combinations(t, 2))]
    unmet = [t for t in combinations(range(8), 3) if t not in met]
    for triple in (met[0], unmet[0]):
        for np_int, pos in product((np.int64, np.int32), range(3)):
            given = list(triple)
            given[pos] = np_int(given[pos])
            assert T.entry(*given) == oracle.entry(*triple)
        assert T.entry(*map(np.int32, triple)) == oracle.entry(*triple)
        # An int subclass other than bool is an integer, as a plain int is.
        assert T.entry(*map(_Row, triple)) == oracle.entry(*triple)


@pytest.mark.parametrize("anchors, triple", [
    (list(range(0, 1500, 23)), (414, 414, 506)),
    (list(range(1499, 0, -23)), ())])
def test_inconsistency_names_the_first_bad_triple(anchors, triple):
    # m = 1500 is below the sample size for r=16, k=3; the first bad entry in
    # block order is reported, anchors in given order.  Each bad entry of the
    # reversed anchors' raw bootstrap sits at a triple the pair bound forces
    # to 0, so that block has no bad triple.
    M = gram(gen_selection_matrix(1500, 16, 3, seed=0))
    want = _reference_block(M, 16, 3, anchors)
    if not triple:
        assert np.array_equal(build_tensor(M, 16, 3, anchors=anchors).block, want)
        raw = _bootstrap(M, 16, 3, anchors)
        bad = (raw < 0) | (raw > 3)
        assert bad.any() and not (bad & ~_forced_zero(raw)).any()
        return
    assert want == (triple, -1)
    with pytest.raises(InconsistencyError) as exc:
        build_tensor(M, 16, 3, anchors=anchors)
    assert (exc.value.triple, exc.value.value) == want


@pytest.mark.parametrize("m, r, k, seed, anchors, triple", [
    (1500, 16, 3, 1, list(range(0, 640, 20)), (280, 280, 300)),
    (65, 8, 2, 1, list(range(65)), (0, 63, 63)),
    (2000, 16, 4, 2, list(range(40)), (0, 19, 24))])
def test_bad_pair_entry_and_bad_open_triple_raise(m, r, k, seed, anchors, triple):
    # A pair entry is always checked, and so is a distinct triple whose pairs
    # all meet: the last block has no bad pair entry.  In the second, pair
    # (0, 63) is T_{0,0,63} = 0 but T_{0,63,63} = -1; one zero forces the
    # earlier bad triple (0, 1, 63) to 0.
    M = gram(gen_selection_matrix(m, r, k, seed=seed))
    raw = _bootstrap(M, r, k, anchors)
    n = len(anchors)
    pair = raw[np.arange(n), np.arange(n)]
    pair_bad = ((pair < 0) | (pair > k)).any()
    assert pair_bad == (len(set(triple)) < 3)
    if not pair_bad:
        i, j, l = (anchors.index(a) for a in triple)
        assert 0 not in (pair[i, j], pair[j, i], pair[i, l], pair[l, i], pair[j, l], pair[l, j])
    assert _reference_block(M, r, k, anchors) == (triple, -1)
    with pytest.raises(InconsistencyError) as exc:
        build_tensor(M, r, k, anchors=anchors)
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
