import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ssbmf import (ExtensionError, ParameterError, RecoverConfig, RoundingError,
                   extend_from_anchors, gen_selection_matrix, gram,
                   jennrich_decompose, match_columns, mu_table, oracle_tensor,
                   round_boolean, tensor_recover)
from ssbmf.instance import GramMatrix, SelectionMatrix
from ssbmf.errors import RankDeficiencyError
from ssbmf.mu import union_block


def recover_via_oracle(W, seed=0):
    """Decompose the exact tensor and round, for tests that isolate the
    eigen stage from the bootstrapping stage."""
    T = oracle_tensor(W, materialize=True)
    vectors = jennrich_decompose(T, W.r, seed=seed)
    return np.stack([round_boolean(v) for v in vectors], axis=1)


def test_decompose_recovers_planted_columns():
    W = gen_selection_matrix(40, 8, 2, seed=1)
    dense = W.dense()
    block = recover_via_oracle(W)
    got = sorted(tuple(block[:, i]) for i in range(8))
    want = sorted(tuple(dense[:, j]) for j in range(8))
    assert got == want


def test_decompose_needs_materialized():
    W = gen_selection_matrix(10, 6, 2, seed=0)
    with pytest.raises(ParameterError):
        jennrich_decompose(oracle_tensor(W), 6)


def test_decompose_rank_deficient_raises():
    # duplicate a column by using only r-1 of the r indices
    rows = tuple((0, j % 4) if j % 4 else (1, 2) for j in range(1, 30))
    W = SelectionMatrix(m=29, r=6, k=2, rows=rows)
    T = oracle_tensor(W, materialize=True)
    with pytest.raises(RankDeficiencyError):
        jennrich_decompose(T, 6)


def test_decompose_checks_rank_on_the_ones_contraction_before_any_draw(monkeypatch):
    import ssbmf.jennrich
    from ssbmf.tensor import contract
    rows = tuple((0, j % 4) if j % 4 else (1, 2) for j in range(1, 30))
    T = oracle_tensor(SelectionMatrix(m=29, r=6, k=2, rows=rows), materialize=True)
    calls, draws = [], []
    monkeypatch.setattr(ssbmf.jennrich, "contract", lambda T, v: calls.append(v) or contract(T, v))
    monkeypatch.setattr(ssbmf.jennrich, "_rng", lambda *args: draws.append(args))
    with pytest.raises(RankDeficiencyError, match=r"^contraction has numerical rank \d+ < r=6$"):
        jennrich_decompose(T, 6)
    assert len(calls) == 1 and np.array_equal(calls[0], np.ones(29))
    assert draws == []


def test_decompose_seeds_differing_by_two_to_the_64_draw_different_vectors():
    W = gen_selection_matrix(40, 8, 2, seed=1)
    T = oracle_tensor(W, materialize=True)
    orders = [[tuple(round_boolean(v)) for v in jennrich_decompose(T, 8, seed=s)]
              for s in (0, 1 << 64)]
    assert orders[0] != orders[1]
    assert sorted(orders[0]) == sorted(orders[1]) == sorted(map(tuple, W.dense().T))


@pytest.mark.parametrize("equal_attempts", [1, 5])
def test_decompose_retries_equal_contractions(equal_attempts, monkeypatch):
    # A random contraction equal to the whitening one, T(I, I, 1), whitens to
    # the identity: every eigenvalue collides, so the attempt is retried with
    # a fresh vector, and after RETRIES such attempts the decomposition
    # raises DegeneracyError.
    import ssbmf.jennrich
    from ssbmf.errors import DegeneracyError
    from ssbmf.tensor import contract
    calls = []

    def contract_equal(T, v):
        calls.append(v)
        if 1 < len(calls) <= 1 + equal_attempts:
            v = np.ones(len(v))
        return contract(T, v)

    monkeypatch.setattr(ssbmf.jennrich, "contract", contract_equal)
    W = gen_selection_matrix(40, 8, 2, seed=1)
    T = oracle_tensor(W, materialize=True)
    diagnostics = {}
    if equal_attempts < ssbmf.jennrich.RETRIES:
        vectors = jennrich_decompose(T, 8, diagnostics=diagnostics)
        assert diagnostics["retries"] == equal_attempts
        block = np.stack([round_boolean(v) for v in vectors], axis=1)
        assert sorted(map(tuple, block.T)) == sorted(map(tuple, W.dense().T))
    else:
        with pytest.raises(DegeneracyError, match="after 5 retries"):
            jennrich_decompose(T, 8, diagnostics=diagnostics)
        assert "retries" not in diagnostics
    assert len(calls) == 1 + min(equal_attempts + 1, ssbmf.jennrich.RETRIES)


def test_round_boolean_examples():
    assert round_boolean([0.1, -0.9, 0.05, -0.95]).tolist() == [0, 1, 0, 1]
    assert round_boolean([2.0, 0.0, 2.0]).tolist() == [1, 0, 1]
    with pytest.raises(RoundingError):
        round_boolean([1.0, 0.5, 0.0])
    with pytest.raises(ParameterError):
        round_boolean([0.0, 0.0])


def test_round_boolean_sign_invariant():
    v = np.array([0.98, -0.02, 1.01, 0.0, 0.97])
    assert np.array_equal(round_boolean(v), round_boolean(-v))
    assert round_boolean(v).tolist() == [1, 0, 1, 0, 1]


def test_extend_from_anchors_exact():
    W = gen_selection_matrix(5000, 10, 2, seed=7)
    M = gram(W)
    anchors = list(range(40))
    block = W.dense()[anchors]
    W_hat = extend_from_anchors(block, anchors, M, 2)
    assert W_hat.rows == W.rows


def test_extend_from_anchors_readme_instance():
    # m = required_sample_size(16, 3, 9, 0.1): the README instance
    W = gen_selection_matrix(13302, 16, 3, seed=0)
    rng = np.random.Generator(np.random.Philox(key=64))
    anchors = sorted(rng.choice(W.m, size=64, replace=False).tolist())
    W_hat = extend_from_anchors(W.dense()[anchors], anchors, gram(W), 3)
    assert W_hat.rows == W.rows
    assert np.array_equal(W_hat.support, W.support)


def _meeting_every_row(bits, rows):
    """Copy of the packed Gram rows in which each of ``rows`` meets every row."""
    bits = bits.copy()
    for a in rows:
        bits[a] = gram(SelectionMatrix(m=len(bits), r=1, k=1, rows=[[0]] * len(bits))).bits[0]
        bits[:, a // 64] |= np.uint64(1 << (a % 64))
    return bits


def test_extend_rejects_non_sparse_extended_row():
    W = gen_selection_matrix(400, 6, 2, seed=1)
    M = gram(W)
    # row 200 meets every row, so its zero counts are 0: maximal unions,
    # zero intersections with the anchors, and an all-zero rounded row
    bits = _meeting_every_row(M.bits, [200])
    with pytest.raises(ExtensionError, match="row 200 rounded to sparsity 0"):
        extend_from_anchors(W.dense()[:30], range(30), GramMatrix(m=400, rows=bits), 2)


@pytest.mark.parametrize("copy, named", [(300, 200), (100, 100)])
def test_extend_names_the_lowest_of_equal_failing_rows(copy, named):
    # Row 200 and its copy have equal Gram rows and so one row class; the
    # error names the lower of the two, as a row-by-row scan would.
    W = gen_selection_matrix(400, 6, 2, seed=1)
    bits = _meeting_every_row(gram(W).bits, [200, copy])
    assert np.array_equal(bits[200], bits[copy])
    with pytest.raises(ExtensionError, match=f"row {named} rounded to sparsity 0"):
        extend_from_anchors(W.dense()[:30], range(30), GramMatrix(m=400, rows=bits), 2)


def _least_squares_rows(anchor_block, anchors, M, table, k):
    """Reference for extend_from_anchors without the decode: the non-anchor
    rows, their rounded least-squares rows and the sparsity and re-check
    outcome of each, from one union block over every non-anchor row."""
    others = np.setdiff1d(np.arange(M.m), anchors)
    counts = 2 * k - union_block(M, table, others, anchors)
    extended = (counts @ np.linalg.pinv(anchor_block).T > 0.5).astype(np.int64)
    sums = extended.sum(axis=1)
    return others, extended, sums, np.any(extended @ anchor_block.T != counts, axis=1)


def _extend_reference(anchor_block, anchors, M, table, k):
    """The supports, or the error message of the lowest failing row, when
    every non-anchor row is solved by least squares."""
    others, extended, sums, wrong = _least_squares_rows(anchor_block, anchors, M, table, k)
    for i in np.flatnonzero((sums != k) | wrong):
        if sums[i] != k:
            return f"row {others[i]} rounded to sparsity {sums[i]}, expected {k}"
        return f"row {others[i]} fails the intersection re-check"
    dense = np.zeros((M.m, anchor_block.shape[1]), dtype=np.int64)
    dense[anchors], dense[others] = anchor_block, extended
    return np.nonzero(dense)[1].reshape(M.m, k).tolist()


def _extend_outcome(anchor_block, anchors, M, k):
    try:
        return extend_from_anchors(anchor_block, anchors, M, k).support.tolist()
    except ExtensionError as exc:
        return str(exc)


# r=6, k=2 repeats each of the C(6, 2) = 15 supports many times; at r=40,
# k=5 almost every row has its own Gram row.  Small m makes the least-squares
# extension fail; the decode resolves (40, 6, 2, 30), (60, 6, 2, 30) and
# (3905, 40, 5, 160) to the true W.
@pytest.mark.parametrize("m, r, k, n0, seed", [
    (3000, 6, 2, 30, 0), (40, 6, 2, 30, 1), (60, 6, 2, 30, 0),
    (3905, 40, 5, 160, 0), (13302, 40, 5, 160, 0)])
def test_extend_matches_reference_without_row_classes(m, r, k, n0, seed):
    W = gen_selection_matrix(m, r, k, seed=seed)
    M, table = gram(W), mu_table(r, k)
    anchors = sorted(np.random.default_rng(seed).choice(m, size=n0, replace=False).tolist())
    block = W.dense()[anchors]
    want = _extend_reference(block, anchors, M, table, k)
    got = _extend_outcome(block, anchors, M, k)
    if isinstance(want, list):
        assert got == want
    else:
        assert got in (want, W.support.tolist())


@pytest.mark.parametrize("m, r, k, n0, seed", [
    (13302, 16, 3, 64, 105), (600, 6, 2, 12, 2), (300, 8, 2, 20, 2),
    (1500, 16, 3, 48, 1), (20000, 40, 5, 56, 9)])
def test_decode_agrees_with_least_squares_reference(m, r, k, n0, seed):
    # True anchor blocks on exact Gram matrices: every row comes out as W's,
    # some through the decode and some through the fallback, and equals the
    # least-squares row wherever that row passes its checks.  At m=300 and
    # m=1500 the least squares alone fails on 123 and 118 rows.
    W = gen_selection_matrix(m, r, k, seed=seed)
    M, table = gram(W), mu_table(r, k)
    anchors = sorted(np.random.default_rng(seed).choice(m, size=n0, replace=False).tolist())
    block = W.dense()[anchors]
    diagnostics = {}
    W_hat = extend_from_anchors(block, anchors, M, k, diagnostics)
    assert np.array_equal(W_hat.support, W.support)
    # The fallback rows are those whose candidate count, taken from W, is not k.
    dense = W.dense().astype(np.int64)
    misses = (dense[anchors] @ dense.T == 0).astype(np.int64)
    candidates = np.count_nonzero(misses.T @ dense[anchors] == 0, axis=1)
    candidates[anchors] = k
    assert diagnostics["fallback_rows"] == np.count_nonzero(candidates != k)
    assert 0 < diagnostics["fallback_rows"] < m - n0
    others, extended, sums, wrong = _least_squares_rows(block, anchors, M, table, k)
    ok = (sums == k) & ~wrong
    assert ok.any()
    got = W_hat.dense()[others]
    assert np.array_equal(got[ok], extended[ok])


@pytest.mark.parametrize("m, n0", [(1, 1), (63, 40), (64, 64), (65, 65), (130, 20), (130, 100)])
def test_decode_candidates_match_dense_brute_force(m, n0, monkeypatch):
    # Sizes around the word boundary, at most and more than 64 anchors, on a
    # Gram matrix with 5% of its bits flipped so that candidate counts vary.
    r, k = (1, 1) if m == 1 else (8, 2)
    W = gen_selection_matrix(m, r, k, seed=m + n0)
    rng = np.random.default_rng(m + n0)
    dense = gram(W).dense() ^ (rng.random((m, m)) < 0.05)
    bits = np.packbits(dense, axis=1, bitorder="little")
    words = np.zeros((m, (m + 63) // 64 * 8), dtype=np.uint8)
    words[:, : bits.shape[1]] = bits
    M = GramMatrix(m=m, rows=words.view("<u8"))
    anchors = sorted(rng.choice(m, size=n0, replace=False).tolist())
    block = W.dense()[anchors]
    assert np.linalg.matrix_rank(block) == r
    # Column j is a candidate for row a when M[b, a] = 1 for every anchor b holding j.
    candidates = np.array([[all(dense[b, a] for b, row in zip(anchors, block) if row[j])
                            for j in range(r)] for a in range(m)], dtype=np.int8)
    candidates[anchors] = block
    undecided = np.flatnonzero(candidates.sum(axis=1) != k)
    # The fallback solve gets the exact unions of the support {0..k-1}.
    fallback = np.zeros(r, dtype=np.int8)
    fallback[:k] = 1
    calls = []

    def union_block(M_, table, rows_a, rows_b):
        calls.append(list(rows_a))
        return 2 * k - np.tile(block @ fallback, (len(rows_a), 1))

    monkeypatch.setattr("ssbmf.jennrich.union_block", union_block)
    diagnostics = {}
    W_hat = extend_from_anchors(block, anchors, M, k, diagnostics)
    assert calls == [undecided.tolist()]
    assert diagnostics["fallback_rows"] == len(undecided)
    candidates[undecided] = fallback
    assert np.array_equal(W_hat.dense(), candidates)


def _packed_gram(dense) -> GramMatrix:
    """A GramMatrix holding the 0/1 array dense as is, symmetric or not."""
    m = len(dense)
    bits = np.packbits(dense, axis=1, bitorder="little")
    words = np.zeros((m, (m + 63) // 64 * 8), dtype=np.uint8)
    words[:, : bits.shape[1]] = bits
    return GramMatrix(m=m, rows=words.view("<u8"))


def _iterated_decode_reference(dense, anchors, block, k):
    """The iterated decode with Python sets: (candidates of every row, the
    rows left undecided, passes run, the rows the anchor pass left undecided).
    A pass keeps candidate j of an undecided row a when dense[a][b] is set
    for every row b decoded before the pass that holds j."""
    m, r = len(dense), block.shape[1]
    held = {b: {j for j in range(r) if row[j]} for b, row in zip(anchors, block)}
    candidates = [{j for j in range(r) if all(dense[b][a] for b in anchors if j in held[b])}
                  for a in range(m)]
    for b in anchors:
        candidates[b] = held[b]
    undecided = [a for a in range(m) if len(candidates[a]) != k]
    fallback_rows, passes = undecided, 1
    while undecided:
        passes += 1
        tests = set(range(m)) - set(undecided)
        for a in undecided:
            candidates[a] = {j for j in candidates[a]
                             if all(dense[a][b] for b in tests if j in candidates[b])}
        if all(len(candidates[a]) != k for a in undecided):
            break
        undecided = [a for a in undecided if len(candidates[a]) != k]
    return candidates, undecided, passes, fallback_rows


@pytest.mark.parametrize("flip", [0, 0.01, 0.03, 0.05])
@pytest.mark.parametrize("m", [63, 64, 65, 130])
def test_iterated_decode_matches_dense_brute_force(m, flip, monkeypatch):
    # Exact Gram matrices and ones with a share of their bits flipped (not
    # symmetrically), around the word boundary; 16 anchors leave 3-55 rows
    # to the passes, which run 2-3 times.
    r, k, n0 = 8, 2, 16
    W = gen_selection_matrix(m, r, k, seed=m)
    rng = np.random.default_rng(m)
    dense = gram(W).dense() ^ (rng.random((m, m)) < flip)
    anchors = sorted(rng.choice(m, size=n0, replace=False).tolist())
    block = W.dense()[anchors]
    assert np.linalg.matrix_rank(block) == r
    candidates, undecided, passes, fallback_rows = _iterated_decode_reference(
        dense.tolist(), anchors, block, k)
    assert fallback_rows
    # Each undecided row gets the exact unions of the support {0..k-1}.
    fallback = np.zeros(r, dtype=np.int8)
    fallback[:k] = 1
    calls = []

    def union_block(M_, table, rows_a, rows_b):
        calls.append(list(rows_a))
        return 2 * k - np.tile(block @ fallback, (len(rows_a), 1))

    monkeypatch.setattr("ssbmf.jennrich.union_block", union_block)
    diagnostics = {}
    W_hat = extend_from_anchors(block, anchors, _packed_gram(dense), k, diagnostics)
    assert calls == [undecided]
    assert (diagnostics["fallback_rows"], diagnostics["decode_passes"],
            diagnostics["undecided_rows"]) == (len(fallback_rows), passes, len(undecided))
    want = np.zeros((m, r), dtype=np.int8)
    for a, columns in enumerate(candidates):
        want[a, sorted(columns)] = 1
    want[undecided] = fallback
    assert np.array_equal(W_hat.dense(), want)
    if flip == 0:
        assert undecided == [] and np.array_equal(W_hat.support, W.support)


@pytest.mark.parametrize("m, r, k, n0, seed", [
    (13302, 16, 3, 64, 105), (600, 6, 2, 12, 2), (300, 8, 2, 20, 2),
    (1500, 16, 3, 48, 1), (20000, 40, 5, 56, 9)])
def test_iterated_decode_leaves_no_row_to_least_squares(m, r, k, n0, seed, monkeypatch):
    # The instances of the least-squares reference test: on an exact M the
    # passes decode every row the anchor pass left, so the least squares
    # gets none.
    W = gen_selection_matrix(m, r, k, seed=seed)
    anchors = sorted(np.random.default_rng(seed).choice(m, size=n0, replace=False).tolist())
    calls = []

    def spy(M_, table, rows_a, rows_b):
        calls.append(list(rows_a))
        return union_block(M_, table, rows_a, rows_b)

    monkeypatch.setattr("ssbmf.jennrich.union_block", spy)
    diagnostics = {}
    W_hat = extend_from_anchors(W.dense()[anchors], anchors, gram(W), k, diagnostics)
    assert np.array_equal(W_hat.support, W.support)
    assert diagnostics["fallback_rows"] > 0
    assert diagnostics["undecided_rows"] == 0 and diagnostics["decode_passes"] >= 2
    assert calls == [[]]


def test_a_row_below_k_candidates_goes_to_least_squares(monkeypatch):
    # M says that a row b, decoded by the anchor pass, misses a row a the
    # anchor pass left undecided, though the two share a column j.  The next
    # pass drops j from a, which leaves a with fewer than k candidates: a is
    # not decoded but solved by least squares from its anchor unions, which
    # M still holds exactly, so it comes out as W's row.
    m, r, k, n0, seed = 3000, 6, 2, 16, 0
    W = gen_selection_matrix(m, r, k, seed=seed)
    anchors = sorted(np.random.default_rng(seed).choice(m, size=n0, replace=False).tolist())
    block, dense = W.dense()[anchors], gram(W).dense()
    *_, fallback_rows = _iterated_decode_reference(dense.tolist(), anchors, block, k)
    a = fallback_rows[0]
    b = next(b for b in range(m) if b not in anchors and b not in fallback_rows
             and W.support[a][0] in W.support[b])
    dense[a, b] = dense[b, a] = 0
    candidates, undecided, _, _ = _iterated_decode_reference(dense.tolist(), anchors, block, k)
    assert undecided == [a] and len(candidates[a]) < k
    calls = []

    def spy(M_, table, rows_a, rows_b):
        calls.append(list(rows_a))
        return union_block(M_, table, rows_a, rows_b)

    monkeypatch.setattr("ssbmf.jennrich.union_block", spy)
    diagnostics = {}
    W_hat = extend_from_anchors(block, anchors, _packed_gram(dense), k, diagnostics)
    assert calls == [[a]] and diagnostics["undecided_rows"] == 1
    assert np.array_equal(W_hat.support, W.support)


def test_extend_names_a_row_that_fails_the_re_check(monkeypatch):
    # M says the lowest non-anchor row a misses an anchor b that shares a
    # column with it, so that column is never a candidate of a and a alone
    # stays undecided.  Exact unions for it, but one count off by one: its
    # rounded row is still k-sparse, and the re-check, which compares it
    # with the counts it was solved from, names it.
    m, r, k, n0, seed = 300, 8, 2, 20, 2
    W = gen_selection_matrix(m, r, k, seed=seed)
    anchors = sorted(np.random.default_rng(seed).choice(m, size=n0, replace=False).tolist())
    dense = W.dense().astype(np.int64)
    a = min(set(range(m)) - set(anchors))
    b = next(b for b in anchors if dense[a] @ dense[b])
    gram_dense = gram(W).dense()
    gram_dense[a, b] = gram_dense[b, a] = 0
    calls = []

    def union_block(M_, table, rows_a, rows_b):
        calls.append(list(rows_a))
        counts = dense[rows_a] @ dense[list(rows_b)].T
        counts[0, 0] += 1
        return 2 * k - counts

    monkeypatch.setattr("ssbmf.jennrich.union_block", union_block)
    with pytest.raises(ExtensionError) as exc:
        extend_from_anchors(dense[anchors], anchors, _packed_gram(gram_dense), k)
    assert len(calls) == 1 and calls[0]
    assert str(exc.value) == f"row {calls[0][0]} fails the intersection re-check"


@pytest.mark.parametrize("n_anchors", [23, 25])
def test_extend_rejects_an_anchor_count_other_than_the_block_rows(n_anchors):
    # Unchecked, the mismatch reaches a boolean index of numpy as an IndexError.
    W = gen_selection_matrix(3000, 8, 2, seed=1)
    with pytest.raises(ParameterError,
                       match=f"^got {n_anchors} anchor indices for 24 block rows$"):
        extend_from_anchors(W.dense()[:24], range(n_anchors), gram(W), 2)


def test_extend_rejects_a_block_that_is_not_2d():
    M = gram(gen_selection_matrix(20, 8, 2, seed=0))
    for block in (np.ones(8), np.ones((8, 8, 1))):
        with pytest.raises(ParameterError, match=r"^the anchor block must be 2-D, got shape \("):
            extend_from_anchors(block, range(8), M, 2)


def test_extend_rejects_rank_deficient_block():
    W = gen_selection_matrix(100, 6, 2, seed=1)
    M = gram(W)
    block = np.zeros((8, 6))
    block[:, 0] = 1
    block[:, 1] = 1
    with pytest.raises(RankDeficiencyError):
        extend_from_anchors(block, list(range(8)), M, 2)


def test_extend_rejects_non_sparse_anchor_row():
    W = gen_selection_matrix(100, 6, 2, seed=1)
    M = gram(W)
    block = W.dense()[:30].copy()
    block[0] = 1
    with pytest.raises(ExtensionError):
        extend_from_anchors(block, list(range(30)), M, 2)


def test_extend_needs_enough_anchors():
    M = gram(gen_selection_matrix(20, 6, 2, seed=1))
    with pytest.raises(ParameterError):
        extend_from_anchors(np.ones((3, 6)), [0, 1, 2], M, 2)


@pytest.mark.parametrize("anchors, error, message", [
    ([-300] + list(range(1, 24)), IndexError, r"anchor \(-300\) out of range for m=300"),
    (list(range(23)) + [300], IndexError, r"anchor \(300\) out of range for m=300"),
    ([0.5] + list(range(1, 24)), IndexError, r"anchor \(0\.5\): 0\.5 is not an integer index"),
    ([False] + list(range(1, 24)), IndexError,
     r"anchor \(False\): False is not an integer index"),
    ([], ParameterError, r"the anchor set is empty")])
def test_extend_rejects_bad_anchors_before_reading_m(anchors, error, message):
    # -300, 0.5 and False would each be read as row 0.  M has no rows here,
    # so a check that came after reading them would fail otherwise.
    block = gen_selection_matrix(24, 8, 2, seed=1).dense()
    with pytest.raises(error, match=rf"^{message}$"):
        extend_from_anchors(block, anchors, SimpleNamespace(m=300), 2)


def test_match_columns_permutation():
    W = gen_selection_matrix(30, 6, 2, seed=2)
    dense = W.dense()
    perm = [3, 1, 5, 0, 2, 4]
    rows = tuple(tuple(sorted(perm.index(j) for j in row)) for row in W.rows)
    W_perm = SelectionMatrix(m=30, r=6, k=2, rows=rows)
    permutation, unmatched = match_columns(W_perm, W)
    assert unmatched is None
    ref = W.dense()
    for i, j in enumerate(permutation):
        assert np.array_equal(W_perm.dense()[:, i], ref[:, j])


def test_match_columns_reports_unmatched():
    W1 = SelectionMatrix(m=2, r=4, k=2, rows=((0, 1), (2, 3)))
    W2 = SelectionMatrix(m=2, r=4, k=2, rows=((0, 1), (1, 2)))
    permutation, unmatched = match_columns(W1, W2)
    assert permutation is None
    assert unmatched is not None and len(unmatched[0]) == len(unmatched[1])


def test_tensor_recover_end_to_end_small():
    W = gen_selection_matrix(3905, 8, 2, seed=3)
    M = gram(W)
    res = tensor_recover(M, 8, 2, RecoverConfig(anchors=40, seed=3))
    assert res.success and res.residual == 0
    perm, unmatched = match_columns(res.W_hat, W)
    assert unmatched is None


@pytest.mark.parametrize("m, r, k, n0, seed", [
    (3000, 16, 3, 32, 8), (3000, 16, 3, 32, 10), (3000, 16, 3, 32, 13), (12000, 40, 5, 80, 0)])
def test_pair_bound_recovers_below_the_sample_size(m, r, k, n0, seed):
    # Counting every distinct anchor triple failed on each of these: a
    # misread count at a triple whose pairs do not all meet gave a rounding,
    # degeneracy or inconsistency failure.  The pair bound sets it to 0.
    W = gen_selection_matrix(m, r, k, seed=seed)
    res = tensor_recover(gram(W), r, k, RecoverConfig(anchors=n0, seed=seed))
    assert res.success and res.residual == 0
    assert match_columns(res.W_hat, W)[1] is None


def test_tensor_recover_failure_flag_on_garbage():
    # all-ones Gram matrix is inconsistent with any k-sparse factorization
    m = 64
    M = GramMatrix.from_json({"m": m, "hex_rows": [format((1 << m) - 1, "x")] * m})
    res = tensor_recover(M, 8, 2, RecoverConfig(anchors=m))
    assert not res.success
    assert res.W_hat is None
    assert res.failure
    # The failing stage is timed; the stages after it never ran.
    assert list(res.diagnostics["stages"]) == ["bootstrap"]


def test_tensor_recover_parameter_errors_raise():
    M = gram(gen_selection_matrix(20, 6, 2, seed=0))
    with pytest.raises(ParameterError):
        tensor_recover(M, 6, 9)
    for anchors in (0, M.m + 1):
        with pytest.raises(ParameterError):
            tensor_recover(M, 6, 2, RecoverConfig(anchors=anchors))


def test_tensor_recover_names_m_and_r_when_m_is_below_r():
    # With the default anchor count, too few rows is a fault of m, not of an
    # anchor count the caller never gave; an explicit count keeps its message.
    M = gram(gen_selection_matrix(10, 16, 3, seed=0))
    with pytest.raises(ParameterError,
                       match=r"^m=10 rows are fewer than r=16; recovery needs at least r rows$"):
        tensor_recover(M, 16, 3)
    with pytest.raises(ParameterError,
                       match=r"^anchor count 12 is not an integer in \[r=16, m=10\]$"):
        tensor_recover(M, 16, 3, RecoverConfig(anchors=12))


def test_tensor_recover_rejects_non_integer_anchor_counts():
    M = gram(gen_selection_matrix(200, 6, 2, seed=0))
    for anchors in (30.0, np.float64(30)):
        with pytest.raises(ParameterError, match="not an integer"):
            tensor_recover(M, 6, 2, RecoverConfig(anchors=anchors))
    # True compares equal to 1, so it is in range when r = 1.
    with pytest.raises(ParameterError, match=r"^anchor count True is not an integer in \[r=1, m=20\]$"):
        tensor_recover(gram(gen_selection_matrix(20, 1, 1, seed=0)), 1, 1, RecoverConfig(anchors=True))
    res = tensor_recover(M, 6, 2, RecoverConfig(anchors=np.int64(30)))
    assert res.report(include_timing=False) == tensor_recover(
        M, 6, 2, RecoverConfig(anchors=30)).report(include_timing=False)


def test_recovered_report_shape():
    W = gen_selection_matrix(3905, 8, 2, seed=5)
    M = gram(W)
    res = tensor_recover(M, 8, 2, RecoverConfig(anchors=40, seed=5))
    report = res.report(include_timing=False)
    assert report["success"] is True
    assert report["residual"] == 0
    assert "seconds" not in report and "stages" not in report
    assert "fallback_rows" not in report
    timed = res.report()
    assert "seconds" in timed
    assert timed["fallback_rows"] == res.diagnostics["fallback_rows"] >= 0
    assert "eigen_gap" not in report
    assert timed["eigen_gap"] == res.diagnostics["eigen_gap"] > 0
    assert list(timed["stages"]) == ["bootstrap", "decompose", "round", "extend", "verify"]
    assert all(s >= 0 for s in timed["stages"].values())
    assert sum(timed["stages"].values()) <= timed["seconds"]


def test_benchmark_trace_names_resolve(monkeypatch):
    # The benchmark's tracer wraps these names from outside and reads the
    # arguments anchor_indices and M by name; a rename would drop its metrics.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing_contract", path)
    bench_tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_tracing)  # for its dataclasses
    spec.loader.exec_module(bench_tracing)
    assert bench_tracing.Tracer().missing == []
    assert "anchor_indices" in inspect.signature(extend_from_anchors).parameters
    assert "M" in inspect.signature(union_block).parameters
