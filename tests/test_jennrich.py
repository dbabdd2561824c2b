import importlib.util
import inspect
import sys
from pathlib import Path

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
    table = mu_table(10, 2)
    anchors = list(range(40))
    block = W.dense()[anchors]
    W_hat = extend_from_anchors(block, anchors, M, table, 2)
    assert W_hat.rows == W.rows


def test_extend_from_anchors_readme_instance():
    # m = required_sample_size(16, 3, 9, 0.1): the README instance
    W = gen_selection_matrix(13302, 16, 3, seed=0)
    rng = np.random.Generator(np.random.Philox(key=64))
    anchors = sorted(rng.choice(W.m, size=64, replace=False).tolist())
    W_hat = extend_from_anchors(W.dense()[anchors], anchors, gram(W), mu_table(16, 3), 3)
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
        extend_from_anchors(W.dense()[:30], range(30), GramMatrix(m=400, bits=bits),
                            mu_table(6, 2), 2)


@pytest.mark.parametrize("copy, named", [(300, 200), (100, 100)])
def test_extend_names_the_lowest_of_equal_failing_rows(copy, named):
    # Row 200 and its copy have equal Gram rows and so one row class; the
    # error names the lower of the two, as a row-by-row scan would.
    W = gen_selection_matrix(400, 6, 2, seed=1)
    bits = _meeting_every_row(gram(W).bits, [200, copy])
    assert np.array_equal(bits[200], bits[copy])
    with pytest.raises(ExtensionError, match=f"row {named} rounded to sparsity 0"):
        extend_from_anchors(W.dense()[:30], range(30), GramMatrix(m=400, bits=bits),
                            mu_table(6, 2), 2)


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


def _extend_outcome(anchor_block, anchors, M, table, k):
    try:
        return extend_from_anchors(anchor_block, anchors, M, table, k).support.tolist()
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
    got = _extend_outcome(block, anchors, M, table, k)
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
    W_hat = extend_from_anchors(block, anchors, M, table, k, diagnostics)
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
    M = GramMatrix(m=m, bits=words.view("<u8"))
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
    W_hat = extend_from_anchors(block, anchors, M, mu_table(r, k), k, diagnostics)
    assert calls == [undecided.tolist()]
    assert diagnostics["fallback_rows"] == len(undecided)
    candidates[undecided] = fallback
    assert np.array_equal(W_hat.dense(), candidates)


def test_extend_rejects_rank_deficient_block():
    table = mu_table(6, 2)
    W = gen_selection_matrix(100, 6, 2, seed=1)
    M = gram(W)
    block = np.zeros((8, 6))
    block[:, 0] = 1
    block[:, 1] = 1
    with pytest.raises(RankDeficiencyError):
        extend_from_anchors(block, list(range(8)), M, table, 2)


def test_extend_rejects_non_sparse_anchor_row():
    W = gen_selection_matrix(100, 6, 2, seed=1)
    M = gram(W)
    block = W.dense()[:30].copy()
    block[0] = 1
    with pytest.raises(ExtensionError):
        extend_from_anchors(block, list(range(30)), M, mu_table(6, 2), 2)


def test_extend_needs_enough_anchors():
    table = mu_table(6, 2)
    M = gram(gen_selection_matrix(20, 6, 2, seed=1))
    with pytest.raises(ParameterError):
        extend_from_anchors(np.ones((3, 6)), [0, 1, 2], M, table, 2)


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
