import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssbmf import ParameterError, csp, gen_selection_matrix, gram
from ssbmf.csp import (Assignment, assignment_to_factors, evaluate,
                       rank_subset, reduce_asymmetric, reduce_symmetric,
                       solve_exact, solve_local, unrank_subset)
from ssbmf.errors import BudgetExceededError
from ssbmf.instance import GramMatrix, SelectionMatrix, _rng, _row_chunks


def test_rank_examples():
    assert rank_subset((0, 1)) == 0
    assert rank_subset((2, 3)) == 5
    assert unrank_subset(5, 4, 2) == (2, 3)


def test_rank_unrank_bijection():
    for r, k in [(4, 2), (6, 3), (5, 1), (5, 5)]:
        seen = [unrank_subset(t, r, k) for t in range(math.comb(r, k))]
        # colex order: increasing when tuples are compared right-to-left
        assert seen == sorted(seen, key=lambda s: tuple(reversed(s)))
        assert len(set(seen)) == math.comb(r, k)
        for t, sub in enumerate(seen):
            assert rank_subset(sub) == t


@given(st.integers(min_value=2, max_value=10), st.data())
def test_rank_unrank_roundtrip_property(r, data):
    k = data.draw(st.integers(min_value=1, max_value=r))
    sub = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=r - 1),
                min_size=k, max_size=k))))
    assert unrank_subset(rank_subset(sub), r, k) == sub


def test_unrank_out_of_range():
    with pytest.raises(ParameterError):
        unrank_subset(6, 4, 2)


def planted_instance(mode="integer"):
    W = SelectionMatrix(m=4, r=4, k=2, rows=((0, 1), (1, 2), (2, 3), (0, 3)))
    M = gram(W, "integer")
    return W, reduce_symmetric(M, 4, 2, mode)


def test_reduce_symmetric_shape():
    W, inst = planted_instance()
    assert inst.m == inst.n_vertices == 4
    assert inst.n_edges == math.comb(inst.m, 2) == 6
    assert inst.alphabet_size == 6
    assert np.array_equal(inst.targets, inst.targets.T)


def test_reduce_symmetric_boolean_needs_no_counts():
    W = gen_selection_matrix(3, 4, 2, seed=0)
    inst = reduce_symmetric(gram(W), 4, 2, "boolean")
    assert inst.mode == "boolean"
    with pytest.raises(ParameterError):
        reduce_symmetric(gram(W), 4, 2, "integer")


def test_evaluate_true_assignment_is_perfect():
    W, inst = planted_instance()
    sigma = tuple(rank_subset(row) for row in W.rows)
    assert evaluate(inst, sigma) == inst.n_edges == 6


def test_evaluate_counts_violations():
    W, inst = planted_instance()
    sigma = list(rank_subset(row) for row in W.rows)
    sigma[0] = rank_subset((2, 3))  # breaks edges (0,1), (0,2), (0,3)
    value = evaluate(inst, tuple(sigma))
    assert value < 6
    W_sigma, residual = assignment_to_factors(
        inst, Assignment(sigma=tuple(sigma), value=value))
    assert residual == 2 * (inst.n_edges - value)


def test_evaluate_rejects_out_of_range_ranks():
    _, inst = planted_instance()
    for sigma in ((0, 1, 2, 6), (0, 1, 2, -1), (0, 1, 2), (0.0, 1.0, 2.0, 3.0),
                  (True, False, True, False)):
        with pytest.raises(ParameterError):
            evaluate(inst, sigma)


@pytest.mark.parametrize("mode", ["integer", "boolean"])
def test_identity_exhaustive_small(mode):
    # off-diagonal L0 = 2 (|E| - value) for every assignment
    W, inst = planted_instance(mode)
    q = inst.alphabet_size
    for sigma in itertools.product(range(q), repeat=4):
        value = evaluate(inst, sigma)
        _, residual = assignment_to_factors(
            inst, Assignment(sigma=sigma, value=value))
        assert residual == 2 * (inst.n_edges - value)


def test_solve_exact_attains_optimum():
    W, inst = planted_instance()
    best = solve_exact(inst)
    assert best.value == 6
    W_hat, residual = assignment_to_factors(inst, best)
    assert residual == 0


def _enumerate_one_by_one(inst):
    """Reference for solve_exact: score each assignment in itertools.product
    order and keep the first best."""
    best_sigma, best_value = None, -1
    for sigma in itertools.product(range(inst.alphabet_size), repeat=inst.n_vertices):
        value = evaluate(inst, sigma)
        if value > best_value:
            best_sigma, best_value = sigma, value
    return best_sigma, best_value


@pytest.mark.parametrize("make", [
    lambda: planted_instance("integer")[1], lambda: planted_instance("boolean")[1],
    lambda: reduce_symmetric(gram(gen_selection_matrix(4, 4, 2, seed=2)), 4, 2, "boolean"),
    lambda: reduce_symmetric(gram(gen_selection_matrix(1, 4, 2, seed=5), "integer"), 4, 2)])
@pytest.mark.parametrize("block", [1 << 18, 7])
def test_solve_exact_matches_one_by_one_enumeration(make, block, monkeypatch):
    # Every instance has several optimal assignments (column relabelings),
    # so the first maximum in product order is what is compared; a small
    # block puts the ties in different blocks.
    monkeypatch.setattr(csp, "_EXACT_BLOCK", block)
    inst = make()
    best = solve_exact(inst)
    assert (best.sigma, best.value) == _enumerate_one_by_one(inst)
    assert all(type(t) is int for t in best.sigma)


@pytest.mark.parametrize("targets, sigma, value", [
    ([[2, 1, 1], [1, 2, 0], [1, 0, 2]], (0, 1, 4, 0, 1, 4), 9),  # planted U U^T
    ([[2, 1, 0], [0, 2, 2], [1, 1, 1]], (0, 5, 1, 0, 2, 5), 8)])
def test_solve_exact_bipartite_first_optimum(targets, sigma, value):
    # 6^6 assignments each; the expected optimum is the one that one-by-one
    # enumeration in product order returns.
    best = solve_exact(reduce_asymmetric(np.array(targets), 4, 2))
    assert (best.sigma, best.value) == (sigma, value)


def test_solve_exact_budget():
    W, inst = planted_instance()
    with pytest.raises(BudgetExceededError):
        solve_exact(inst, budget=10)


def test_solve_local_reaches_exact_optimum():
    W, inst = planted_instance()
    loc = solve_local(inst, restarts=10, iters=50, seed=0)
    assert loc.value == 6


def test_solve_local_deterministic():
    W, inst = planted_instance()
    a = solve_local(inst, restarts=5, iters=20, seed=3)
    b = solve_local(inst, restarts=5, iters=20, seed=3)
    assert a.sigma == b.sigma and a.value == b.value


@pytest.mark.parametrize("restarts, iters", [(0, 10), (1, -1), (1.5, 10), (True, 10), (1, 2.5),
                                             (1, True)])
def test_solve_local_rejects_no_restarts_or_negative_iters(restarts, iters):
    _, inst = planted_instance()
    with pytest.raises(ParameterError, match=f"got {restarts} and {iters}$"):
        solve_local(inst, restarts=restarts, iters=iters)


def _satisfies(inst, letters, neighbours, targets):
    """Whether each letter row meets the target against each neighbour row."""
    inner = letters @ neighbours.T
    return (inner > 0) == (targets > 0) if inst.mode == "boolean" else inner == targets


def _solve_local_by_products(inst, restarts, iters, seed):
    """Reference for solve_local: the same restarts and moves, but each move
    scores every letter against the letters of all n vertices by a q x r by
    r x n product of 0/1 letter rows, masked by the vertex's constrained pairs."""
    q, n = inst.alphabet_size, inst.n_vertices
    ranks = [unrank_subset(t, inst.r, inst.k) for t in range(q)]
    alphabet = SelectionMatrix(m=q, r=inst.r, k=inst.k, rows=ranks).dense().astype(np.int64)
    targets = inst.targets
    adjacency = targets <= inst.k
    best_sigma, best_value = None, -1
    for restart in range(restarts):
        sigma = _rng(seed, restart).integers(0, q, size=n)
        letters = alphabet[sigma]
        value = int((_satisfies(inst, letters, letters, targets) & adjacency).sum()) // 2
        for _ in range(iters):
            improved = False
            for v in range(n):
                scores = (_satisfies(inst, alphabet, alphabet[sigma], targets[v])
                          & adjacency[v]).sum(axis=1)
                t = int(np.argmax(scores))
                if scores[t] > scores[sigma[v]]:
                    value += int(scores[t] - scores[sigma[v]])
                    sigma[v] = t
                    improved = True
            if not improved:
                break
        if value > best_value:
            best_sigma, best_value = tuple(sigma.tolist()), value
    return best_sigma, best_value


@pytest.mark.parametrize("make", [
    lambda seed: reduce_symmetric(gram(gen_selection_matrix(20, 8, 2, seed=seed)), 8, 2, "boolean"),
    lambda seed: reduce_symmetric(gram(gen_selection_matrix(20, 8, 2, seed=seed), "integer"), 8, 2),
    lambda seed: reduce_asymmetric(
        np.random.Generator(np.random.Philox(key=seed)).integers(0, 3, size=(6, 6)), 4, 2),
    # q = C(10, 3) = 120, so a move's key (target * q + rank) exceeds 255.
    lambda seed: reduce_symmetric(gram(gen_selection_matrix(20, 10, 3, seed=seed)), 10, 3,
                                  "boolean"),
    lambda seed: reduce_symmetric(gram(gen_selection_matrix(20, 10, 3, seed=seed), "integer"),
                                  10, 3),
], ids=["boolean", "integer", "bipartite", "boolean-q120", "integer-q120"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_local_matches_product_reference(make, seed):
    inst = make(seed)
    best = solve_local(inst, restarts=4, iters=20, seed=seed)
    assert (best.sigma, best.value) == _solve_local_by_products(inst, 4, 20, seed)
    assert best.value == evaluate(inst, best.sigma)


@pytest.mark.parametrize("m", [300, 650])
@pytest.mark.parametrize("mode", ["boolean", "integer"])
def test_chunked_residual_matches_dense_reference(mode, m):
    # The residual is counted over row chunks; at these m there are several.
    assert len(list(_row_chunks(m, m))) >= 2
    W = gen_selection_matrix(m, 8, 2, seed=m)
    M = gram(W, "integer")
    inst = reduce_symmetric(M, 8, 2, mode)
    wanted = M.counts if mode == "integer" else M.dense()
    rng = np.random.Generator(np.random.Philox(key=m))
    for _ in range(3):
        sigma = tuple(int(t) for t in rng.integers(0, inst.alphabet_size, size=m))
        letters = SelectionMatrix(m=m, r=8, k=2, rows=[unrank_subset(t, 8, 2) for t in sigma])
        dense = letters.dense().astype(np.int64)
        prod = dense @ dense.T
        diff = (prod > 0 if mode == "boolean" else prod) != wanted
        np.fill_diagonal(diff, False)
        value = evaluate(inst, sigma)
        _, residual = assignment_to_factors(inst, Assignment(sigma=sigma, value=value))
        assert residual == int(diff.sum()) == 2 * (inst.n_edges - value)
        assert residual > 0


def test_boolean_mode_identity():
    W = gen_selection_matrix(4, 4, 2, seed=2)
    inst = reduce_symmetric(gram(W), 4, 2, "boolean")
    sigma = tuple(rank_subset(row) for row in W.rows)
    value = evaluate(inst, sigma)
    assert value == inst.n_edges
    _, residual = assignment_to_factors(inst, Assignment(sigma=sigma, value=value))
    assert residual == 0


def test_asymmetric_reduction_identity():
    # planted U V with V = U^T gives a satisfiable bipartite instance
    W = SelectionMatrix(m=3, r=4, k=2, rows=((0, 1), (1, 2), (0, 3)))
    dense = W.dense().astype(np.int64)
    product = dense @ dense.T
    inst = reduce_asymmetric(product, 4, 2)
    assert inst.bipartite and inst.n_vertices == 6 and inst.n_edges == 9
    sigma = tuple(rank_subset(row) for row in W.rows) * 2
    value = evaluate(inst, sigma)
    assert value == 9
    (U, V), residual = assignment_to_factors(inst, Assignment(sigma=sigma,
                                                              value=value))
    assert residual == 9 - value == 0
    assert np.array_equal(U @ V, product)


def test_asymmetric_residual_identity_random():
    W = SelectionMatrix(m=3, r=4, k=2, rows=((0, 1), (1, 2), (0, 3)))
    dense = W.dense().astype(np.int64)
    inst = reduce_asymmetric(dense @ dense.T, 4, 2)
    rng = np.random.Generator(np.random.Philox(key=4))
    for _ in range(50):
        sigma = tuple(int(x) for x in rng.integers(0, inst.alphabet_size, size=6))
        value = evaluate(inst, sigma)
        _, residual = assignment_to_factors(inst, Assignment(sigma=sigma,
                                                             value=value))
        assert residual == inst.n_edges - value


@pytest.mark.parametrize("r, k", [(4, 9), (0, 0), (-3, 2)])
def test_reductions_reject_k_outside_1_to_r(r, k):
    # The error names the given shape, not the alphabet size C(r, k).
    M = gram(SelectionMatrix(m=4, r=4, k=2, rows=((0, 1), (1, 2), (2, 3), (0, 3))))
    for reduce in (lambda: reduce_symmetric(M, r, k, "boolean"),
                   lambda: reduce_asymmetric(np.zeros((2, 2), dtype=int), r, k)):
        with pytest.raises(ParameterError, match=f"got r={r} k={k}$"):
            reduce()


@pytest.mark.parametrize("mode", ["boolean", "integer"])
def test_reduce_symmetric_checks_the_shape_before_reading_M(mode):
    # A bad (r, k) is rejected before the m x m targets are built from M.
    class Unread:
        def __getattr__(self, name):
            raise AssertionError(f"read M.{name}")

    with pytest.raises(ParameterError, match="got r=2 k=3$"):
        reduce_symmetric(Unread(), 2, 3, mode)


def test_reduce_rejects_bad_entries():
    with pytest.raises(ParameterError):
        reduce_asymmetric(np.array([[3, 0], [0, 3]]), 4, 2)
    with pytest.raises(ParameterError):
        reduce_asymmetric(np.zeros((2, 3)), 4, 2)
    for empty in (np.zeros((0, 0), dtype=int), []):
        with pytest.raises(ParameterError, match="non-empty square"):
            reduce_asymmetric(empty, 4, 2)
    # Entries that are not of an integer dtype are rejected, not truncated.
    for entries in ([[0.6, 1.9], [1.2, 0]], [[0.0, 1.0], [1.0, 0.0]],
                    [[True, False], [False, True]]):
        with pytest.raises(ParameterError, match="^entries of M "):
            reduce_asymmetric(np.array(entries), 4, 2)
    # Counts that are not integers are rejected when the Gram matrix is built.
    M = gram(gen_selection_matrix(4, 4, 2, seed=2), "integer")
    for counts in (M.counts + 0.4, M.counts.astype(float), M.counts > 0):
        with pytest.raises(ParameterError, match="^counts "):
            GramMatrix(m=M.m, bits=M.bits, counts=counts)
