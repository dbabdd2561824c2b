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
from ssbmf.instance import SelectionMatrix


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
    for sigma in ((0, 1, 2, 6), (0, 1, 2, -1), (0, 1, 2)):
        with pytest.raises(ParameterError):
            evaluate(inst, sigma)


def test_identity_exhaustive_small():
    # off-diagonal L0 = 2 (|E| - value) for every assignment
    W, inst = planted_instance()
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


def test_reduce_rejects_bad_entries():
    with pytest.raises(ParameterError):
        reduce_asymmetric(np.array([[3, 0], [0, 3]]), 4, 2)
    with pytest.raises(ParameterError):
        reduce_asymmetric(np.zeros((2, 3)), 4, 2)
