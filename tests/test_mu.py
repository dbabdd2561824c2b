import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ssbmf import (ParameterError, gen_selection_matrix, gram, mu_table,
                   required_sample_size)
from ssbmf.instance import SelectionMatrix
from ssbmf.mu import (count_thresholds, invert_counts, invert_fraction, union_block,
                      zero_counts)


def all_subsets_matrix(r, k):
    """Population-exact instance: one row per k-subset of [r]."""
    rows = tuple(combinations(range(r), k))
    return SelectionMatrix(m=len(rows), r=r, k=k, rows=rows)


def test_mu_values_r10_k2():
    table = mu_table(10, 2)
    expected = [Fraction(1), Fraction(4, 5), Fraction(28, 45), Fraction(7, 15),
                Fraction(1, 3), Fraction(2, 9), Fraction(2, 15)]
    assert list(table.values) == expected
    assert table.t_max == 6


def test_mu_monotone_strict():
    for r, k in [(10, 2), (30, 3), (64, 4), (7, 7)]:
        table = mu_table(r, k, t_max=min(3 * k, r - k))
        for t in range(table.t_max):
            assert table.values[t] > table.values[t + 1] or (
                table.values[t] == table.values[t + 1] == 0)


def test_mu_endpoints():
    table = mu_table(12, 3, t_max=10)
    assert table.values[0] == 1
    assert table.values[10] == Fraction(math.comb(2, 3), math.comb(12, 3)) == 0


def test_mu_lower_bound_identity():
    # mu_t >= 1 - t*k/(r - k + 1)
    for r, k in [(40, 3), (64, 4), (256, 2)]:
        table = mu_table(r, k)
        for t, mu in enumerate(table.values):
            assert mu >= 1 - Fraction(t * k, r - k + 1)


def test_gap_lower_bound_valid():
    # explicit bound formula never exceeds the true consecutive gap
    for k in (2, 3, 4):
        r = 64 * k * k
        table = mu_table(r, k)
        for t in range(min(3 * k, table.t_max)):
            gap = table.values[t] - table.values[t + 1]
            assert gap >= table.gap_lower_bound(t)


def test_invert_fraction_examples():
    table = mu_table(10, 2)
    assert invert_fraction(Fraction(63, 100), table) == 2
    assert invert_fraction(Fraction(45, 100), table) == 3
    assert invert_fraction(1, table) == 0


def test_invert_fraction_tie_prefers_smaller():
    table = mu_table(10, 2)
    mid = (table.values[1] + table.values[2]) / 2
    assert invert_fraction(mid, table) == 1


def test_invert_exact_values_roundtrip():
    table = mu_table(20, 3)
    for t, mu in enumerate(table.values):
        assert invert_fraction(mu, table) == t


def test_invert_counts_matches_scalar():
    for r, k, m in [(14, 2, 500),
                    (10, 2, 45),      # count 32 sits exactly on the mu_1/mu_2 midpoint
                    (16, 3, 13302),
                    (50, 9, 13302)]:  # C(50, 9) > 10^9
        table = mu_table(r, k)
        mids = [m * (table.values[t] + table.values[t + 1]) / 2 for t in range(table.t_max)]
        near = [c for mid in mids for c in range(math.floor(mid) - 1, math.ceil(mid) + 2)]
        counts = np.union1d(np.arange(0, m + 1, 7), np.clip(near, 0, m))
        vec = invert_counts(counts, count_thresholds(m, table))
        for c, t in zip(counts, vec):
            assert t == invert_fraction(Fraction(int(c), m), table)


def test_zero_cooccurrence_against_sets():
    W = gen_selection_matrix(12, 8, 2, seed=3)
    M = gram(W)
    dense = M.dense()
    for rows in [(0,), (1, 4), (0, 3, 7)]:
        want = sum(1 for j in range(12) if all(dense[a, j] == 0 for a in rows))
        a, b, *extra = rows if len(rows) > 1 else rows * 2  # extra: the third row
        assert zero_counts(M.bits, M.m, [a], [b], *extra)[0, 0] == want


def test_zero_cooccurrence_bad_row():
    M = gram(gen_selection_matrix(5, 4, 2, seed=0))
    with pytest.raises(IndexError):
        zero_counts(M.bits, M.m, [7], [7])


def test_pairwise_union_population_exact():
    # with all C(r,k) subsets present once, empirical zero-fractions hit the
    # mu values exactly, so inversion returns the true union sizes
    r, k = 7, 2
    W = all_subsets_matrix(r, k)
    M = gram(W)
    table = mu_table(r, k, t_max=r - k)
    unions = union_block(M, table, range(W.m))
    np.fill_diagonal(unions, k)
    for a in range(W.m):
        for b in range(W.m):
            want = len(set(W.rows[a]) | set(W.rows[b])) if a != b else k
            assert unions[a, b] == want


def test_union_block_matches_pairwise():
    r, k = 6, 2
    W = all_subsets_matrix(r, k)
    M = gram(W)
    table = mu_table(r, k, t_max=r - k)
    full = union_block(M, table, range(W.m))
    np.fill_diagonal(full, k)
    rows_a = [0, 3, 8]
    block = union_block(M, table, rows_a, range(W.m))
    for i, a in enumerate(rows_a):
        for b in range(W.m):
            if a != b:
                assert block[i, b] == full[a, b]


def test_pairwise_union_monte_carlo():
    # large random sample: inversion recovers the true union sizes w.h.p.
    W = gen_selection_matrix(4000, 10, 2, seed=5)
    M = gram(W)
    table = mu_table(10, 2, t_max=4)
    sub = [0, 1, 2, 3, 4, 5, 6, 7]
    block = union_block(M, table, sub, sub)
    for i, a in enumerate(sub):
        for j, b in enumerate(sub):
            if a != b:
                assert block[i, j] == len(set(W.rows[a]) | set(W.rows[b]))


def test_required_sample_size_examples():
    assert required_sample_size(20, 2, 6, 0.1, c0=8.0) == 106661
    m = required_sample_size(12, 2, 6, 0.1)
    # self-consistency: m satisfies the bound, m-1 does not
    coef = 6 * 6 * 12 / 2
    assert m >= coef * math.log(m ** 3 / 0.1)
    assert m - 1 < coef * math.log((m - 1) ** 3 / 0.1)


def test_required_sample_size_monotone_in_t():
    sizes = [required_sample_size(16, 3, t, 0.1) for t in (1, 3, 6, 9)]
    assert sizes == sorted(sizes)


def test_required_sample_size_bad_delta():
    with pytest.raises(ParameterError):
        required_sample_size(16, 3, 6, 0.0)
    with pytest.raises(ParameterError):
        required_sample_size(16, 3, 0, 0.1)
    for r, k in [(4, 0), (0, 1), (-2, 1), (3, 5)]:
        with pytest.raises(ParameterError, match=f"need 1 <= k <= r, got r={r} k={k}"):
            required_sample_size(r, k, 1, 0.1)


def test_mu_table_json():
    obj = mu_table(10, 2).to_json()
    assert obj["values"][0] == "1/1"
    assert obj["values"][1] == "4/5"
