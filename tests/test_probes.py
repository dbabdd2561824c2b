import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbmf import ParameterError, gen_selection_matrix, probes
from ssbmf.instance import SelectionMatrix, split_seed
from ssbmf.probes import (anticoncentration_estimate, enumerate_zero_probability,
                          f2_zero_probability, fibre_stats, krawtchouk,
                          krawtchouk_bound_check, rank_exact, rank_f2,
                          rank_modp, rank_report, singularity_experiment,
                          wilson_interval)


def test_krawtchouk_examples():
    assert krawtchouk(4, 2, 2) == -2
    assert krawtchouk(5, 3, 5) == -10
    assert krawtchouk(6, 0, 3) == 1
    # lam = 0: plain binomial coefficient
    assert krawtchouk(10, 4, 0) == math.comb(10, 4)


def test_krawtchouk_orthogonality_row_sum():
    # sum over lam of C(r, lam) K_k(lam) = 2^r [k = 0]
    for r in (5, 8):
        for k in range(r + 1):
            total = sum(math.comb(r, lam) * krawtchouk(r, k, lam)
                        for lam in range(r + 1))
            assert total == (2 ** r if k == 0 else 0)


def test_krawtchouk_reciprocity():
    # C(r, lam) K_k(lam) = C(r, k) K_lam(k)
    for r in (6, 9):
        for k in range(r + 1):
            for lam in range(r + 1):
                assert (math.comb(r, lam) * krawtchouk(r, k, lam)
                        == math.comb(r, k) * krawtchouk(r, lam, k))


def test_f2_zero_probability_example():
    assert f2_zero_probability(4, 2, 2) == Fraction(1, 3)
    assert f2_zero_probability(6, 3, 0) == 1


def test_f2_zero_probability_identity():
    # equals 1/2 + K_k(lam) / (2 C(r,k)) for lam >= 1
    for r in (5, 9):
        for k in range(1, r + 1):
            for lam in range(1, r + 1):
                got = f2_zero_probability(r, k, lam)
                want = Fraction(1, 2) + Fraction(krawtchouk(r, k, lam),
                                                 2 * math.comb(r, k))
                assert got == want


def test_f2_zero_probability_matches_enumeration_sample():
    for r, k, lam in [(6, 2, 3), (7, 4, 5), (8, 3, 8), (5, 5, 2)]:
        assert f2_zero_probability(r, k, lam) == enumerate_zero_probability(r, k, lam)


def test_rank_f2_examples():
    W = SelectionMatrix(m=3, r=3, k=1, rows=((0,), (1,), (2,)))
    assert rank_f2(W) == 3
    # even k: all row masks lie in the even-weight subspace, rank <= r-1
    W = gen_selection_matrix(50, 10, 2, seed=1)
    assert rank_f2(W) <= 9


def _rank_mod2(W):
    """Rank of W's dense 0/1 matrix by Gauss-Jordan elimination mod 2,
    written independently of the bit masks."""
    A = W.dense().astype(int).tolist()
    rank = 0
    for col in range(W.r):
        piv = next((i for i in range(rank, W.m) if A[i][col] % 2), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(W.m):
            if i != rank and A[i][col] % 2:
                A[i] = [(a - b) % 2 for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def test_rank_f2_matches_reference_elimination():
    W = gen_selection_matrix(20, 8, 3, seed=2)
    assert rank_f2(W) == _rank_mod2(W)


@pytest.mark.parametrize("W", [
    gen_selection_matrix(100, 80, 3, seed=2),    # masks wider than 63 bits
    gen_selection_matrix(300, 130, 5, seed=3),
    gen_selection_matrix(10, 40, 3, seed=4),     # m < r
    gen_selection_matrix(90, 70, 1, seed=5),     # m > r, k = 1: rank = distinct columns hit
    gen_selection_matrix(60, 20, 4, seed=6),     # even k: rank <= r - 1
    gen_selection_matrix(200, 66, 2, seed=7),
    gen_selection_matrix(120, 64, 3, seed=8),    # bit 63, the sign bit of an int64
    gen_selection_matrix(120, 65, 3, seed=9),    # bit 64, past any 64-bit word
    SelectionMatrix(m=6, r=80, k=3, rows=[(1, 5, 77)] * 3 + [(0, 2, 64)] * 3),  # duplicates
    # dependent: rows 0-2 sum to zero mod 2, and row 4 repeats row 3
    SelectionMatrix(m=5, r=80, k=4, rows=[(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5),
                                          (10, 11, 70, 79), (10, 11, 70, 79)]),
], ids=["r80", "r130", "m-lt-r", "k1", "even-k", "r66-k2", "r64", "r65", "duplicates",
        "dependent"])
def test_rank_f2_matches_the_dense_reference_and_the_mod2_rank(W):
    assert rank_f2(W) == _rank_mod2(W)
    assert rank_report(W, primes=[2]).rank_modq[2] == rank_f2(W)


@pytest.mark.parametrize("r", [8, 63, 64, 65, 80])
def test_rank_f2_equals_the_rank_mod_2_on_both_sides_of_a_64_bit_mask(r):
    # Up to r = 64 the row masks are uint64 words, beyond it Python ints.
    full = gen_selection_matrix(2 * r, r, 3, seed=r)
    # Rank-deficient: column 0 is held by no row, every row is duplicated,
    # and the last row holds the top bit r - 1.
    half = gen_selection_matrix(r // 2, r - 1, 3, seed=r).support + 1
    deficient = SelectionMatrix(m=2 * (r // 2) + 1, r=r, k=3,
                                rows=np.vstack([half, half, [[1, 2, r - 1]]]))
    for W in (full, deficient):
        assert rank_f2(W) == rank_modp(W.dense(), 2)
    assert rank_f2(deficient) < r


def test_rank_modp_and_exact_agree_with_numpy():
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(10):
        A = rng.integers(-4, 5, size=(7, 5))
        want = np.linalg.matrix_rank(A.astype(float))
        assert rank_exact(A) == want
        # a random 31-bit prime almost surely preserves the rank
        assert rank_modp(A, 2147483647) == want


def test_rank_modp_detects_modular_collapse():
    A = np.array([[3, 0], [0, 1]])
    assert rank_modp(A, 3) == 1
    assert rank_exact(A) == 2


def test_rank_report_full_rank_case():
    W = gen_selection_matrix(160, 40, 3, seed=4)
    report = rank_report(W, primes=(3, 5))
    assert report.rank_real == 40
    assert set(report.rank_modq) == {3, 5}
    assert report.rank_f2 <= 40


def test_rank_report_certifies_deficiency():
    rows = tuple((0, 1) for _ in range(5))
    W = SelectionMatrix(m=5, r=4, k=2, rows=rows)
    report = rank_report(W)
    assert report.rank_real == 1
    assert any("fraction-free" in note for note in report.notes)


@pytest.mark.parametrize("full", [True, False])
def test_rank_report_takes_one_modular_rank_then_certifies_deficiency(full, monkeypatch):
    # Without a full rank over F2 (even k forces rank_f2 <= r - 1), a full rank
    # mod one prime certifies full rank over the rationals; a deficient one
    # goes to fraction-free elimination (r <= 200).
    if full:
        W = gen_selection_matrix(160, 40, 4, seed=4)
        assert rank_f2(W) < 40
    else:
        W = SelectionMatrix(m=5, r=4, k=2, rows=[(0, 1)] * 5)
    seen = []
    monkeypatch.setattr(probes, "rank_modp", lambda A, p: seen.append(p) or rank_modp(A, p))
    report = rank_report(W)
    assert report.rank_real == (40 if full else 1)
    assert seen == [probes.RANK_PRIME]
    assert report.notes[0] == f"modular prime: {probes.RANK_PRIME}"
    assert any("fraction-free" in note for note in report.notes) == (not full)
    assert report.rank_real == rank_exact(W.dense())


@pytest.mark.parametrize("k, primes, seen_want", [(3, (), []), (4, (3,), [3])],
                         ids=["f2", "requested-prime"])
def test_rank_report_certifies_a_full_rank_from_a_prime_field(k, primes, seen_want,
                                                              monkeypatch):
    # A full rank over any prime field is a full rational rank: no further
    # elimination, and no dense matrix unless a requested prime reads it.
    W = gen_selection_matrix(160, 40, k, seed=4)
    seen = []
    monkeypatch.setattr(probes, "rank_modp", lambda A, p: seen.append(p) or rank_modp(A, p))
    if not primes:
        monkeypatch.setattr(SelectionMatrix, "dense", lambda self: pytest.fail("dense built"))
    report = rank_report(W, primes=primes)
    assert seen == seen_want
    assert report.notes == ["certified by a full rank over a prime field"]
    assert report.rank_real == 40
    monkeypatch.undo()
    assert report.rank_real == rank_exact(W.dense())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 10), st.data(), st.integers(0, 2 ** 32),
       st.booleans())
def test_rank_report_bounds_and_matches_the_exact_rank(m, r, data, seed, with_primes):
    # m < r, even and odd k, and the requested primes 2 and 3 all occur.
    k = data.draw(st.integers(1, r))
    W = gen_selection_matrix(m, r, k, seed=seed)
    report = rank_report(W, primes=[2, 3] if with_primes else [])
    assert report.rank_real == rank_exact(W.dense())
    assert report.rank_real >= report.rank_f2
    assert all(report.rank_real >= v for v in report.rank_modq.values())
    assert set(report.rank_modq) == ({2, 3} if with_primes else set())


@pytest.mark.parametrize("m, r, k, seed", [
    (160, 40, 3, 4), (160, 40, 4, 4), (30, 12, 2, 1), (30, 12, 5, 1), (12, 12, 3, 2),
    (5, 4, 2, None)])
def test_bitset_and_modular_f2_ranks_agree(m, r, k, seed):
    # Even and odd k; seed None is the deficient 5 x 4 case.
    if seed is None:
        W = SelectionMatrix(m=m, r=r, k=k, rows=[(0, 1)] * m)
    else:
        W = gen_selection_matrix(m, r, k, seed=seed)
    assert rank_report(W, primes=[2]).rank_modq[2] == rank_f2(W)


def test_wilson_interval_basic():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 0) == (0.0, 1.0)
    low, high = wilson_interval(100, 100)
    assert high > 1.0 - 1e-9 and low > 0.9


def test_singularity_experiment_shape():
    out = singularity_experiment(8, 4, 1, trials=50, seed=0)
    assert out["trials"] == 50
    assert 0.0 <= out["real"]["frequency"] <= 1.0
    assert out["real"]["ci_low"] <= out["real"]["frequency"] <= out["real"]["ci_high"]
    for trials in (0, 2.5, True):
        with pytest.raises(ParameterError):
            singularity_experiment(4, 4, 1, trials=trials)


def test_krawtchouk_bound_check_small():
    out = krawtchouk_bound_check(32, 5)
    assert out["ok"] and out["first_violation"] is None
    with pytest.raises(ParameterError):
        krawtchouk_bound_check(10, 4)  # k > 0.16 r
    for r, k in [(0, 0), (10, 0), (10, -1), (-5, -1)]:
        with pytest.raises(ParameterError, match="need 1 <= k <= 0.16 r"):
            krawtchouk_bound_check(r, k)


def test_fibre_stats_examples():
    assert fibre_stats([1, 1, 2, 0, 0, 0]) == (3, 3)
    assert fibre_stats([]) == (0, 0)
    assert fibre_stats([5]) == (1, 1)


def test_anticoncentration_exhaustive_comparison():
    # small case: exact max atom by enumeration vs the Monte-Carlo estimate
    import itertools
    r, k = 8, 2
    x = np.array([1, 1, 2, 3, 5, 8, 13, 21])
    counts = {}
    for sup in itertools.combinations(range(r), k):
        val = int(x[list(sup)].sum())
        counts[val] = counts.get(val, 0) + 1
    exact = max(counts.values()) / math.comb(r, k)
    out = anticoncentration_estimate(x, r, k, samples=20000, seed=1)
    assert abs(out["max_atom"] - exact) <= 0.02
    assert out["s"] == r - 2  # the two ones form the largest fibre


def test_anticoncentration_modular():
    x = np.arange(10)
    out = anticoncentration_estimate(x, 10, 3, q=2, samples=2000, seed=2)
    # parity of a sum is nearly balanced here
    assert 0.4 <= out["max_atom"] <= 0.7


def test_anticoncentration_validation():
    with pytest.raises(ParameterError):
        anticoncentration_estimate(np.zeros(3), 4, 2)
    for samples in (0, 2.5, True):
        with pytest.raises(ParameterError):
            anticoncentration_estimate(np.zeros(4), 4, 2, samples=samples)
    for k in (0, 5):  # k = 0 and k = r + 1
        with pytest.raises(ParameterError, match="1 <= k <= r"):
            anticoncentration_estimate(np.zeros(4), 4, k)


@pytest.mark.parametrize("q", [4, 6, 1, -5, 0, 3037000499, 3037000507])
def test_rank_report_rejects_moduli_that_are_not_primes_below_the_bound(q):
    # Z_q is a field only for prime q, and rank_modp's int64 products need
    # q < 2^31.5; 3037000507 is the first prime above that bound.
    W = gen_selection_matrix(20, 6, 2, seed=1)
    with pytest.raises(ParameterError, match="not a prime"):
        rank_report(W, primes=[3, q])


@pytest.mark.parametrize("primes", [3, np.int64(3), [[3]]], ids=["int", "int64", "nested"])
def test_rank_report_requires_a_one_dimensional_primes(primes):
    W = gen_selection_matrix(20, 6, 2, seed=1)
    with pytest.raises(ParameterError, match="^primes must be a 1-D sequence"):
        rank_report(W, primes=primes)
    # The empty default stays valid, as a tuple or a list.
    assert rank_report(W).rank_modq == rank_report(W, primes=[]).rank_modq == {}


def test_rank_report_accepts_the_largest_prime_below_the_bound():
    W = gen_selection_matrix(160, 40, 3, seed=4)
    report = rank_report(W, primes=[2, 3037000493])
    assert set(report.rank_modq) == {2, 3037000493}
    assert report.rank_modq[3037000493] == report.rank_real == 40


@pytest.mark.parametrize("q", [0, 1, -3, "1", "-3", "2.5", "abc", 2.5, True, "²"],
                         ids=["0", "1", "-3", "str-1", "str--3", "str-2.5", "str-abc",
                              "float-2.5", "bool", "str-superscript-2"])
def test_anticoncentration_rejects_moduli_below_two_and_non_integers(q):
    with pytest.raises(ParameterError, match="integer >= 2"):
        anticoncentration_estimate(np.arange(10), 10, 3, q=q, samples=50)


@pytest.mark.parametrize("q", [2, "2", 7, "7", np.int64(7)],
                         ids=["2", "str-2", "7", "str-7", "int64-7"])
def test_anticoncentration_accepts_integer_moduli_and_digit_strings(q):
    want = anticoncentration_estimate(np.arange(10), 10, 3, q=int(q), samples=500, seed=1)
    assert anticoncentration_estimate(np.arange(10), 10, 3, q=q, samples=500, seed=1) == want
