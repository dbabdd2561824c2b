import hashlib
import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssbmf import (ParameterError, RecoverConfig, SelectionMatrix, factorization_error,
                   gen_selection_matrix, gram, mu_table, required_sample_size, split_seed,
                   tensor_recover)
from ssbmf.csp import reduce_asymmetric, reduce_symmetric
from ssbmf.probes import anticoncentration_estimate, f2_zero_probability
from ssbmf.cli import main
from ssbmf.instance import GramMatrix, _gram_rows, _uses_table
from ssbmf.mu import invert_fraction, union_block, zero_counts


def brute_gram(rows, boolean=True):
    """Independent oracle: direct set intersections."""
    m = len(rows)
    out = np.zeros((m, m), dtype=int)
    for a in range(m):
        for b in range(m):
            inter = len(set(rows[a]) & set(rows[b]))
            out[a, b] = (1 if inter > 0 else 0) if boolean else inter
    return out


def test_k_equals_r_forces_all_ones():
    W = gen_selection_matrix(3, 4, 4, seed=123)
    assert all(row == (0, 1, 2, 3) for row in W.rows)


def test_generation_deterministic():
    W1 = gen_selection_matrix(5, 4, 2, seed=1)
    W2 = gen_selection_matrix(5, 4, 2, seed=1)
    assert W1.rows == W2.rows


@pytest.mark.parametrize("m, r, k, seed, digest", [
    (13302, 16, 3, 0, "395c180fc7446d802a6677eda27f1cea566f9e96fa9b6733c32d66e1ade03c50"),
    (3500, 7, 4, 8, "a07df2193178ec202d4b76fed6a71e51eb83735d37168150b3d77477e10ccd63"),
    (5, 4, 4, 1, "8ca9ce37921e70f22d9ca6ceb1e43d3ecab3a35e230f05d29c5f1a52036fb72b"),
    (50, 10, 1, 3, "b415561886a9a14211614e48aaef15454e5568d50a701269c3939a29f67d1636"),
    (100, 80, 3, 2, "69f6a050c51de78302495276d7507032b40d8d1b67dd53cd3d2fe95389ea2a43"),
], ids=["readme", "every-floyd-step", "k-eq-r", "k1", "r-above-64"])
def test_generated_supports_are_pinned(m, r, k, seed, digest):
    # SHA-256 of the little-endian int64 supports: `ssbmf gen` writes the same rows forever.
    support = gen_selection_matrix(m, r, k, seed).support
    assert hashlib.sha256(support.astype("<i8").tobytes()).hexdigest() == digest


def test_generation_uniform_chi_square():
    # chi-square over the 45 possible supports, 5 sigma of the dof-44 stat
    from itertools import combinations
    W = gen_selection_matrix(2000, 10, 2, seed=7)
    supports = list(combinations(range(10), 2))
    counts = {s: 0 for s in supports}
    for row in W.rows:
        counts[row] += 1
    expected = 2000 / 45
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    dof = 44
    assert stat <= dof + 5 * np.sqrt(2 * dof)


def test_generation_uniform_chi_square_k4():
    # every Floyd fix-up step (columns 1..3) is exercised; 35 supports
    from itertools import combinations
    W = gen_selection_matrix(3500, 7, 4, seed=8)
    counts = {s: 0 for s in combinations(range(7), 4)}
    for row in W.rows:
        counts[row] += 1
    stat = sum((c - 100) ** 2 / 100 for c in counts.values())
    assert stat <= 34 + 5 * np.sqrt(2 * 34)


def test_seeds_give_independent_instances():
    # README instance size; seed 1 must not reuse seed 0's rows in another order
    W0, W1 = (gen_selection_matrix(13302, 16, 3, seed=s) for s in (0, 1))
    assert Counter(W0.rows) != Counter(W1.rows)
    same = np.all(W0.support == W1.support, axis=1).mean()
    assert same < 0.01  # 1/560 expected for independent rows


def test_split_seed_distinct_including_nested():
    keys = {split_seed(s, i) for s in range(64) for i in range(64)}
    assert len(keys) == 64 * 64
    nested = {split_seed(split_seed(5, t), 0xfa11) for t in range(256)}
    assert len(nested) == 256
    assert split_seed(5, 1) != split_seed(5 + (1 << 64), 1)


@pytest.mark.parametrize("seed", [1.5, "7", True])
def test_random_streams_reject_a_non_integer_seed(seed):
    message = f"^{re.escape(f'seed {seed!r} is not an integer')}$"
    with pytest.raises(ParameterError, match=message):
        gen_selection_matrix(20, 4, 2, seed=seed)
    M = gram(gen_selection_matrix(20, 4, 2, seed=0))
    with pytest.raises(ParameterError, match=message):
        tensor_recover(M, 4, 2, RecoverConfig(anchors=8, seed=seed))


def test_parameter_errors():
    with pytest.raises(ParameterError):
        gen_selection_matrix(3, 4, 9, seed=0)
    with pytest.raises(ParameterError):
        gen_selection_matrix(0, 4, 2, seed=0)


SHAPE_ENTRY_POINTS = {
    "SelectionMatrix": lambda r, k: SelectionMatrix(m=2, r=r, k=k, rows=[[0], [1]]),
    "gen_selection_matrix": lambda r, k: gen_selection_matrix(2, r, k, seed=0),
    "mu_table": mu_table,
    "required_sample_size": lambda r, k: required_sample_size(r, k, 1, 0.1),
    "reduce_symmetric": lambda r, k: reduce_symmetric(None, r, k),
    "reduce_asymmetric": lambda r, k: reduce_asymmetric(np.zeros((2, 2)), r, k),
    "f2_zero_probability": lambda r, k: f2_zero_probability(r, k, 0),
    "anticoncentration_estimate": lambda r, k: anticoncentration_estimate(np.zeros(4), r, k),
    "tensor_recover": lambda r, k: tensor_recover(None, r, k),
}


@pytest.mark.parametrize("r, k", [(4, 0), (0, 1), (3, 5)])
@pytest.mark.parametrize("name", sorted(SHAPE_ENTRY_POINTS))
def test_every_entry_point_states_the_one_shape_rule(name, r, k):
    # One message everywhere, raised before a Gram matrix is read (M is None here).
    given_m = "m=2 " if name in ("SelectionMatrix", "gen_selection_matrix") else ""
    rule = " and m >= 1" if given_m else ""
    with pytest.raises(ParameterError,
                       match=f"^{re.escape(f'need 1 <= k <= r{rule}, got {given_m}r={r} k={k}')}$"):
        SHAPE_ENTRY_POINTS[name](r, k)


@pytest.mark.parametrize("r, k", [(8.5, 2), (8, 2.0), (8.0, 2), (True, True), (np.float64(4), 2)])
@pytest.mark.parametrize("name", sorted(SHAPE_ENTRY_POINTS))
def test_every_entry_point_rejects_non_integer_shapes(name, r, k):
    # A shape in range that is a float or a bool is named as given, not
    # run as the integer it compares equal to or dropped into a TypeError.
    given_m = "m=2 " if name in ("SelectionMatrix", "gen_selection_matrix") else ""
    names = "m, r and k" if given_m else "r and k"
    with pytest.raises(ParameterError,
                       match=f"^{re.escape(f'need integer {names}, got {given_m}r={r} k={k}')}$"):
        SHAPE_ENTRY_POINTS[name](r, k)


@pytest.mark.parametrize("m", [10.0, True])
def test_gen_rejects_a_non_integer_m(m):
    with pytest.raises(ParameterError, match=f"^need integer m, r and k, got m={m} r=1 k=1$"):
        gen_selection_matrix(m, 1, 1, seed=0)


@pytest.mark.parametrize("m,r,k", [(1, 5, 2), (1, 3, 3), (6, 4, 4), (9, 1, 1)])
def test_dense_and_gram_at_edges(m, r, k):
    W = gen_selection_matrix(m, r, k, seed=m + r)
    want = np.array([[int(j in row) for j in range(r)] for row in W.rows])
    assert np.array_equal(W.dense(), want)
    assert np.array_equal(gram(W).dense(), brute_gram(W.rows))
    assert np.array_equal(gram(W, "integer").counts, brute_gram(W.rows, boolean=False))
    assert factorization_error(gram(W), W) == 0


@pytest.mark.parametrize("rows", [
    [[0, 1.5]],          # a float entry is not truncated to 1
    [[True, False]],     # bool entries are not indices
    [[0, True]],         # nor mixed with integers
    [[0]],               # short row
    [[0, 1], [2]],       # ragged
    [[1, 1]],            # repeated index
    [[0, 4]],            # index >= r
    [[-1, 2]],
    [["0", "1"]],        # strings, as a JSON file may hold
    [[0, None]],
    [[[0, 1]]],          # nested one level too deep
    [[0, 2 ** 64]],      # beyond every integer dtype
    np.array([[0, 2 ** 64 - 1]], dtype=np.uint64),  # beyond intp: read as -1, not as an index
])
def test_selection_matrix_rejects_bad_rows(rows):
    with pytest.raises(ParameterError):
        SelectionMatrix(m=len(rows), r=4, k=2, rows=rows)


@pytest.mark.parametrize("rows, message", [
    ([[True, False]], "rows hold a bool entry; bools are not indices"),
    ([[0, True]], "rows hold a bool entry; bools are not indices"),
    (np.array([[True, False]]), "rows hold a bool entry; bools are not indices"),
    ([["0", "1"]], "rows must hold indices of an integer dtype, got dtype <U1"),
    ([[0, None]], "rows must hold indices of an integer dtype, got dtype object"),
    ([[0, 0.5]], "rows must hold indices of an integer dtype, got dtype float64"),
    ([[0, 2 ** 64]], "rows must hold indices of an integer dtype, got dtype object"),
    ([[0]], "expected 1 rows of 2 indices, got shape (1, 1)"),
], ids=["bool", "bool-among-ints", "bool-array", "str", "None", "float", "2**64", "short"])
def test_selection_matrix_names_the_fault(rows, message):
    # The message names the entry's fault: only a bool entry mentions bools.
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        SelectionMatrix(m=len(rows), r=4, k=2, rows=rows)


def test_selection_matrix_support_is_sorted_and_read_only():
    W = SelectionMatrix(m=2, r=5, k=3, rows=[(4, 0, 2), (1, 3, 2)])
    assert W.rows == ((0, 2, 4), (1, 2, 3))
    assert W.support.shape == (2, 3) and not W.support.flags.writeable


def test_selection_matrix_shuffled_and_increasing_rows_give_the_same_support():
    W = gen_selection_matrix(200, 30, 5, seed=3)
    shuffled = np.random.default_rng(0).permuted(W.support, axis=1)
    assert not np.array_equal(shuffled, W.support)
    increasing = W.support.copy()
    for rows in (increasing, shuffled, shuffled.tolist(), increasing.astype(np.uint8)):
        V = SelectionMatrix(m=200, r=30, k=5, rows=rows)
        assert V.support.dtype == np.intp and np.array_equal(V.support, W.support)
    # The increasing rows skip the sort but are still copied, not frozen in place.
    V = SelectionMatrix(m=200, r=30, k=5, rows=increasing)
    assert not np.shares_memory(V.support, increasing) and increasing.flags.writeable


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [2, 2], [1, 3], [0, 4]], "row 1 = [2, 2] is not a 2-subset of [0, 4)"),
    ([[0, 1], [3, 2], [1, 3], [2, 2]], "row 3 = [2, 2] is not a 2-subset of [0, 4)"),
    ([[0, 1], [4, 0], [1, 3], [3, 3]], "row 1 = [0, 4] is not a 2-subset of [0, 4)"),
], ids=["duplicate-then-too-large", "unsorted-then-duplicate", "too-large-then-duplicate"])
def test_selection_matrix_names_the_lowest_faulty_row(rows, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        SelectionMatrix(m=len(rows), r=4, k=2, rows=rows)


def test_gram_boolean_example():
    W = SelectionMatrix(m=3, r=4, k=2, rows=((0, 1), (1, 2), (2, 3)))
    M = gram(W, "boolean")
    assert M.dense().tolist() == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]


def test_gram_diagonal_all_one():
    W = gen_selection_matrix(7, 6, 3, seed=9)
    M = gram(W)
    assert all(M.entry(a, a) == 1 for a in range(7))


def test_gram_entry_rejects_indices_outside_the_rows():
    # m = 200 leaves padding bits in the last word; numpy would read one at
    # b = -1 (wrapped) and at b = 200, and wrap a = -1 to row 199.
    M = gram(gen_selection_matrix(200, 6, 2, seed=1))
    assert M.entry(0, 199) == M.dense()[0, 199]
    for a, b in [(0, -1), (-1, 0), (0, 200), (200, 0)]:
        with pytest.raises(IndexError, match="out of range"):
            M.entry(a, b)


class _Row(int):
    """An int subclass that is not bool."""


@pytest.mark.parametrize("index", [True, np.True_, False, 1.0, 1.5, np.float64(2.0), "1"])
def test_gram_entry_rejects_an_index_that_is_not_an_integer(index):
    # A bool would silently read row or column 0 or 1; numpy's own errors
    # for a float name no entry.
    M = gram(gen_selection_matrix(200, 6, 2, seed=1))
    for pair in ((index, 0), (0, index)):
        name = ",".join(map(str, pair))
        with pytest.raises(IndexError, match=rf"^entry \({name}\): .* is not an integer index$"):
            M.entry(*pair)
    assert M.entry(np.int64(3), np.uint8(199)) == M.dense()[3, 199]
    # numpy integers in every position, at a set bit and at a zero bit.
    dense = M.dense()
    assert dense[3].min() == 0 and dense[3].max() == 1
    for a, b in ((3, int(np.argmax(dense[3]))), (3, int(np.argmin(dense[3])))):
        for np_int in (np.int64, np.int32):
            for pair in ((np_int(a), b), (a, np_int(b)), (np_int(a), np_int(b))):
                assert M.entry(*pair) == dense[a, b]
        # An int subclass other than bool is an integer, as a plain int is.
        assert M.entry(_Row(a), _Row(b)) == dense[a, b]


def test_gram_matrix_needs_a_row():
    # m = 0 with its (0, 0) words would pass the shape check alone.
    with pytest.raises(ParameterError, match=r"got m=0 and shape \(0, 0\)$"):
        GramMatrix(m=0, rows=np.zeros((0, 0), dtype="<u8"))


def test_gram_integer_example():
    W = SelectionMatrix(m=2, r=4, k=2, rows=((0, 1), (0, 1)))
    M = gram(W, "integer")
    assert M.counts.tolist() == [[2, 2], [2, 2]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gram_matches_brute_force(seed):
    W = gen_selection_matrix(8, 6, 2, seed=seed)
    assert np.array_equal(gram(W, "boolean").dense(), brute_gram(W.rows))
    assert np.array_equal(gram(W, "integer").counts,
                          brute_gram(W.rows, boolean=False))


def test_boolean_iff_integer_positive():
    # exhaustive at r <= 4, m <= 3
    from itertools import combinations, product
    for k in (1, 2):
        supports = list(combinations(range(4), k))
        for rows in product(supports, repeat=3):
            W = SelectionMatrix(m=3, r=4, k=k, rows=rows)
            b = gram(W, "boolean").dense()
            c = gram(W, "integer").counts
            assert np.array_equal(b, (c > 0).astype(int))


def test_gram_permutation_covariant():
    W = gen_selection_matrix(6, 5, 2, seed=3)
    perm = [2, 0, 4, 1, 3]
    rows = tuple(tuple(sorted(perm[j] for j in row)) for row in W.rows)
    W2 = SelectionMatrix(m=6, r=5, k=2, rows=rows)
    assert np.array_equal(gram(W).bits, gram(W2).bits)


def test_factorization_error_zero_on_exact():
    W = gen_selection_matrix(10, 6, 2, seed=4)
    assert factorization_error(gram(W), W) == 0


def test_factorization_error_counts_both_triangles():
    M = gram(SelectionMatrix(m=2, r=4, k=2, rows=((0, 1), (2, 3))))
    W = SelectionMatrix(m=2, r=4, k=2, rows=((0, 1), (1, 2)))
    assert factorization_error(M, W) == 2


def test_factorization_error_all_ones_vs_disjoint():
    M = GramMatrix.from_json({"m": 2, "hex_rows": ["3", "3"]})
    W = SelectionMatrix(m=2, r=4, k=2, rows=((0, 1), (2, 3)))
    assert factorization_error(M, W) == 2


def test_factorization_error_dimension_mismatch():
    M = gram(gen_selection_matrix(3, 4, 2, seed=0))
    W = gen_selection_matrix(4, 4, 2, seed=0)
    with pytest.raises(ParameterError):
        factorization_error(M, W)


def test_selection_json_roundtrip(tmp_path):
    W = gen_selection_matrix(6, 5, 2, seed=11)
    obj = W.to_json(seed=11)
    assert obj["seed"] == 11
    W2 = SelectionMatrix.from_json(json.loads(json.dumps(obj)))
    assert W2.rows == W.rows


def test_gram_hex_roundtrip():
    M = gram(gen_selection_matrix(9, 6, 2, seed=5))
    M2 = GramMatrix.from_json(M.to_json())
    assert np.array_equal(M2.bits, M.bits)
    # nibble count and bit convention
    obj = M.to_json()
    assert all(len(s) == (9 + 3) // 4 for s in obj["hex_rows"])
    assert int(obj["hex_rows"][0], 16) >> 0 & 1 == M.entry(0, 0)


def _least_table_m(r, k):
    """The least m at which gram stores its table of distinct supports."""
    m = max(1024, -(-16 * math.comb(r, k) // (k - 1)))
    assert _uses_table(m, r, k) and not _uses_table(m - 1, r, k)
    return m


@st.composite
def _gram_shapes(draw):
    r = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=1, max_value=r))
    # m <= 12 takes the per-position Gram kernel, and so does every m at k = 1.
    sizes = st.integers(min_value=1, max_value=12)
    m = draw(sizes | st.just(_least_table_m(r, k)) if k > 1 else sizes)
    return r, k, m


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), _gram_shapes(), st.booleans(),
       st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)), min_size=1, max_size=4))
# At r >= 68 some C(s, t + 1) pass 2**63, at s < r and t < k that no sorted support reads.
@example(seed=0, shape=(70, 70, 1024), missing=False, flips=[(0, 1)])  # k = r: C(r, k) = 1
@example(seed=4, shape=(80, 79, 1280), missing=False, flips=[(7, 1279), (640, 2)])
@example(seed=5, shape=(68, 66, 1024), missing=True, flips=[(1000, 1000)])
@example(seed=1, shape=(6, 1, 50), missing=False, flips=[(3, 3), (2, 49)])  # k = 1
@example(seed=2, shape=(10, 4, 1120), missing=False, flips=[(1119, 0), (64, 63)])  # least table m
@example(seed=3, shape=(8, 3, 1024), missing=True, flips=[(5, 1023)])  # supports missing
def test_gram_roundtrip_property(seed, shape, missing, flips):
    r, k, m = shape
    W = gen_selection_matrix(m, r, k, seed=seed)
    if missing and k < r:  # no row holds column r - 1, so the supports holding it are missing
        W = SelectionMatrix(m=m, r=r, k=k, rows=gen_selection_matrix(m, r - 1, k, seed=seed).support)
    dense = W.dense().astype(np.int32)
    want = dense @ dense.T > 0
    M = gram(W)
    assert np.array_equal(M.dense(), want)
    assert factorization_error(M, W) == 0
    bits = M.bits.copy()
    for a, b in flips:
        a, b = a % m, b % m
        bits[a, b // 64] ^= np.uint64(1 << (b % 64))
    bad = GramMatrix(m=m, rows=bits)
    assert factorization_error(bad, W) == int((bad.dense() != want).sum())
    assert np.array_equal(GramMatrix.from_json(M.to_json()).bits, M.bits)
    assert SelectionMatrix.from_json(W.to_json()).rows == W.rows


@pytest.mark.parametrize("m, k", [(3000, 1), (2100, 2), (1800, 3)])
def test_gram_rows_cross_chunk_boundaries(m, k):
    # Sizes where the Gram-row kernel runs at least three chunks, so the chunk
    # loop and factorization_error's skip of an all-zero chunk are both reached:
    # k = 1 and k = 3 on the per-position kernel; at k = 2 the verify compares
    # the rows of a directly built M with the table, at least as many chunks.
    assert _uses_table(m, 16, k) == (k == 2)
    W = gen_selection_matrix(m, 16, k, seed=m)
    chunks = [(lo, hi) for lo, hi, _ in _gram_rows(W)]
    assert len(chunks) >= 3
    (_, boundary), (middle, _), (last, _) = chunks[0], chunks[1], chunks[-1]

    def dense_gram(W):  # dense reference: supports meet iff the integer product is positive
        dense = W.dense().astype(np.int32)
        return (dense @ dense.T > 0).astype(np.int8)

    def flipped(M, *entries):
        bits = M.bits.copy()
        for a, b in entries:
            bits[a, b // 64] ^= np.uint64(1 << (b % 64))
        return GramMatrix(m=M.m, rows=bits)

    want = dense_gram(W)
    M = gram(W)
    assert np.array_equal(M.dense(), want)
    assert factorization_error(M, W) == 0
    # One bit in the last chunk only, then bits on both sides of the first
    # boundary, a diagonal entry among them.
    for entries in ([(m - 1, 5)],
                    [(boundary - 1, 7), (boundary, boundary), (boundary, m - 1)]):
        bad = flipped(M, *entries)
        assert factorization_error(bad, W) == int((bad.dense() != want).sum()) == len(entries)
    # A corrupted row of W in a middle chunk disagrees in its row and column.
    support = W.support.copy()
    support[middle + 1] = (support[middle + 1] + 1) % 16
    W2 = SelectionMatrix(m=m, r=16, k=k, rows=support)
    want2 = dense_gram(W2)
    assert np.array_equal(gram(W2).dense(), want2)
    errors = int((want != want2).sum())
    assert errors > 0 and factorization_error(M, W2) == errors


@pytest.mark.parametrize("replaced", [0, 1, 3])
@pytest.mark.parametrize("source", ["gram", "json", "direct", "direct, one side flipped"])
@pytest.mark.parametrize("m, r, k", [(1056, 12, 2), (300, 8, 2)])
def test_factorization_error_is_the_dense_l0(m, r, k, source, replaced):
    # The table path (1056 = 16 C(12, 2)) and the per-position one, against M
    # as gram stores it, read back from JSON (rows repeat on both paths), and
    # built directly with index=None; W is the truth or has rows replaced.
    W = gen_selection_matrix(m, r, k, seed=m)
    M = gram(W)
    assert (M.index is not None) == _uses_table(m, r, k)
    if M.index is not None:
        assert len(M.rows) <= math.comb(r, k)
    if source == "json":
        M = GramMatrix.from_json(json.loads(json.dumps(M.to_json())))
        assert M.index is not None and len(M.rows) <= math.comb(r, k)
    elif source.startswith("direct"):
        bits = M.bits.copy()
        if source.endswith("flipped"):  # entry (3, 200) set, entry (200, 3) left as it is
            bits[3, 200 // 64] ^= np.uint64(1 << 200 % 64)
        M = GramMatrix(m=np.int64(m), rows=bits)  # a numpy m is an integer m
        assert type(M.m) is int
    support = W.support.copy()
    for a in np.random.default_rng(replaced).choice(m, size=replaced, replace=False):
        support[a] = (support[a] + 1) % r
    W_hat = SelectionMatrix(m=m, r=r, k=k, rows=support)
    want = np.count_nonzero(M.dense() != gram(W_hat).dense())
    assert factorization_error(M, W_hat) == want
    assert (want > 0) == (replaced > 0 or source.endswith("flipped"))


@pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 130])
def test_packed_kernels_match_brute_force(m):
    # sizes around the word boundary, so the zero padding word is exercised
    r, k = 12, 2
    W = gen_selection_matrix(m, r, k, seed=m)
    M = gram(W)
    want = brute_gram(W.rows)
    zero = want == 0
    assert np.array_equal(M.dense(), want)
    assert all(M.entry(a, b) == want[a, b] for a in range(m) for b in range(m))
    rng = np.random.Generator(np.random.Philox(key=m))
    for size in (1, 2, 3):
        for _ in range(4):
            rows = rng.integers(0, m, size=size).tolist()
            a, b, *extra = rows if size > 1 else rows * 2  # extra: the third row
            bits = M.bits | M.bits[extra[0]] if extra else M.bits  # third row OR-ed in
            assert zero_counts(bits, m, [a], [b])[0, 0] == int(zero[rows].all(axis=0).sum())
    table = mu_table(r, k)
    rows_a = rng.integers(0, m, size=5).tolist()
    block = union_block(M, table, rows_a)
    for i, a in enumerate(rows_a):
        for b in range(m):
            count = int((zero[a] & zero[b]).sum())
            assert block[i, b] == invert_fraction(Fraction(count, m), table)
    # a direct packed matrix with some diagonal zeros against another W
    bits = M.bits.copy()
    for a in range(0, m, 3):
        bits[a, a // 64] ^= np.uint64(1 << (a % 64))
    M_diag = GramMatrix(m=m, rows=bits)
    W2 = gen_selection_matrix(m, r, k, seed=m + 1)
    diff = M_diag.dense() != brute_gram(W2.rows)
    assert factorization_error(M_diag, W2) == int(diff.sum())
    # gram(W2) has a unit diagonal, so the diagonal disagreements are M_diag's zeros.
    diagonal_zeros = int((np.diagonal(M_diag.dense()) == 0).sum())
    np.fill_diagonal(diff, False)
    assert factorization_error(M_diag, W2) - diagonal_zeros == int(diff.sum())
    obj = json.loads(json.dumps(M.to_json()))
    M2 = GramMatrix.from_json(obj)
    assert np.array_equal(M2.bits, M.bits) and np.array_equal(M2.dense(), want)
    assert M2.to_json() == obj


def _unit_hex(m, row=0, extra=(), text=None):
    """Hex rows of the m x m identity (a valid Gram file), with the bits
    ``extra`` also set in ``row``, or with ``text`` in place of that row."""
    rows = [1 << a for a in range(m)]
    rows[row] |= sum(1 << j for j in extra)
    rows = [format(v, f"0{(m + 3) // 4}x") for v in rows]
    if text is not None:
        rows[row] = text
    return {"m": m, "hex_rows": rows}


@pytest.mark.parametrize("obj", [
    {"m": 3, "hex_rows": ["ff", "1", "2"]},        # stray bits, zero diagonal
    {"m": 2, "hex_rows": ["1", "3"]},              # asymmetric
    {"m": 3, "hex_rows": ["7", "7"]},              # short row list
    {"m": 3, "hex_rows": ["f", "7", "7"]},         # bit 3 set although m = 3
    {"m": 2, "hex_rows": ["2", "1"]},              # symmetric, zero diagonal
    {"m": 1, "hex_rows": ["g"]},                   # not hex
    {"m": 5, "hex_rows": ["1f"] * 4 + [" f"]},     # a space in place of a digit
    {"m": 0, "hex_rows": []},                      # empty
    {"m": 65, "hex_rows": ["0" + "f" * 16] + ["1" + "f" * 16] * 64},  # (0, 64) != (64, 0)
    {"m": 1, "hex_rows": ["\u0663"]},              # a non-ASCII digit
    _unit_hex(16, text="0x01"),                    # a 0x prefix
    _unit_hex(13, text="  ff"),                    # spaces at an even offset (fromhex skips them)
    _unit_hex(5, text="001"),                      # a leading zero too many
    _unit_hex(5, text="1"),                        # a digit too few
    {"m": 1, "hex_rows": [1]},                     # not a string
    {"m": 2, "hex_rows": [["1"], "2"]},            # not a string, of the right length
    _unit_hex(9, row=0, extra=[10]),               # stray padding bits past m = 9, 65, 130
    _unit_hex(65, row=5, extra=[66]),
    _unit_hex(130, row=129, extra=[131]),
    _unit_hex(130, row=64, extra=[130, 131]),
])
def test_gram_from_json_rejects_malformed(obj, tmp_path):
    with pytest.raises(ParameterError):
        GramMatrix.from_json(obj)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    assert main(["attack", "--gram", str(path), "--r", "4", "--k", "2"]) == 2


@pytest.mark.parametrize("m", [1, 9, 13, 64, 65, 130])
def test_unit_hex_helper_is_a_valid_gram_file(m):
    # The malformed cases above built by _unit_hex differ from a valid file
    # in one row only.
    assert np.array_equal(GramMatrix.from_json(_unit_hex(m)).dense(), np.eye(m))
