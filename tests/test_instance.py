import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbmf import (ParameterError, SelectionMatrix, factorization_error,
                   gen_selection_matrix, gram, mu_table, split_seed)
from ssbmf.cli import main
from ssbmf.instance import GramMatrix
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


def test_parameter_errors():
    with pytest.raises(ParameterError):
        gen_selection_matrix(3, 4, 9, seed=0)
    with pytest.raises(ParameterError):
        gen_selection_matrix(0, 4, 2, seed=0)


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
])
def test_selection_matrix_rejects_bad_rows(rows):
    with pytest.raises(ParameterError):
        SelectionMatrix(m=len(rows), r=4, k=2, rows=rows)


def test_selection_matrix_support_is_sorted_and_read_only():
    W = SelectionMatrix(m=2, r=5, k=3, rows=[(4, 0, 2), (1, 3, 2)])
    assert W.rows == ((0, 2, 4), (1, 2, 3))
    assert W.support.shape == (2, 3) and not W.support.flags.writeable


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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.data())
def test_gram_roundtrip_property(seed, data):
    r = data.draw(st.integers(min_value=2, max_value=10))
    k = data.draw(st.integers(min_value=1, max_value=r))
    m = data.draw(st.integers(min_value=1, max_value=12))
    W = gen_selection_matrix(m, r, k, seed=seed)
    M = gram(W)
    assert factorization_error(M, W) == 0
    assert np.array_equal(GramMatrix.from_json(M.to_json()).bits, M.bits)
    assert SelectionMatrix.from_json(W.to_json()).rows == W.rows


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
            assert zero_counts(M.bits, m, [a], [b], *extra)[0, 0] == int(zero[rows].all(axis=0).sum())
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
    M_diag = GramMatrix(m=m, bits=bits)
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
