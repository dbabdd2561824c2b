import re

import numpy as np
import pytest

from ssbmf import (ParameterError, contract, expected_square_inner, gen_selection_matrix,
                   gram, jennrich_decompose, mu_table, oracle_tensor)
from ssbmf.csp import evaluate, reduce_asymmetric, reduce_symmetric
from ssbmf.instance import GramMatrix, SelectionMatrix
from ssbmf.probes import f2_zero_probability, krawtchouk, rank_report
from ssbmf.recover import solve_exact

W = gen_selection_matrix(5, 4, 2, seed=0)


def _asymmetric_counts():
    counts = np.zeros((W.m, W.m), dtype=np.int64)
    counts[0, 1] = 1
    return GramMatrix(m=W.m, bits=gram(W).bits, counts=counts)


def _asymmetric_bits():
    bits = gram(W).bits.copy()
    bits[2, 0] |= 1  # sets entry (2, 0), which was 0; entry (0, 2) stays 0
    return GramMatrix(m=W.m, bits=bits)


CASES = {
    "integer entry beyond k": (lambda: reduce_symmetric(gram(W, "integer"), 4, 1),
                               "integer entries must lie in {0..k}"),
    "unknown reduction mode": (lambda: reduce_symmetric(gram(W), 4, 2, mode="fuzzy"),
                               "unknown mode 'fuzzy'"),
    "asymmetric integer entries": (lambda: reduce_symmetric(_asymmetric_counts(), 4, 2),
                                   "counts must be symmetric, 5 x 5, and positive exactly where "
                                   "the bit is set, else 0"),
    "asymmetric Boolean entries": (lambda: reduce_symmetric(_asymmetric_bits(), 4, 2, "boolean"),
                                   "symmetric reduction requires a symmetric matrix"),
    "unknown arithmetic": (lambda: gram(W, "real"), "unknown arithmetic 'real'"),
    "r beyond the tensor": (
        lambda: jennrich_decompose(oracle_tensor(gen_selection_matrix(4, 6, 2, seed=0),
                                                 materialize=True), 6),
        "r=6 exceeds tensor dimension 4"),
    "t_max beyond r": (lambda: mu_table(6, 2, t_max=7), "need 0 <= t_max <= r, got 7"),
    "krawtchouk lam beyond r": (lambda: krawtchouk(4, 2, 5),
                                "need 0 <= lam, k <= r, got r=4 k=2 lam=5"),
    "negative lam": (lambda: f2_zero_probability(4, 2, -1), "need 0 <= lam <= r, got lam=-1 r=4"),
    "r below 2": (lambda: expected_square_inner([1.0], 1, 1), "need r >= 2"),
    "k beyond r": (lambda: expected_square_inner([1.0, 1.0, 1.0], 3, 4), "need k <= r"),
    "Y of the wrong height": (lambda: solve_exact(W, np.zeros(6)), "Y has 6 rows, expected 5"),
    "lazy contraction": (lambda: contract(oracle_tensor(W), np.ones(5)),
                         "contraction requires a materialized tensor"),
    "vector of the wrong length": (
        lambda: contract(oracle_tensor(W, materialize=True), np.ones(3)),
        "vector of length (3,) against block dim 5"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_public_calls_raise_parameter_error_with_their_message(case):
    call, message = CASES[case]
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


# Every input that must hold integers: the name its messages start with, mapped to
# (a call that passes the input, a valid value of it).
_W4 = gen_selection_matrix(4, 4, 2, seed=0)
INTEGER_INPUTS = {
    "rows": (lambda v: SelectionMatrix(m=2, r=4, k=2, rows=v), [[0, 1], [2, 3]]),
    "counts": (lambda v: GramMatrix(m=4, bits=gram(_W4).bits, counts=v),
               gram(_W4, "integer").counts.tolist()),
    "entries of M": (lambda v: reduce_asymmetric(v, 4, 2), [[1, 0], [0, 1]]),
    "assignment ranks": (lambda v: evaluate(reduce_symmetric(gram(_W4, "integer"), 4, 2), v),
                         [0, 1, 2, 3]),
    "primes": (lambda v: rank_report(_W4, primes=v), [2, 3]),
}


def _with_last(value, fault):
    """A copy of the nested list value whose last scalar entry x is fault(x)."""
    if not isinstance(value[-1], list):
        return value[:-1] + [fault(value[-1])]
    return value[:-1] + [_with_last(value[-1], fault)]


# Each fault but the bool array and 2**64 keeps the value of the entry it
# replaces, so only its type is wrong: int() would read "3" or 3.0 as 3.
DTYPE_FAULTS = {
    "bool-array": lambda v: np.ones(np.shape(v), dtype=bool),
    "bool-among-ints": lambda v: _with_last(v, lambda x: True),
    "str": lambda v: _with_last(v, str),
    "None": lambda v: _with_last(v, lambda x: None),
    "float": lambda v: _with_last(v, float),
    "2**64": lambda v: _with_last(v, lambda x: 2 ** 64),
    "ragged": lambda v: _with_last(v, lambda x: [x, x]),
}


@pytest.mark.parametrize("fault", sorted(DTYPE_FAULTS))
@pytest.mark.parametrize("what", sorted(INTEGER_INPUTS))
def test_integer_inputs_reject_the_same_dtype_faults(what, fault):
    call, valid = INTEGER_INPUTS[what]
    call(valid)
    with pytest.raises(ParameterError, match=f"^{re.escape(what)} "):
        call(DTYPE_FAULTS[fault](valid))
