import re

import numpy as np
import pytest

from ssbmf import (ParameterError, contract, expected_square_inner, gen_selection_matrix,
                   gram, jennrich_decompose, mu_table, oracle_tensor)
from ssbmf.csp import reduce_symmetric
from ssbmf.instance import GramMatrix
from ssbmf.probes import f2_zero_probability, krawtchouk
from ssbmf.recover import solve_exact

W = gen_selection_matrix(5, 4, 2, seed=0)


def _asymmetric_counts():
    counts = np.zeros((W.m, W.m), dtype=np.int64)
    counts[0, 1] = 1
    return GramMatrix(m=W.m, bits=gram(W).bits, counts=counts)


CASES = {
    "integer entry beyond k": (lambda: reduce_symmetric(gram(W, "integer"), 4, 1),
                               "integer entries must lie in {0..k}"),
    "unknown reduction mode": (lambda: reduce_symmetric(gram(W), 4, 2, mode="fuzzy"),
                               "unknown mode 'fuzzy'"),
    "asymmetric integer entries": (lambda: reduce_symmetric(_asymmetric_counts(), 4, 2),
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
