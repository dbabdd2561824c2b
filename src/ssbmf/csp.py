"""Worst-case path: reductions from sparse Boolean matrix factorization to
Max 2-CSP over the alphabet of k-sparse indicator vectors, with exact
enumeration and local-search solvers at desk scale.

Alphabet letters are addressed by colexicographic rank; a solve builds once the
table sat[c, s, t] of whether letters s and t meet target c.  An instance is one
symmetric n x n target matrix in which k + 1 marks a pair with no constraint,
and no pair meets it.  Constraints live on u != v (symmetric) or across the
complete bipartite graph (asymmetric, 2m vertices whose sides hold k + 1); the
diagonal is forced and holds k + 1, so objective identities use off-diagonal counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .instance import (GramMatrix, SelectionMatrix, _check_shape, _int_array, _is_int, _rng,
                       _row_chunks)

_EXACT_BLOCK = 1 << 18  # edge-assignment pairs scored per block by solve_exact


def rank_subset(subset) -> int:
    """Colexicographic rank of a sorted k-subset."""
    return sum(math.comb(a, i + 1) for i, a in enumerate(sorted(subset)))


def unrank_subset(rank: int, r: int, k: int) -> tuple:
    """Inverse of rank_subset over the C(r, k) subsets of [0, r)."""
    if not 0 <= rank < math.comb(r, k):
        raise ParameterError(f"rank {rank} out of range for C({r},{k})")
    out = []
    for i in range(k, 0, -1):
        a = i - 1
        while math.comb(a + 1, i) <= rank:
            a += 1
        out.append(a)
        rank -= math.comb(a, i)
    return tuple(reversed(out))


@dataclass(frozen=True)
class CspInstance:
    r: int
    k: int
    mode: str            # "integer" or "boolean"
    bipartite: bool
    m: int               # vertices per side (total n = m or 2m)
    targets: np.ndarray  # n x n required values in 0..k, k + 1 for no constraint

    @property
    def alphabet_size(self) -> int:
        return math.comb(self.r, self.k)

    @property
    def n_vertices(self) -> int:
        return 2 * self.m if self.bipartite else self.m

    @property
    def n_edges(self) -> int:
        return self.m * self.m if self.bipartite else self.m * (self.m - 1) // 2


@dataclass
class Assignment:
    sigma: tuple  # alphabet rank per vertex (length n_vertices)
    value: int


def reduce_symmetric(M: GramMatrix, r: int, k: int,
                     mode: str = "integer") -> CspInstance:
    """Complete-graph instance: edge (u, v) wants <sigma(u), sigma(v)> to hit
    the integer entry, or its positivity indicator in boolean mode."""
    _check_shape(r, k)
    if mode == "integer":
        if M.counts is None:
            raise ParameterError("integer mode needs integer entries; "
                                 "regenerate with gram --arithmetic integer")
        values = M.counts  # the GramMatrix checked it is symmetric and non-negative
        if values.max() > k:
            raise ParameterError("integer entries must lie in {0..k}")
    elif mode == "boolean":
        values = M.dense()
        if not np.array_equal(values, values.T):
            raise ParameterError("symmetric reduction requires a symmetric matrix")
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    targets = values.astype(np.min_scalar_type(k + 1))
    np.fill_diagonal(targets, k + 1)
    return CspInstance(r=r, k=k, mode=mode, bipartite=False, m=M.m,
                       targets=targets)


def reduce_asymmetric(M, r: int, k: int) -> CspInstance:
    """Complete-bipartite instance for the two-factor problem M = U V."""
    _check_shape(r, k)
    values = _int_array(M, "entries of M")
    if values.ndim != 2 or values.shape[0] != values.shape[1] or not values.size:
        raise ParameterError(f"expected a non-empty square matrix, got shape {values.shape}")
    if values.min() < 0 or values.max() > k:
        raise ParameterError("integer entries must lie in {0..k}")
    m = len(values)
    targets = np.full((2 * m, 2 * m), k + 1, dtype=np.min_scalar_type(k + 1))
    targets[:m, m:], targets[m:, :m] = values, values.T
    return CspInstance(r=r, k=k, mode="integer", bipartite=True, m=m, targets=targets)


def _sat_table(inst: CspInstance) -> np.ndarray:
    """The (k+2) x q x q table sat[c, s, t]: ranks s and t meet target c; no
    pair meets the no-constraint target c = k + 1."""
    q = inst.alphabet_size
    ranks = [unrank_subset(t, inst.r, inst.k) for t in range(q)]
    alphabet = SelectionMatrix(m=q, r=inst.r, k=inst.k, rows=ranks).dense().astype(np.int64)
    inner, c = alphabet @ alphabet.T, np.arange(inst.k + 2)[:, None, None]
    rule = (inner > 0) == (c > 0) if inst.mode == "boolean" else inner == c
    return rule & (c <= inst.k)


def _evaluate(sat, targets, sigma) -> int:
    sigma, q = _int_array(sigma, "assignment ranks"), sat.shape[1]
    if sigma.shape != (len(targets),) or sigma.min() < 0 or sigma.max() >= q:
        raise ParameterError(f"assignment {sigma.tolist()} is not {len(targets)} letter "
                             f"ranks in [0, {q})")
    return int(sat[targets, sigma[:, None], sigma].sum()) // 2


def evaluate(inst: CspInstance, sigma) -> int:
    """Number of satisfied edges under the assignment (ranks per vertex)."""
    return _evaluate(_sat_table(inst), inst.targets, sigma)


def solve_exact(inst: CspInstance, budget: int = 10 ** 7) -> Assignment:
    """Globally optimal assignment by enumeration of all q^n assignments.

    Assignments are scored in blocks of consecutive integers, unravelled to
    rank arrays in itertools.product order; each edge adds its q x q
    satisfaction table at the two ranks.  The first maximum in that order
    wins.
    """
    q, n = inst.alphabet_size, inst.n_vertices
    if q ** n > budget:
        raise BudgetExceededError(f"{q}^{n} assignments exceed budget {budget}")
    sat, targets = _sat_table(inst), inst.targets
    u, v = np.nonzero(np.triu(targets <= inst.k))
    tables = sat[targets[u, v]].reshape(-1, q * q)
    best_sigma, best_value = None, -1
    step = max(1, _EXACT_BLOCK // max(1, len(u)))
    for lo in range(0, q ** n, step):
        sigma = np.array(np.unravel_index(np.arange(lo, min(q ** n, lo + step)), (q,) * n))
        values = np.take_along_axis(tables, sigma[u] * q + sigma[v], axis=1).sum(axis=0)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_sigma, best_value = tuple(sigma[:, i].tolist()), int(values[i])
    return Assignment(sigma=best_sigma, value=best_value)


def solve_local(inst: CspInstance, restarts: int = 10, iters: int = 100,
                seed: int = 0) -> Assignment:
    """Random restarts + best-improvement single-vertex moves.

    A move scores the full alphabet for one vertex v from the histogram of its
    row's (target, letter) pairs: table[t, c*q + s] = sat[c, t, s], 0 at c = k + 1,
    so a move costs O(n + k q^2).  Ties break toward the lowest rank for determinism.
    """
    if not (_is_int(restarts) and _is_int(iters)) or restarts < 1 or iters < 0:
        raise ParameterError(f"need restarts >= 1 and iters >= 0 as integers, "
                             f"got {restarts} and {iters}")
    q, n = inst.alphabet_size, inst.n_vertices
    sat, targets = _sat_table(inst), inst.targets
    table = sat.transpose(1, 0, 2).reshape(q, -1).astype(float)  # BLAS; exact on small ints
    best = None
    for restart in range(restarts):
        sigma = _rng(seed, restart).integers(0, q, size=n)
        value = _evaluate(sat, targets, sigma)
        for _ in range(iters):
            improved = False
            for v in range(n):
                scores = table @ np.bincount(np.multiply(targets[v], q, dtype=np.intp) + sigma,
                                             minlength=table.shape[1])
                t = int(scores.argmax())
                if scores[t] > scores[sigma[v]]:
                    value += int(scores[t] - scores[sigma[v]])
                    sigma[v] = t
                    improved = True
            if not improved:
                break
        if best is None or value > best.value:
            best = Assignment(sigma=tuple(sigma.tolist()), value=value)
    return best


def assignment_to_factors(inst: CspInstance, assignment: Assignment):
    """Read the factor matrices off the assignment letters.

    Symmetric: returns (SelectionMatrix, off-diagonal L0 residual), with the
    identity residual = 2 * (|E| - value).  Asymmetric: returns
    ((U, V) 0/1 arrays, L0 residual) with residual = |E| - value.
    """
    letters = [unrank_subset(t, inst.r, inst.k) for t in assignment.sigma]
    if inst.bipartite:
        U, V = (SelectionMatrix(m=inst.m, r=inst.r, k=inst.k, rows=side).dense().astype(np.int64)
                for side in (letters[:inst.m], letters[inst.m:]))
        V = V.T  # column v holds the letter of right-hand vertex v
        return (U, V), int(np.sum(U @ V != inst.targets[:inst.m, inst.m:]))
    W = SelectionMatrix(m=inst.m, r=inst.r, k=inst.k, rows=letters)
    dense, residual = W.dense().astype(np.int64), 0
    for lo, hi in _row_chunks(inst.m, inst.m):
        prod, targets = dense[lo:hi] @ dense.T, inst.targets[lo:hi]
        if inst.mode == "boolean":
            prod = prod > 0
        residual += int(((prod != targets) & (targets <= inst.k)).sum())
    return W, residual
