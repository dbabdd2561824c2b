"""Worst-case path: reductions from sparse Boolean matrix factorization to
Max 2-CSP over the alphabet of k-sparse indicator vectors, with exact
enumeration and local-search solvers at desk scale.

Alphabet letters are addressed by colexicographic rank; a solve builds the
C(r, k) x r 0/1 letter matrix once.  Constraints live only on u < v
(symmetric) or on the complete bipartite graph (asymmetric), which is solved
as the symmetric instance on both sides; the diagonal is forced and therefore
omitted, so objective identities use off-diagonal counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .instance import GramMatrix, SelectionMatrix, _rng

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
    targets: np.ndarray  # m x m required values

    def __post_init__(self):
        if not 1 <= self.k <= self.r:
            raise ParameterError(f"need 1 <= k <= r, got r={self.r} k={self.k}")

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
    if mode == "integer":
        if M.counts is None:
            raise ParameterError("integer mode needs integer entries; "
                                 "regenerate with gram --arithmetic integer")
        targets = np.asarray(M.counts, dtype=np.int64)
        if targets.min() < 0 or targets.max() > k:
            raise ParameterError("integer entries must lie in {0..k}")
    elif mode == "boolean":
        targets = M.dense().astype(np.int64)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    if not np.array_equal(targets, targets.T):
        raise ParameterError("symmetric reduction requires a symmetric matrix")
    return CspInstance(r=r, k=k, mode=mode, bipartite=False, m=M.m,
                       targets=targets)


def reduce_asymmetric(M, r: int, k: int) -> CspInstance:
    """Complete-bipartite instance for the two-factor problem M = U V."""
    targets = np.asarray(M, dtype=np.int64)
    if targets.ndim != 2 or targets.shape[0] != targets.shape[1]:
        raise ParameterError("expected a square matrix")
    if targets.min() < 0 or targets.max() > k:
        raise ParameterError("entries must lie in {0..k}")
    return CspInstance(r=r, k=k, mode="integer", bipartite=True,
                       m=targets.shape[0], targets=targets)


def _symmetric_view(inst: CspInstance):
    """inst as a symmetric instance on its n_vertices vertices: the C(r, k) x r
    0/1 letter matrix by rank, the n x n targets and the n x n adjacency (a
    bipartite instance joins each side to the other)."""
    q, n, m = inst.alphabet_size, inst.n_vertices, inst.m
    ranks = [unrank_subset(t, inst.r, inst.k) for t in range(q)]
    alphabet = SelectionMatrix(m=q, r=inst.r, k=inst.k, rows=ranks).dense().astype(np.int64)
    if not inst.bipartite:
        return alphabet, inst.targets, ~np.eye(n, dtype=bool)
    targets = np.zeros((n, n), dtype=np.int64)
    targets[:m, m:], targets[m:, :m] = inst.targets, inst.targets.T
    side = np.arange(n) < m
    return alphabet, targets, side[:, None] != side[None, :]


def _satisfies(inst: CspInstance, letters, neighbours, targets) -> np.ndarray:
    """Whether each letter row meets the target against each neighbour row."""
    inner = letters @ neighbours.T
    return (inner > 0) == (targets > 0) if inst.mode == "boolean" else inner == targets


def _evaluate(inst: CspInstance, view, sigma) -> int:
    alphabet, targets, adjacency = view
    sigma = np.asarray(sigma)
    if sigma.shape != (len(targets),) or sigma.min() < 0 or sigma.max() >= len(alphabet):
        raise ParameterError(f"assignment {sigma.tolist()} is not {len(targets)} letter "
                             f"ranks in [0, {len(alphabet)})")
    letters = alphabet[sigma]
    return int((_satisfies(inst, letters, letters, targets) & adjacency).sum()) // 2


def evaluate(inst: CspInstance, sigma) -> int:
    """Number of satisfied edges under the assignment (ranks per vertex)."""
    return _evaluate(inst, _symmetric_view(inst), sigma)


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
    alphabet, targets, adjacency = _symmetric_view(inst)
    u, v = np.nonzero(np.triu(adjacency))
    tables = _satisfies(inst, alphabet, alphabet, targets[u, v][:, None, None]).reshape(-1, q * q)
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

    Each move scores the full alphabet for one vertex; ties break toward
    the lowest rank for determinism.
    """
    q, n = inst.alphabet_size, inst.n_vertices
    view = alphabet, targets, adjacency = _symmetric_view(inst)
    best = None
    for restart in range(max(1, restarts)):
        sigma = _rng(seed, restart).integers(0, q, size=n)
        value = _evaluate(inst, view, sigma)
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
        if best is None or value > best.value:
            best = Assignment(sigma=tuple(sigma.tolist()), value=value)
    return best


def assignment_to_factors(inst: CspInstance, assignment: Assignment):
    """Read the factor matrices off the assignment letters.

    Symmetric: returns (SelectionMatrix, off-diagonal L0 residual), with the
    identity residual = 2 * (|E| - value).  Asymmetric: returns
    ((U, V) 0/1 arrays, L0 residual) with residual = |E| - value.
    """
    letters = [sorted(unrank_subset(t, inst.r, inst.k)) for t in assignment.sigma]
    if inst.bipartite:
        U = np.zeros((inst.m, inst.r), dtype=np.int64)
        V = np.zeros((inst.r, inst.m), dtype=np.int64)
        for u in range(inst.m):
            U[u, letters[u]] = 1
        for v in range(inst.m):
            V[letters[inst.m + v], v] = 1
        residual = int(np.sum(U @ V != inst.targets))
        return (U, V), residual
    W = SelectionMatrix(m=inst.m, r=inst.r, k=inst.k, rows=letters)
    dense = W.dense().astype(np.int64)
    prod = dense @ dense.T
    if inst.mode == "boolean":
        prod = (prod > 0).astype(np.int64)
    diff = prod != inst.targets
    np.fill_diagonal(diff, False)
    return W, int(diff.sum())
