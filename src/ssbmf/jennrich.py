"""Simultaneous-diagonalization decomposition of the intersection tensor and
the full recovery pipeline: decompose, round to Boolean columns, extend from
an anchor subset to all rows, and verify against the input Gram matrix.

The decomposition works on two random contractions T(Id, Id, v).  Instead of
the fragile m x m eigenproblem of M1 @ pinv(M2), we project both contractions
onto an orthonormal basis U of the component span (rank-revealing SVD of M1),
solve the r x r nonsymmetric eigenproblem there, and lift the eigenvectors
back by U; this is algebraically equivalent on the span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegeneracyError, ExtensionError, ParameterError,
                     RankDeficiencyError, RoundingError, SsbmfError)
from .instance import (GramMatrix, SelectionMatrix, _rng, _unpack,
                       factorization_error)
from .mu import mu_table, union_block
from .tensor import IntersectionTensor, build_tensor, contract

SV_CUTOFF = 1e-8  # relative singular value below which a contraction direction is noise
GAP_TOL = 1e-6  # relative eigen-gap below which eigenvectors are not determined
RETRIES = 5  # random contraction pairs tried before a collision is reported
ROUND_TOL = 0.25  # a scaled entry this far from {0, 1} was not recovered
REPORTED_DIAGNOSTICS = ("fallback_rows", "eigen_gap")  # carried by timed reports


@dataclass
class RecoverConfig:
    anchors: int = None  # default min(m, max(4r, r + 16)); m means all rows
    seed: int = 0


@dataclass
class RecoveredFactors:
    W_hat: SelectionMatrix
    success: bool
    residual: int
    failure: str = None
    diagnostics: dict = field(default_factory=dict)

    def report(self, include_timing: bool = True) -> dict:
        out = {"success": self.success, "residual": self.residual,
               "retries": self.diagnostics.get("retries", 0)}
        if include_timing and "seconds" in self.diagnostics:
            out["seconds"] = self.diagnostics["seconds"]
            out["stages"] = dict(self.diagnostics["stages"])
            for key in REPORTED_DIAGNOSTICS:
                if key in self.diagnostics:
                    out[key] = self.diagnostics[key]
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def jennrich_decompose(T: IntersectionTensor, r: int, seed: int = 0,
                       diagnostics: dict = None):
    """Recover the rank-one components of T = sum_i w_i^(x3).

    Returns r unit-normalized vectors, each a scalar multiple of one w_i,
    provided the components are linearly independent.  Raises
    RankDeficiencyError if the contraction has numerical rank < r and
    DegeneracyError if eigenvalue collisions persist across all retries.
    """
    if T.block is None:
        raise ParameterError("decomposition requires a materialized tensor")
    n = T.block.shape[0]
    if r > n:
        raise ParameterError(f"r={r} exceeds tensor dimension {n}")
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    last_gap = None
    for attempt in range(RETRIES):
        v1 = rng.normal(size=n)
        v1 /= np.linalg.norm(v1)
        v2 = rng.normal(size=n)
        v2 /= np.linalg.norm(v2)
        M1 = contract(T, v1)
        M2 = contract(T, v2)
        U, s, _ = np.linalg.svd(M1)
        rank = int(np.sum(s > SV_CUTOFF * s[0])) if s[0] > 0 else 0
        if rank < r:
            raise RankDeficiencyError(
                f"contraction has numerical rank {rank} < r={r}")
        U = U[:, :r]
        A1 = U.T @ M1 @ U
        A2 = U.T @ M2 @ U
        u2, s2, vt2 = np.linalg.svd(A2)
        inv2 = vt2.T @ np.diag(np.where(s2 > SV_CUTOFF * s2[0], 1.0 / s2, 0.0)) @ u2.T
        evals, evecs = np.linalg.eig(A1 @ inv2)
        scale = np.max(np.abs(evals))
        gaps = np.abs(evals[:, None] - evals[None, :])
        np.fill_diagonal(gaps, np.inf)
        last_gap = float(gaps.min())
        if scale == 0 or last_gap < GAP_TOL * scale:
            continue
        if np.max(np.abs(evals.imag)) > GAP_TOL * scale:
            continue
        if diagnostics is not None:
            diagnostics["retries"] = attempt
            diagnostics["eigen_gap"] = last_gap / scale
        lifted = U @ evecs.real
        norms = np.linalg.norm(lifted, axis=0)
        if not norms.all():
            raise RankDeficiencyError("zero eigenvector after lifting")
        return list((lifted / norms).T)
    raise DegeneracyError(
        f"eigenvalue gap {last_gap} below tolerance after {RETRIES} retries")


def round_boolean(v) -> np.ndarray:
    """Scale by the signed entry of largest magnitude, then snap to {0,1}."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ParameterError("cannot round the zero vector")
    pivot = v[np.argmax(np.abs(v))]
    scaled = v / pivot
    margins = np.minimum(np.abs(scaled), np.abs(scaled - 1.0))
    worst = int(np.argmax(margins))
    if margins[worst] > ROUND_TOL:
        raise RoundingError(worst, float(margins[worst]))
    return (scaled > 0.5).astype(np.int8)


def extend_from_anchors(anchor_block: np.ndarray, anchor_indices,
                        M: GramMatrix, k: int, diagnostics: dict = None) -> SelectionMatrix:
    """Fill in the non-anchor rows of W from the recovered anchor block.

    Decode (COMP, from group testing): column j is a candidate for row a
    when every anchor holding j meets S_a, as column a of M's anchor rows
    tells (M is symmetric), read as one AND of their packed words per j.
    S_a is among the candidates, so a row with exactly k of them is S_a.
    Each other row (``diagnostics["fallback_rows"]`` counts them) is the
    rounded least-squares solution of (anchor block) x = c for
    c_ab = 2k - |S_a cup S_b| (mu-inverted from M), re-checked exactly; a
    failing row raises ExtensionError naming the lowest such row.
    """
    anchor_block = np.asarray(anchor_block, dtype=float)
    n0, r = anchor_block.shape
    if n0 < r:
        raise ParameterError(f"need at least r={r} anchors, got {n0}")
    if np.linalg.matrix_rank(anchor_block) < r:
        raise RankDeficiencyError("anchor block is column rank-deficient")
    anchor_indices = np.asarray(anchor_indices, dtype=np.intp)
    held = anchor_block > 0.5
    sparse = held.sum(axis=1) == k
    if not sparse.all():
        a = int(anchor_indices[np.argmin(sparse)])
        raise ExtensionError(f"anchor row {a} is not {k}-sparse")
    # Bit a of anchor row b is M[b, a]: the AND of the anchor rows holding j
    # (at least one, by the rank check) marks the rows with candidate j.
    rounded = _unpack(np.stack([np.bitwise_and.reduce(M.bits[anchor_indices[held[:, j]]])
                                for j in range(r)]), M.m).T == 1
    rounded[anchor_indices] = held
    rest = np.flatnonzero(np.count_nonzero(rounded, axis=1) != k)  # increasing
    if diagnostics is not None:
        diagnostics["fallback_rows"] = len(rest)
    counts = 2 * k - union_block(M, mu_table(r, k), rest, anchor_indices)
    extended = (counts @ np.linalg.pinv(anchor_block).T > 0.5).astype(np.int64)
    sums = extended.sum(axis=1)
    bad = (sums != k) | np.any(extended @ anchor_block.T != counts, axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if sums[i] != k:
            raise ExtensionError(
                f"row {rest[i]} rounded to sparsity {int(sums[i])}, expected {k}")
        raise ExtensionError(f"row {rest[i]} fails the intersection re-check")
    rounded[rest] = extended
    return SelectionMatrix(m=M.m, r=r, k=k, rows=np.nonzero(rounded)[1].reshape(M.m, k))


def match_columns(W_hat: SelectionMatrix, W_ref: SelectionMatrix):
    """Greedy exact matching of column multisets.

    Returns (permutation, unmatched): permutation[i] = j means column i of
    W_hat equals column j of W_ref; unmatched lists leftover column indices
    of (W_hat, W_ref) when the multisets differ.
    """
    if (W_hat.m, W_hat.r) != (W_ref.m, W_ref.r):
        raise ParameterError("shape mismatch between candidate and reference")
    available = {}
    for j, key in enumerate(map(tuple, W_ref.dense().T.tolist())):
        available.setdefault(key, []).append(j)
    permutation = [None] * W_hat.r
    unmatched_hat = []
    for i, key in enumerate(map(tuple, W_hat.dense().T.tolist())):
        slots = available.get(key)
        if slots:
            permutation[i] = slots.pop(0)
        else:
            unmatched_hat.append(i)
    unmatched_ref = [j for slots in available.values() for j in slots]
    if unmatched_hat:
        return None, (sorted(unmatched_hat), sorted(unmatched_ref))
    return permutation, None


@contextmanager
def _stage(stages: dict, name: str):
    """Record the seconds spent in the block as stages[name], also on failure."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = time.perf_counter() - start


def tensor_recover(M: GramMatrix, r: int, k: int,
                   config: RecoverConfig = None) -> RecoveredFactors:
    """Full pipeline: bootstrap tensor, decompose, round, extend, verify.

    Parameter errors propagate; algorithmic failures (rank deficiency,
    degenerate eigenvalues, rounding, inconsistent tensor entries) are
    reported via the failure flag instead of raising, so a corrupted input
    yields a diagnosable report rather than an exception.
    ``diagnostics["stages"]`` holds the seconds of each stage that ran, the
    failing one included.
    """
    if config is None:
        config = RecoverConfig()
    if r < 1 or k < 1 or k > r:
        raise ParameterError(f"invalid r={r}, k={k}")
    m = M.m
    n0 = min(m, max(4 * r, r + 16)) if config.anchors is None else config.anchors
    if not (isinstance(n0, (int, np.integer)) and r <= n0 <= m):
        raise ParameterError(f"anchor count {n0!r} is not an integer in [r={r}, m={m}]")
    start = time.perf_counter()
    stages = {}
    diagnostics = {"stages": stages}
    try:
        with _stage(stages, "bootstrap"):
            rng = _rng(config.seed, 0x5eed)
            indices = sorted(rng.choice(m, size=n0, replace=False).tolist())
            T = build_tensor(M, r, k, anchors=indices)
        with _stage(stages, "decompose"):
            vectors = jennrich_decompose(T, r, seed=config.seed, diagnostics=diagnostics)
        with _stage(stages, "round"):
            block = np.stack([round_boolean(v) for v in vectors], axis=1)
        with _stage(stages, "extend"):
            W_hat = extend_from_anchors(block, indices, M, k, diagnostics)
    except SsbmfError as exc:
        if isinstance(exc, ParameterError):
            raise
        diagnostics["seconds"] = time.perf_counter() - start
        return RecoveredFactors(W_hat=None, success=False, residual=-1,
                                failure=str(exc), diagnostics=diagnostics)

    with _stage(stages, "verify"):
        residual = factorization_error(M, W_hat)
    diagnostics["seconds"] = time.perf_counter() - start
    return RecoveredFactors(W_hat=W_hat, success=residual == 0,
                            residual=residual,
                            failure=None if residual == 0 else "verification failed",
                            diagnostics=diagnostics)
