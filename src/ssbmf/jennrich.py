"""Simultaneous-diagonalization decomposition of the intersection tensor and
the full recovery pipeline: decompose, round to Boolean columns, extend from
an anchor subset to all rows, and verify against the input Gram matrix.

The decomposition is Jennrich's algorithm with the second contraction fixed
to T(I, I, 1) = A diag(d) A^T, positive semidefinite of rank r.  Its top r
eigenpairs (s, U) whiten each random contraction T(I, I, v) into the
symmetric r x r matrix (U/sqrt(s))^T T(I, I, v) (U/sqrt(s)); U*sqrt(s) lifts
its eigenvectors back to the components (Anandkumar, Ge, Hsu, Kakade and
Telgarsky, arXiv 1210.7559).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegeneracyError, ExtensionError, ParameterError,
                     RankDeficiencyError, RoundingError, SsbmfError)
from .instance import (_WORD, GramMatrix, SelectionMatrix, _check_anchors, _check_shape,
                       _is_int, _pack, _rng, _row_chunks, _unpack, factorization_error,
                       n_words)
from .mu import mu_table, union_block
from .tensor import IntersectionTensor, build_tensor, contract

SV_CUTOFF = 1e-8  # relative eigenvalue of T(I, I, 1) below which a direction is noise
GAP_TOL = 1e-6  # relative eigen-gap below which eigenvectors are not determined
RETRIES = 5  # random contractions tried before a collision is reported
ROUND_TOL = 0.25  # a scaled entry this far from {0, 1} was not recovered
# carried by timed reports
REPORTED_DIAGNOSTICS = ("fallback_rows", "decode_passes", "undecided_rows", "eigen_gap")


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
    provided the components are linearly independent: each attempt whitens
    one random contraction by T(I, I, 1) = A diag(d) A^T, d_i the block rows
    holding column i, and lifts each eigenvector to one sqrt(d_i) A_i.  Raises
    RankDeficiencyError, before any random draw, if T(I, I, 1) has numerical
    rank < r and DegeneracyError if eigenvalue collisions persist across all
    retries.
    """
    if T.block is None:
        raise ParameterError("decomposition requires a materialized tensor")
    n = T.block.shape[0]
    if r > n:
        raise ParameterError(f"r={r} exceeds tensor dimension {n}")
    s, U = np.linalg.eigh(contract(T, np.ones(n)))  # ascending
    rank = int(np.sum(s > SV_CUTOFF * s[-1])) if s[-1] > 0 else 0
    if rank < r:
        raise RankDeficiencyError(f"contraction has numerical rank {rank} < r={r}")
    s, U = s[-r:], U[:, -r:]
    white, lift = U / np.sqrt(s), U * np.sqrt(s)
    rng = _rng(seed, 0x7e45)
    for attempt in range(RETRIES):
        v = rng.normal(size=n)
        evals, evecs = np.linalg.eigh(white.T @ contract(T, v / np.linalg.norm(v)) @ white)
        scale = np.max(np.abs(evals))
        last_gap = float(np.min(np.diff(evals), initial=np.inf))
        if scale == 0 or last_gap < GAP_TOL * scale:
            continue
        if diagnostics is not None:
            diagnostics["retries"] = attempt
            diagnostics["eigen_gap"] = last_gap / scale
        lifted = lift @ evecs
        return list((lifted / np.linalg.norm(lifted, axis=0)).T)
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


def _decode_passes(candidates: np.ndarray, undecided: np.ndarray, M: GramMatrix, k: int):
    """Iterate the decode with every decoded row as a test, in place on the
    (m, r) candidate flags: returns (rows still undecided, passes run).

    holders[j] packs the decoded rows holding j (the rows with exactly k
    candidates).  A pass drops candidate j of an undecided row a when some
    holder of j does not meet S_a, i.e. holders[j] & ~M[a] has a set bit,
    reading only the undecided rows' candidate pairs.  Candidates only
    shrink, and for an exact M every decoded row holding a column of S_a
    meets a, so S_a survives.  The passes stop when no row is undecided or
    when one decodes no new row, after which another would drop nothing.
    """
    passes = 1  # the anchor pass
    if not len(undecided):
        return undecided, passes
    m, r = candidates.shape
    words = n_words(m)
    decoded = np.ones(m, dtype=bool)
    decoded[undecided] = False
    packed = np.zeros((r, 8 * words), dtype=np.uint8)
    packed[:, : (m + 7) // 8] = np.packbits(candidates, axis=0, bitorder="little").T
    holders = packed.view(_WORD) & _pack(decoded[None])
    while len(undecided):
        passes += 1
        rows, cols = np.nonzero(candidates[undecided])
        rows = undecided[rows]
        drop = np.empty(len(rows), dtype=bool)
        for lo, hi in _row_chunks(len(rows), words):
            missed = np.invert(M._words(rows[lo:hi]))
            missed &= holders[cols[lo:hi]]
            drop[lo:hi] = missed.any(axis=1)
        candidates[rows[drop], cols[drop]] = False
        done = np.count_nonzero(candidates[undecided], axis=1) == k
        if not done.any():
            break
        new, undecided = undecided[done], undecided[~done]
        rows, cols = np.nonzero(candidates[new])
        rows = new[rows]
        np.bitwise_or.at(holders, (cols, rows >> 6),
                         np.left_shift(_WORD.type(1), (rows & 63).astype(_WORD)))
    return undecided, passes


def extend_from_anchors(anchor_block: np.ndarray, anchor_indices,
                        M: GramMatrix, k: int, diagnostics: dict = None) -> SelectionMatrix:
    """Fill in the non-anchor rows of W from the recovered anchor block.

    Decode (COMP, from group testing): column j is a candidate for row a
    when every anchor holding j meets S_a, as column a of M's anchor rows
    tells (M is symmetric), read as one AND of their packed words per j.
    S_a is among the candidates, so a row with exactly k of them is S_a.
    The rows this anchor pass leaves undecided (``diagnostics
    ["fallback_rows"]`` counts them) go through further passes that use
    every decoded row as a test (``_decode_passes``; ``decode_passes``
    counts all passes, the anchor pass included).  Each row still undecided
    (``undecided_rows``) is the rounded least-squares solution of (anchor
    block) x = c for c_ab = 2k - |S_a cup S_b| (mu-inverted from M),
    re-checked exactly; a failing row raises ExtensionError naming the
    lowest such row.  An anchor index that is not an integer in [0, m)
    raises IndexError, and an empty anchor set, or one whose size is not the
    block's row count, ParameterError, before M is read.
    """
    anchor_indices = np.asarray(_check_anchors(M.m, anchor_indices), dtype=np.intp)
    anchor_block = np.asarray(anchor_block, dtype=float)
    if anchor_block.ndim != 2:
        raise ParameterError(f"the anchor block must be 2-D, got shape {anchor_block.shape}")
    n0, r = anchor_block.shape
    if n0 < r:
        raise ParameterError(f"need at least r={r} anchors, got {n0}")
    if len(anchor_indices) != n0:
        raise ParameterError(f"got {len(anchor_indices)} anchor indices for {n0} block rows")
    if np.linalg.matrix_rank(anchor_block) < r:
        raise RankDeficiencyError("anchor block is column rank-deficient")
    held = anchor_block > 0.5
    sparse = held.sum(axis=1) == k
    if not sparse.all():
        a = int(anchor_indices[np.argmin(sparse)])
        raise ExtensionError(f"anchor row {a} is not {k}-sparse")
    # Bit a of anchor row b is M[b, a]: the AND of the anchor rows holding j
    # (at least one, by the rank check) marks the rows with candidate j.
    anchor_rows = M._words(anchor_indices)
    rounded = _unpack(np.stack([np.bitwise_and.reduce(anchor_rows[held[:, j]])
                                for j in range(r)]), M.m).T == 1
    rounded[anchor_indices] = held
    rest = np.flatnonzero(np.count_nonzero(rounded, axis=1) != k)  # increasing
    fallback_rows = len(rest)
    rest, passes = _decode_passes(rounded, rest, M, k)
    if diagnostics is not None:
        diagnostics.update(fallback_rows=fallback_rows, decode_passes=passes,
                           undecided_rows=len(rest))
    counts = 2 * k - union_block(M, mu_table(r, k), rest, anchor_indices)
    if len(rest):  # most calls decode every row, and the pseudo-inverse is then unused
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
    return SelectionMatrix(m=M.m, r=r, k=k, rows=(np.flatnonzero(rounded) % r).reshape(M.m, k))


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
    _check_shape(r, k)
    m = M.m
    if config.anchors is None and m < r:
        raise ParameterError(f"m={m} rows are fewer than r={r}; recovery needs at least r rows")
    n0 = min(m, max(4 * r, r + 16)) if config.anchors is None else config.anchors
    if not (_is_int(n0) and r <= n0 <= m):
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
