"""Dataset-recovery layer: synthetic mixed datasets, the moment estimator for
heavy coordinates, and the exact linear-system alternative.

A synthetic dataset replaces each private row by the entrywise absolute value
of a sum of k private rows; the selection matrix of those sums plays the role
of W, and its Boolean Gram matrix is exactly the similarity-oracle matrix.
Heavy coordinates are recovered from second moments via

    p_tilde' = (1/m) sum_i (w_i - (k-1)/(r-2) * 1) * z_i^2
    q_hat    = p_tilde' * r(r-1) / (k(r-2k+1))

followed by sqrt of the clamped q_hat to obtain magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RankDeficiencyError
from .instance import GramMatrix, SelectionMatrix, gen_selection_matrix, gram, save_csv
from .jennrich import RecoverConfig, RecoveredFactors, tensor_recover


@dataclass
class Dataset:
    """r x d matrix of original (private) vectors, one per row."""

    X: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or not np.all(np.isfinite(self.X)):
            raise ParameterError("dataset must be a finite 2-D matrix")

    @property
    def r(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def to_csv(self, path) -> None:
        save_csv(self.X.tolist(), path)


@dataclass
class SyntheticDataset:
    """m x d nonnegative matrix Z with row i = |sum of the selected rows of X|.

    The simulator keeps the generating W (attacker-facing code must not read
    it) but not the signed sums.
    """

    Z: np.ndarray
    W: SelectionMatrix = None

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=float)
        if not np.all(np.isfinite(self.Z)) or np.any(self.Z < 0):
            raise ParameterError("synthetic data must be finite and nonnegative")


def gen_instahide(X: Dataset, m: int, k: int, seed: int):
    """Simulate the mixing scheme: sample W, emit |W X| with W (not W X) and the Boolean Gram."""
    if k < 2 or k > X.r:
        raise ParameterError(f"need 2 <= k <= r, got k={k} r={X.r}")
    W = gen_selection_matrix(m, X.r, k, seed)
    Y = W.dense().astype(float) @ X.X
    synthetic = SyntheticDataset(Z=np.abs(Y), W=W)
    return synthetic, gram(W, "boolean")


def expected_square_inner(p, r: int, k: int) -> float:
    """E over a uniform k-subset S of <e_S, p>^2 (closed form)."""
    if r < 2:
        raise ParameterError("need r >= 2")
    if k > r:
        raise ParameterError("need k <= r")
    p = np.asarray(p, dtype=float)
    psum = float(p.sum())
    return (k * (r - k) / (r * (r - 1)) * float(p @ p)
            + k * (k - 1) / (r * (r - 1)) * psum ** 2)


def get_heavy_coordinates(W: SelectionMatrix, z) -> np.ndarray:
    """Magnitude estimates for the coordinates of p from z = |W p|.

    Accurate within 1 +- eta for coordinates whose magnitude is at least a
    constant multiple of (k/r) times the total absolute mass, once m is large
    enough for eta: eta sizes m and is not an input.  ``z`` may also be an
    (m, d) matrix |W P|; column j of the (r, d) result is then the estimate
    for column j of P.
    """
    r, k, m = W.r, W.k, W.m
    if r < 2 * k or r < 3:
        raise ParameterError(f"need r >= 2k and r >= 3, got r={r} k={k}")
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or len(z) != m:
        raise ParameterError(f"expected z with {m} rows, got shape {z.shape}")
    if np.any(z < 0):
        raise ParameterError("z must be nonnegative")
    z2 = z * z
    p_tilde = (W.dense().astype(float).T @ z2 - (k - 1) / (r - 2) * z2.sum(axis=0)) / m
    q_hat = p_tilde * (r * (r - 1)) / (k * (r - 2 * k + 1))
    return np.sqrt(np.clip(q_hat, 0.0, None))


def recover_dataset(M: GramMatrix, synthetic: SyntheticDataset, r: int, k: int,
                    recover_config: RecoverConfig = None):
    """Attack pipeline: factor M, then estimate each coordinate column.

    Returns (Dataset of magnitude estimates, report dict), or (None, report)
    when the factorization fails.  The report holds "success",
    "factorization" (the factorization's report) and, on failure,
    "failure".  The estimates are within 1 +- eta once m is large enough for
    eta; eta sizes m and is not an input.
    """
    Z = synthetic.Z
    if Z.ndim != 2 or Z.shape[0] != M.m:
        raise ParameterError(f"synthetic dataset has shape {Z.shape}, expected {M.m} rows")
    factors = tensor_recover(M, r, k, recover_config)
    if not factors.success:
        return None, {"success": False, "failure": factors.failure,
                      "factorization": factors.report()}
    X_hat = get_heavy_coordinates(factors.W_hat, Z)
    return Dataset(X=X_hat), {"success": True, "factorization": factors.report()}


def solve_exact(W: SelectionMatrix, Y) -> Dataset:
    """Least-squares solve of W X = Y per coordinate (exact when consistent)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != W.m:
        raise ParameterError(f"Y has {Y.shape[0]} rows, expected {W.m}")
    dense = W.dense().astype(float)
    if np.linalg.matrix_rank(dense) < W.r:
        raise RankDeficiencyError("selection matrix is column rank-deficient")
    X, *_ = np.linalg.lstsq(dense, Y, rcond=None)
    return Dataset(X=X)
