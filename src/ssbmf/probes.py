"""Exact and empirical probes of the linear-independence theory: binary
Krawtchouk polynomials, parity probabilities, ranks over F2 / Z_p / the
rationals, singularity-frequency experiments, fibre statistics, and
anti-concentration estimates.

All closed-form quantities are computed in exact integer or rational
arithmetic; Monte-Carlo probes report Wilson confidence intervals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .instance import SelectionMatrix, _floyd_subsets, _rng, gen_selection_matrix, split_seed

# A 31-bit prime: products of two residues fit in int64, which keeps the
# modular elimination fully vectorized.
RANK_PRIME = 2147483647
WILSON_Z = 1.96  # normal quantile of the 95% Wilson interval
ENVELOPE_CONST = 3.0  # constant of the anti-concentration envelope


def krawtchouk(r: int, k: int, lam: int) -> int:
    """Binary Krawtchouk polynomial K_k^r(lam), exact integer."""
    if not (0 <= lam <= r and 0 <= k <= r):
        raise ParameterError(f"need 0 <= lam, k <= r, got r={r} k={k} lam={lam}")
    return sum((-1) ** i * math.comb(lam, i) * math.comb(r - lam, k - i)
               for i in range(k + 1))


def f2_zero_probability(r: int, k: int, lam: int) -> Fraction:
    """Pr over a uniform k-sparse w that <w, u> is even, |u| = lam.

    Computed as the full even-overlap sum i = 0..k (the identity
    1/2 + K_k^r(lam) / (2 C(r, k)) holds for lam >= 1).
    """
    if not 0 <= lam <= r:
        raise ParameterError(f"need 0 <= lam <= r, got lam={lam} r={r}")
    if not 1 <= k <= r:
        raise ParameterError(f"need 1 <= k <= r, got k={k} r={r}")
    total = sum(math.comb(lam, i) * math.comb(r - lam, k - i)
                for i in range(0, k + 1, 2))
    return Fraction(total, math.comb(r, k))


@dataclass
class RankReport:
    rank_f2: int
    rank_modq: dict
    rank_real: int
    notes: list = field(default_factory=list)


def rank_f2(W: SelectionMatrix) -> int:
    """Column rank over F2 by bit-packed elimination on the r-bit row masks."""
    pivots = []
    rank = 0
    for support in W.rows:
        row = sum(1 << j for j in support)
        for piv in pivots:
            low = piv & -piv
            if row & low:
                row ^= piv
        if row:
            pivots.append(row)
            rank += 1
            if rank == W.r:
                break
    return rank


def rank_modp(matrix: np.ndarray, p: int) -> int:
    """Rank over Z_p by vectorized Gaussian elimination (p < 2^31.5)."""
    A = np.asarray(matrix, dtype=np.int64) % p
    nrow, ncol = A.shape
    rank = 0
    for col in range(ncol):
        nz = np.nonzero(A[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, col]), p - 2, p)
        A[rank] = A[rank] * inv % p
        rest = np.nonzero(A[rank + 1:, col])[0] + rank + 1
        if rest.size:
            A[rest] = (A[rest] - A[rest, col][:, None] * A[rank][None, :]) % p
        rank += 1
        if rank == nrow:
            break
    return rank


def rank_exact(matrix) -> int:
    """Exact rank over the rationals by fraction-free (Bareiss) elimination."""
    A = [[int(x) for x in row] for row in np.asarray(matrix)]
    nrow = len(A)
    ncol = len(A[0]) if nrow else 0
    rank = 0
    prev = 1
    for col in range(ncol):
        piv = next((i for i in range(rank, nrow) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(rank + 1, nrow):
            for j in range(col + 1, ncol):
                A[i][j] = (A[rank][col] * A[i][j] - A[i][col] * A[rank][j]) // prev
            A[i][col] = 0
        prev = A[rank][col]
        rank += 1
        if rank == nrow:
            break
    return rank


def rank_report(W: SelectionMatrix, primes=()) -> RankReport:
    """Ranks over F2, each requested prime modulus, and the rationals.

    Each requested modulus must be a prime p < 2^31.5 (ParameterError).  The
    rational rank is first the rank mod RANK_PRIME, a lower bound that
    certifies a full rank; when that is not full and r <= 200, it is
    certified exact by fraction-free elimination.
    """
    primes = [int(q) for q in primes]
    for q in primes:
        if not 2 <= q <= 3037000499 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
            raise ParameterError(f"modulus {q} is not a prime below 2^31.5")
    dense = W.dense()
    f2 = rank_f2(W)
    modq = {q: rank_modp(dense, q) for q in primes}
    real = rank_modp(dense, RANK_PRIME)
    notes = [f"modular prime: {RANK_PRIME}"]
    if real < min(W.m, W.r) and W.r <= 200:
        real = rank_exact(dense)
        notes.append("certified by fraction-free elimination")
    return RankReport(rank_f2=f2, rank_modq=modq, rank_real=real, notes=notes)


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def singularity_experiment(m: int, r: int, k: int, trials: int,
                           seed: int = 0) -> dict:
    """Fraction of random instances with full column rank, per rank notion."""
    if trials < 1:
        raise ParameterError("need trials >= 1")
    full = min(m, r)
    hits = {"f2": 0, "real": 0}
    for t in range(trials):
        report = rank_report(gen_selection_matrix(m, r, k, split_seed(seed, t)))
        hits["f2"] += report.rank_f2 == full
        hits["real"] += report.rank_real == full
    out = {"m": m, "r": r, "k": k, "trials": trials}
    for name, count in hits.items():
        low, high = wilson_interval(count, trials)
        out[name] = {"frequency": count / trials, "ci_low": low, "ci_high": high}
    return out


def krawtchouk_bound_check(r: int, k: int) -> dict:
    """Verify |K_k^r(lam)| <= C(r, k) (1 - 2k/r)^lam for all lam <= r/2.

    Exact rational arithmetic for 1 <= k <= 0.16 r; reports the first
    violating lam if any.
    """
    if not 1 <= k <= Fraction(16, 100) * r:
        raise ParameterError(f"need 1 <= k <= 0.16 r, got k={k} r={r}")
    base = Fraction(r - 2 * k, r)
    bound = Fraction(math.comb(r, k))
    for lam in range(0, r // 2 + 1):
        if abs(krawtchouk(r, k, lam)) > bound:
            return {"r": r, "k": k, "ok": False, "first_violation": lam}
        bound_next = bound * base
        bound = bound_next
    return {"r": r, "k": k, "ok": True, "first_violation": None}


def fibre_stats(x) -> tuple:
    """(largest multiplicity of any value, number of nonzero entries)."""
    x = list(x)
    if not x:
        return 0, 0
    counts = {}
    for v in x:
        counts[v] = counts.get(v, 0) + 1
    return max(counts.values()), sum(1 for v in x if v != 0)


def anticoncentration_estimate(x, r: int, k: int, q="real", samples: int = 10000,
                               seed: int = 0) -> dict:
    """Monte-Carlo max-atom estimate of <w, x> over uniform k-sparse w.

    ``q`` is "real" or an integer modulus >= 2 (a digit string too).
    Reports whether the estimate stays below ENVELOPE_CONST * sqrt(r / (s k))
    for the measured non-fibre size s.
    """
    if samples < 1:
        raise ParameterError("need samples >= 1")
    if not 1 <= k <= r:
        raise ParameterError(f"need 1 <= k <= r, got k={k} r={r}")
    if q != "real" and not (str(q).isdigit() and int(q) >= 2):
        raise ParameterError(f"q must be 'real' or an integer >= 2, got {q!r}")
    x = np.asarray(x)
    if x.shape != (r,):
        raise ParameterError(f"expected a length-{r} vector")
    sums = x[_floyd_subsets(_rng(seed, 0xa7c0), samples, r, k)].sum(axis=1)
    values = np.round(sums.astype(float), 12) if q == "real" else sums.astype(np.int64) % int(q)
    max_atom = int(np.unique(values, return_counts=True)[1].max()) / samples
    largest_fibre, _ = fibre_stats(x.tolist())
    s = r - largest_fibre
    envelope = (ENVELOPE_CONST * math.sqrt(r / (s * k))) if s > 0 else 1.0
    return {"max_atom": max_atom, "s": s, "envelope": min(1.0, envelope),
            "within_envelope": max_atom <= min(1.0, envelope) + 1e-12}


def enumerate_zero_probability(r: int, k: int, lam: int) -> Fraction:
    """Brute-force parity probability over all C(r, k) supports (test oracle)."""
    fixed = set(range(lam))
    hits = sum(1 for sup in itertools.combinations(range(r), k)
               if len(fixed.intersection(sup)) % 2 == 0)
    return Fraction(hits, math.comb(r, k))
