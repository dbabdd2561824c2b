"""Non-intersection probabilities and their inversion.

mu_t is the probability that a fresh uniform k-subset of [r] avoids a fixed
set of size t: mu_t = C(r-t, k) / C(r, k), kept in exact rationals.  A zero
co-occurrence count (m - popcount of the OR of packed Gram rows, or of
weighted words that each stand for several equal columns) inverts to the
union size whose mu is nearest to count/m through exact integer thresholds,
so no decision boundary is subject to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .instance import GramMatrix, _check_shape, _row_chunks

SAMPLE_CONST = 1.0  # leading constant of the sample-size bound


@dataclass(frozen=True)
class MuTable:
    r: int
    k: int
    values: tuple  # Fractions mu_0 .. mu_{t_max}

    @property
    def t_max(self) -> int:
        return len(self.values) - 1

    def gap_lower_bound(self, t: int) -> Fraction:
        """Explicit lower bound on mu_t - mu_{t+1} valid for t <= 3k, r >= 64k^2."""
        r, k = self.r, self.k
        return (Fraction(1) - Fraction((t + 1) * (k - 1), r - k + 2)) * Fraction(k, r - k + 1)

    def to_json(self) -> dict:
        return {"r": self.r, "k": self.k,
                "values": [f"{v.numerator}/{v.denominator}" for v in self.values]}


def mu_table(r: int, k: int, t_max: int = None) -> MuTable:
    """Exact table of mu_0 .. mu_{t_max}; default t_max = min(3k, r - k)."""
    _check_shape(r, k)
    if t_max is None:
        t_max = min(3 * k, r - k)
    if t_max < 0 or t_max > r:
        raise ParameterError(f"need 0 <= t_max <= r, got {t_max}")
    denom = math.comb(r, k)
    values = tuple(Fraction(math.comb(r - t, k), denom) for t in range(t_max + 1))
    return MuTable(r=r, k=k, values=values)


def invert_fraction(frac, table: MuTable) -> int:
    """Union size whose mu value is closest to ``frac``; ties go to smaller t."""
    frac = Fraction(frac)
    best_t, best_err = 0, None
    for t, mu in enumerate(table.values):
        err = abs(mu - frac)
        if best_err is None or err < best_err:
            best_t, best_err = t, err
    return best_t


def _zero_count(union: np.ndarray, m: int, weights: np.ndarray) -> np.ndarray:
    """m minus the popcount of the packed words on union's last axis, word w
    weighing the float32 weights[w], as a float32 product, exact as its
    partial sums are integers <= m < 2^24.  An m of 2^24 or more would take
    a packed Gram of at least 32 TiB."""
    return (m - np.bitwise_count(union) @ weights).astype(np.int64)


def zero_counts(bits: np.ndarray, m: int, rows_a, rows_b=None,
                weights=None) -> np.ndarray:
    """Zero co-occurrence counts of the pairs rows_a x rows_b of packed rows
    (default: all), chunked over rows_a: ``_zero_count`` of each pair's OR,
    word w weighing weights[w] (default 1)."""
    weights = np.ones(bits.shape[1], np.float32) if weights is None else weights.astype(np.float32)
    B = bits if rows_b is None else bits[list(rows_b)]
    rows_a = np.asarray(rows_a, dtype=np.intp)
    out = np.empty((len(rows_a), len(B)), dtype=np.int64)
    for lo, hi in _row_chunks(len(rows_a), B.size):
        A = bits[rows_a[lo:hi]]
        out[lo:hi] = _zero_count(A[:, None, :] | B[None, :, :], m, weights)
    return out


def invert_counts(counts, m: int, table: MuTable) -> np.ndarray:
    """Union sizes of zero co-occurrence counts out of m, the one place where
    a count becomes a union size: the number of exact integer thresholds
    ceil(m * (mu_t + mu_{t+1}) / 2), taken on the table's Fractions, strictly
    above each count.  Equal to invert_fraction(count / m, table) entrywise,
    ties at midpoints going to the smaller union size."""
    mu = table.values
    thresholds = np.array([math.ceil(m * (mu[t] + mu[t + 1]) / 2)
                           for t in reversed(range(table.t_max))], dtype=np.int64)
    out = np.searchsorted(thresholds, counts, side="right")
    return np.subtract(table.t_max, out, out=out)


def union_block(M: GramMatrix, table: MuTable, rows_a, rows_b=None) -> np.ndarray:
    """Union sizes for the row block rows_a x rows_b (default: all rows)."""
    return invert_counts(zero_counts(M.bits, M.m, rows_a, rows_b), M.m, table)


def required_sample_size(r: int, k: int, t: int, delta: float) -> int:
    """Smallest m with m >= SAMPLE_CONST * (t^2 r / k) * ln(m^3 / delta),
    floored at 1, by fixed-point iteration from m = 1: the bound increases in
    m, so m rises strictly and never passes the least solution.  The constant
    is calibrated by the acceptance experiments, which run at this m."""
    _check_shape(r, k)
    if not 0 < delta < 1:
        raise ParameterError(f"need 0 < delta < 1, got {delta}")
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    coef = SAMPLE_CONST * t * t * r / k
    m = 1
    while m < (bound := coef * math.log(m ** 3 / delta)):
        m = math.ceil(bound)
    return m
