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
from .instance import GramMatrix, _row_chunks


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
    if k < 1 or k > r:
        raise ParameterError(f"need 1 <= k <= r, got r={r} k={k}")
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


def zero_counts(bits: np.ndarray, m: int, rows_a, rows_b=None, extra=None,
                weights=None) -> np.ndarray:
    """Zero co-occurrence counts of the pairs rows_a x rows_b of packed rows
    (default: all), or of the triples (a, b, extra), chunked over rows_a: m
    minus the popcount of the OR, word w weighing weights[w] (default 1), as a
    float32 product, exact as its partial sums are integers <= m < 2^24.  An
    m of 2^24 or more would take a packed Gram of at least 32 TiB."""
    weights = np.ones(bits.shape[1], np.float32) if weights is None else weights.astype(np.float32)
    B = bits if rows_b is None else bits[list(rows_b)]
    rows_a = np.asarray(rows_a, dtype=np.intp)
    out = np.empty((len(rows_a), len(B)), dtype=np.int64)
    for lo, hi in _row_chunks(len(rows_a), B.size):
        A = bits[rows_a[lo:hi]]
        if extra is not None:
            A |= bits[extra]
        union = A[:, None, :] | B[None, :, :]
        out[lo:hi] = m - np.bitwise_count(union) @ weights
    return out


def count_thresholds(m: int, table: MuTable) -> np.ndarray:
    """Ascending ceil(m * (mu_t + mu_{t+1}) / 2) over t, in exact integers: a
    count inverts to the number of thresholds strictly above it."""
    r, k = table.r, table.k
    denom = 2 * math.comb(r, k)
    out = [-(-m * (math.comb(r - t, k) + math.comb(r - t - 1, k)) // denom)
           for t in range(table.t_max)]
    return np.array(out[::-1], dtype=np.int64)


def invert_counts(counts, thresholds: np.ndarray) -> np.ndarray:
    """Vectorized inversion of zero-co-occurrence counts to union sizes through
    ``thresholds = count_thresholds(m, table)``, which callers build once;
    equal to invert_fraction(count / m, table) entrywise, ties at midpoints
    going to the smaller union size."""
    out = np.searchsorted(thresholds, counts, side="right")
    return np.subtract(len(thresholds), out, out=out)


def union_block(M: GramMatrix, table: MuTable, rows_a, rows_b=None) -> np.ndarray:
    """Union sizes for the row block rows_a x rows_b (default: all rows)."""
    return invert_counts(zero_counts(M.bits, M.m, rows_a, rows_b),
                         count_thresholds(M.m, table))


def required_sample_size(r: int, k: int, t: int, delta: float, c0: float = 1.0) -> int:
    """Smallest m with m >= c0 * (t^2 r / k) * ln(m^3 / delta), floored at 1.

    The leading constant is exposed as a knob; the default is calibrated by
    the acceptance experiments.
    """
    if not 1 <= k <= r:
        raise ParameterError(f"need 1 <= k <= r, got r={r} k={k}")
    if not 0 < delta < 1:
        raise ParameterError(f"need 0 < delta < 1, got {delta}")
    if t < 1:
        raise ParameterError(f"need t >= 1, got {t}")
    coef = c0 * t * t * r / k

    def satisfied(m):
        return m >= coef * math.log(m ** 3 / delta)

    hi = 1
    while not satisfied(hi):
        hi *= 2
        if hi > 1 << 60:
            raise ParameterError("sample-size bound does not converge")
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi
