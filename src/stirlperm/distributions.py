"""Exact and asymptotic distributions for block counts and block sizes.

``S_n`` denotes the number of blocks of a uniformly random k-Stirling
permutation of order n.  All finite-n quantities are exact rationals computed
in integer arithmetic from the gap-insertion growth: label i+1 goes into one
of the ``k*i + 1`` gaps of an order-i word, and only the ``m + 1`` gaps
outside its m blocks open a new block.  The PMF is a dynamic program over
those gaps; the binomial moments and the martingale prefactor are ratios of
products over the gap counts.  The limit quantities (moments and density of
the scaled block count, stick-breaking law of the scaled block sizes) are
floating point, except the exact covariance of the Gaussian limit of the
(ascents, descents, plateaux) vector, which is read off the fixed-addition
urn of :mod:`stirlperm.urns`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from ._rng import as_generator
from .perms import count_k_stirling
from .urns import fixed_addition_covariance

if TYPE_CHECKING:
    import numpy as np


class ConvergenceError(ArithmeticError):
    """Series failed to reach the stopping tolerance within the term cap, or
    a limit value is too large for floating point."""


# natural log of the largest finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def rational_binomial(a, n: int) -> Fraction:
    """Generalized binomial coefficient ``binom(a, n)`` for rational ``a``.

    >>> rational_binomial(Fraction(5, 2), 2)
    Fraction(15, 8)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a = Fraction(a)
    prod = Fraction(1)
    for i in range(n):
        prod *= a - i
    return prod / math.factorial(n)


# ---------------------------------------------------------------------------
# block-count distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PmfTable:
    """Exact distribution of the block count ``S_n``: ``prob(m)`` for m=1..n."""

    n: int
    k: int
    probabilities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if sum(self.probabilities, Fraction(0)) != 1:
            raise ValueError("probabilities must sum to one")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be non-negative")

    def prob(self, m: int) -> Fraction:
        if not 1 <= m <= self.n:
            return Fraction(0)
        return self.probabilities[m - 1]

    def support(self) -> range:
        return range(1, self.n + 1)

    def to_rows(self) -> list[tuple[int, int, int, float]]:
        return [
            (m, p.numerator, p.denominator, float(p))
            for m, p in zip(self.support(), self.probabilities)
        ]


def block_count_pmf(n: int, k: int) -> PmfTable:
    """Exact PMF of the number of blocks of a random k-Stirling permutation.

    ``C_i(m)``, the number of order-i words with m blocks, follows the gap
    recurrence ``C_1(1) = 1``, ``C_{i+1}(m) = (k*i - m) C_i(m) + m C_i(m-1)``:
    of the ``k*i + 1`` gaps, ``m + 1`` lie outside the blocks and open a new
    one.  Then ``P{S_n = m} = C_n(m) / count_k_stirling(n, k)``.

    >>> block_count_pmf(2, 2).prob(1)
    Fraction(1, 3)
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    counts = [0, 1]  # counts[m] = C_i(m), starting at i = 1
    for i in range(1, n):
        counts.append(0)
        counts = [0] + [(k * i - m) * counts[m] + m * counts[m - 1] for m in range(1, i + 2)]
    total = sum(counts)
    return PmfTable(n, k, tuple(Fraction(c, total) for c in counts[1:]))


def block_binomial_moment(n: int, k: int, r: int) -> Fraction:
    """Exact binomial moment ``E binom(S_n + r, r)
    = prod_{j<n} (k*j + r + 1) / count_k_stirling(n, k)``.

    >>> block_binomial_moment(2, 2, 1)
    Fraction(8, 3)
    """
    if n < 1 or k < 1 or r < 0:
        raise ValueError("need n >= 1, k >= 1, r >= 0")
    return Fraction(math.prod(k * j + r + 1 for j in range(n)), count_k_stirling(n, k))


def _stirling_remainder(t: float) -> float:
    """``lgamma(t) - ((t - 1/2) log t - t + log(2 pi) / 2)``, to double
    precision for ``t >= 50``."""
    return 1 / (12 * t) - 1 / (360 * t**3) + 1 / (1260 * t**5)


def block_binomial_moment_float(n: int, k: int, r: int) -> float:
    """Floating-point ``E binom(S_n + r, r)``, for n far beyond the range
    where exact rational products are practical; within about 1e-14
    relative of the exact value, in O(1) time for ``n >= 50``.

    The moment is ``Gamma(n + a) Gamma(b) / (Gamma(n + b) Gamma(a))`` with
    ``a = (r + 1)/k``, ``b = 1/k``.  The log of the ratio of the two large
    gamma values is taken from Stirling's series in a form with no
    cancellation (their difference of two lgamma values loses about
    ``log2(n log n)`` bits); below ``n = 50`` it is the exact
    :func:`block_binomial_moment`, correctly rounded.
    """
    if n < 1 or k < 1 or r < 0:
        raise ValueError("need n >= 1, k >= 1, r >= 0")
    if n < 50:
        return float(block_binomial_moment(n, k, r))
    a, b = (r + 1) / k, 1 / k
    u, v = n + a, n + b
    # lgamma(u) - lgamma(v) = (v - 1/2) log(u/v) + (u - v)(log u - 1) + remainders
    log_ratio = (
        (v - 0.5) * math.log1p((a - b) / v)
        + (a - b) * (math.log(u) - 1)
        + _stirling_remainder(u)
        - _stirling_remainder(v)
    )
    return math.exp(log_ratio + math.lgamma(b) - math.lgamma(a))


def block_count_mean(n: int, k: int) -> Fraction:
    """Exact ``E S_n`` (first binomial moment minus one)."""
    return block_binomial_moment(n, k, 1) - 1


def martingale_scaling(n: int, k: int) -> Fraction:
    """Prefactor ``prod_{1<=j<n} (k*j + 1) / (k*j + 2)`` that turns
    ``S_n + 1`` into a martingale: ``E[c_n (S_n + 1)] = 2``."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return 2 / block_binomial_moment(n, k, 1)


# ---------------------------------------------------------------------------
# mean statistic profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanProfile:
    """Exact means of the statistics of a random k-Stirling permutation of
    order n, together with the matching tree-side slot means.

    ``j_ascent_mean`` applies to every j-ascent count with 1 <= j <= k and
    equals the j-descent means; ``j_plateau_mean`` applies for 1 <= j < k.
    ``interior_mean``/``exterior_mean`` are the per-slot means of a random
    (k+1)-ary increasing tree of order n.
    """

    n: int
    k: int
    ascents_mean: Fraction
    descents_mean: Fraction
    plateaux_mean: Fraction
    j_ascent_mean: Fraction
    j_plateau_mean: Fraction
    interior_mean: Fraction
    exterior_mean: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "ascents": str(self.ascents_mean),
            "descents": str(self.descents_mean),
            "plateaux": str(self.plateaux_mean),
            "jAscent": str(self.j_ascent_mean),
            "jPlateau": str(self.j_plateau_mean),
            "interiorBySlot": str(self.interior_mean),
            "exteriorBySlot": str(self.exterior_mean),
            "floats": {
                "ascents": float(self.ascents_mean),
                "descents": float(self.descents_mean),
                "plateaux": float(self.plateaux_mean),
                "jAscent": float(self.j_ascent_mean),
                "jPlateau": float(self.j_plateau_mean),
            },
        }


def mean_profile(n: int, k: int) -> MeanProfile:
    """Exact means: ``E X_n = E Y_n = (kn+1)/(k+1)``, ``E Z_n =
    (k-1)(kn+1)/(k+1)``, refined means ``(n-1)/(k+1)`` per interior slot and
    ``(kn+1)/(k+1)`` per exterior slot.

    >>> mean_profile(2, 2).ascents_mean
    Fraction(5, 3)
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    exterior = Fraction(k * n + 1, k + 1)
    interior = Fraction(n - 1, k + 1)
    return MeanProfile(
        n=n,
        k=k,
        ascents_mean=exterior,
        descents_mean=exterior,
        plateaux_mean=(k - 1) * exterior,
        j_ascent_mean=interior,
        j_plateau_mean=exterior,
        interior_mean=interior,
        exterior_mean=exterior,
    )


# ---------------------------------------------------------------------------
# limit law of the scaled block count
# ---------------------------------------------------------------------------


def zeta_moment(k: int, r: float) -> float:
    """Moments of the limit ``zeta`` of ``n^{-1/k} S_n``:
    ``E zeta^r = Gamma(r+2) Gamma(1 + 1/k) / Gamma(1 + (r+1)/k)``.

    >>> round(zeta_moment(2, 2), 12)
    4.0
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    log_moment = math.lgamma(r + 2) + math.lgamma(1 + 1 / k) - math.lgamma(1 + (r + 1) / k)
    if log_moment > _LOG_FLOAT_MAX:
        raise ConvergenceError(f"E zeta^{r} at k={k} is too large for floating point")
    return math.exp(log_moment)


class DensityValue(NamedTuple):
    value: float
    error_estimate: float


def zeta_density(k: int, x: float, term_cap: int = 500) -> DensityValue:
    """Density of the block-count limit at ``x > 0`` for ``k >= 2``:

    ``f(x) = (Gamma(1/k)/pi) sum_{j>=1} (-1)^{j-1} Gamma(j/k + 1)
    sin(pi j / k) x^j / j!``.

    Terms with ``k | j`` vanish exactly.  Summation stops once a term drops
    below ``1e-15`` of the partial sum in absolute value.  The error
    estimate combines the first omitted term with a cancellation bound of
    ``1e-14`` times the sum of absolute term values; for large ``x`` the
    alternating terms grow huge before decaying and the cancellation bound
    can dwarf the returned value, so callers should trust the result only
    when ``error_estimate`` is small relative to it.  Raises
    :class:`ConvergenceError` if the term cap is hit first, or if a term
    is too large for a float.
    """
    if k < 2:
        raise ValueError("the series form of the density needs k >= 2")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x < 0:
        raise ValueError("x must be non-negative")
    if term_cap < 1:
        raise ValueError("term_cap must be >= 1")
    if x == 0:
        return DensityValue(0.0, 0.0)
    prefactor = math.exp(math.lgamma(1 / k)) / math.pi
    log_x = math.log(x)

    def magnitude(j: int) -> float:
        log_mag = math.lgamma(j / k + 1) - math.lgamma(j + 1) + j * log_x
        if log_mag > _LOG_FLOAT_MAX:
            raise ConvergenceError(
                f"density series term {j} at x={x} is too large for floating point"
            )
        return math.exp(log_mag)

    total = 0.0
    absolute = 0.0
    for j in range(1, term_cap + 1):
        if j % k == 0:
            continue
        mag = magnitude(j)
        sine = math.sin(math.pi * (j % (2 * k)) / k)
        total += (-1) ** (j - 1) * sine * mag
        absolute += mag
        if j > 1 and mag <= 1e-15 * abs(total):
            error = prefactor * (magnitude(j + 1) + 1e-14 * absolute)
            if math.isinf(error):
                raise ConvergenceError(
                    f"density series terms at x={x} sum beyond floating point"
                )
            return DensityValue(prefactor * total, error)
    raise ConvergenceError(
        f"density series did not reach tolerance within {term_cap} terms at x={x}"
    )


# ---------------------------------------------------------------------------
# stick breaking / block-size limits
# ---------------------------------------------------------------------------


class StickBreakingSample(NamedTuple):
    """One draw of the stick-breaking limit of the label-ordered scaled block
    sizes: ``components[m-1] = beta_m * prod_{i<m} (1 - beta_i)`` with
    independent ``beta_m ~ Beta((k-1)/k, (m+1)/k)``; ``remainder`` is the
    unallocated mass after ``depth`` levels."""

    components: tuple[float, ...]
    remainder: float


def stick_breaking_sample(k: int, depth: int, seed=None) -> StickBreakingSample:
    """Sample the first ``depth`` stick-breaking components for parameter k.

    The decreasing rearrangement of the full sequence follows the
    Poisson--Dirichlet law PD(1/k, 1/k).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    row = _stick_breaking_rows(k, depth, 1, as_generator(seed))[0]
    return StickBreakingSample(tuple(float(c) for c in row[:-1]), float(row[-1]))


def _stick_breaking_rows(k: int, depth: int, count: int, rng) -> np.ndarray:
    """``count`` independent stick-breaking draws, one per row: the first
    ``depth`` components, then the remainder."""
    import numpy as np

    levels = np.arange(1, depth + 1)
    betas = rng.beta((k - 1) / k, (levels + 1) / k, size=(count, depth))
    stick = np.cumprod(1.0 - betas, axis=1)
    before = np.hstack([np.ones((count, 1)), stick[:, :-1]])
    return np.hstack([betas * before, stick[:, -1:]])


def tnormal_covariance(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact covariance matrix of the Gaussian limit of the centered and
    scaled (ascents, descents, plateaux) vector of a random k-Stirling
    permutation, in that row order: the limit of the fixed-addition urn
    with ``s = (1, 1, k-1)``, because inserting ``v^k`` into a gap removes
    that gap and adds one ascent, one descent and ``k-1`` plateaux.

    >>> tnormal_covariance(2)[0]
    (Fraction(1, 9), Fraction(-1, 18), Fraction(-1, 18))
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return fixed_addition_covariance((1, 1, k - 1)).covariance
