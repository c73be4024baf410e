"""Closed-form laws against enumeration, plus the limit objects (moments,
density, stick-breaking, covariance of the limiting triple)."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from stirlperm import distributions as dist
from stirlperm import perms, trees, urns


# ---------------------------------------------------------------------------
# rational binomials
# ---------------------------------------------------------------------------


@given(st.integers(0, 40), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_rational_binomial_matches_comb_on_integers(a, n):
    assert dist.rational_binomial(Fraction(a), n) == math.comb(a, n) if a >= n else True
    if a >= n:
        assert dist.rational_binomial(Fraction(a), n) == math.comb(a, n)


@given(
    st.fractions(min_value=-5, max_value=9, max_denominator=7),
    st.integers(1, 10),
)
@settings(max_examples=80, deadline=None)
def test_rational_binomial_pascal_rule(a, n):
    lhs = dist.rational_binomial(a, n)
    rhs = dist.rational_binomial(a - 1, n) + dist.rational_binomial(a - 1, n - 1)
    assert lhs == rhs


def test_rational_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        dist.rational_binomial(Fraction(1, 2), -1)


# ---------------------------------------------------------------------------
# block count PMF and moments
# ---------------------------------------------------------------------------


def _enumerated_block_counts(n: int, k: int) -> Counter:
    return Counter(
        perms.block_decomposition(p).count for p in perms.enumerate_k_stirling(n, k)
    )


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
def test_block_count_pmf_matches_enumeration(n, k):
    counts = _enumerated_block_counts(n, k)
    total = sum(counts.values())
    table = dist.block_count_pmf(n, k)
    assert set(table.support()) == {m for m in range(1, n + 1)}
    for m in range(1, n + 1):
        assert table.prob(m) == Fraction(counts.get(m, 0), total), (n, k, m)


def test_block_count_pmf_anchor():
    assert dist.block_count_pmf(2, 2).prob(1) == Fraction(1, 3)


def test_pmf_table_validation():
    with pytest.raises(ValueError):
        dist.PmfTable(2, 2, (Fraction(1, 2), Fraction(1, 3)))


@pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_binomial_moment_matches_enumeration(n, k, r):
    counts = _enumerated_block_counts(n, k)
    total = sum(counts.values())
    direct = sum(Fraction(math.comb(m + r, r) * c, total) for m, c in counts.items())
    assert dist.block_binomial_moment(n, k, r) == direct


def test_binomial_moment_anchor():
    assert dist.block_binomial_moment(2, 2, 1) == Fraction(8, 3)


def test_binomial_moment_float_tracks_exact():
    for n, k, r in [(5, 2, 1), (12, 3, 2), (30, 2, 3)]:
        exact = float(dist.block_binomial_moment(n, k, r))
        approx = dist.block_binomial_moment_float(n, k, r)
        assert approx == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_binomial_moment_float_is_close_on_both_sides_of_the_series(k):
    """Below n = 50 the quotient of exact products, from n = 50 Stirling's
    series: both within 1e-13 relative of the exact moment."""
    for n in (1, 2, 49, 50, 51, 64, 300, 1000, 3000):
        for r in range(5):
            exact = float(dist.block_binomial_moment(n, k, r))
            assert dist.block_binomial_moment_float(n, k, r) == pytest.approx(exact, rel=1e-13)


def test_binomial_moment_float_handles_large_n():
    value = dist.block_binomial_moment_float(10**6, 2, 1)
    # grows like n^{1/k} times Gamma(1+1/k)-ratio constants; sanity bounds only
    assert 100 < value < 10**4


def test_block_count_mean_via_moment():
    for n, k in [(3, 2), (5, 2), (4, 3)]:
        assert dist.block_count_mean(n, k) == dist.block_binomial_moment(n, k, 1) - 1


def test_martingale_scaling_exact_expectation():
    for n, k in [(2, 2), (5, 2), (6, 3)]:
        table = dist.block_count_pmf(n, k)
        scaled = sum(
            dist.martingale_scaling(n, k) * (m + 1) * table.prob(m)
            for m in table.support()
        )
        assert scaled == 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(1, 26))
def test_block_count_pmf_matches_alternating_closed_form(n, k):
    assert list(dist.block_count_pmf(n, k).probabilities) == (
        oracles.block_count_pmf_alternating(n, k)
    )


@pytest.mark.parametrize("r", range(5))
@pytest.mark.parametrize("n", range(1, 31))
def test_binomial_moment_product_matches_both_binomial_forms(n, r):
    for k in range(1, 5):
        first, second = oracles.block_binomial_moment_forms(n, k, r)
        assert dist.block_binomial_moment(n, k, r) == first == second, (n, k, r)


def test_moments_match_their_gap_products():
    """The moment's denominator is the k-Stirling count, the float moment
    below n = 50 is the exact one rounded, and the martingale prefactor is
    two over the first moment: each equals the quotient of its own products,
    to the same Fraction and the same float bits."""
    for n in range(1, 60):
        for k in range(1, 6):
            for r in range(5):
                top, bottom = oracles.block_binomial_moment_products(n, k, r)
                exact = dist.block_binomial_moment(n, k, r)
                assert exact == Fraction(top, bottom)
                if n < 50:
                    got = dist.block_binomial_moment_float(n, k, r).hex()
                    assert got == (top / bottom).hex() == float(exact).hex(), (n, k, r)
            assert dist.martingale_scaling(n, k) == oracles.martingale_scaling_product(n, k)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_martingale_scaling_product_matches_binomial_form(n):
    for k in range(1, 5):
        assert dist.martingale_scaling(n, k) == oracles.martingale_scaling_binomial(n, k)


def test_block_count_pmf_at_large_order():
    table = dist.block_count_pmf(300, 2)
    assert sum(table.probabilities) == 1
    mean = sum(m * table.prob(m) for m in table.support())
    assert mean == dist.block_count_mean(300, 2)


# ---------------------------------------------------------------------------
# mean statistic profile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 2), (3, 2), (5, 2), (2, 3), (4, 3)])
def test_mean_profile_matches_enumeration(n, k):
    words = list(perms.enumerate_k_stirling(n, k))
    stats = [perms.stat_profile(w) for w in words]
    total = len(words)
    prof = dist.mean_profile(n, k)
    assert prof.ascents_mean == Fraction(sum(s.ascents for s in stats), total)
    assert prof.descents_mean == Fraction(sum(s.descents for s in stats), total)
    assert prof.plateaux_mean == Fraction(sum(s.plateaux for s in stats), total)
    # every refined index shares one mean
    for j in range(1, k + 1):
        assert prof.j_ascent_mean == Fraction(
            sum(s.j_ascents[j - 1] for s in stats), total
        )
        assert prof.j_ascent_mean == Fraction(
            sum(s.j_descents[j - 1] for s in stats), total
        )
    for j in range(1, k):
        assert prof.j_plateau_mean == Fraction(
            sum(s.j_plateaux[j - 1] for s in stats), total
        )


def test_mean_profile_closed_forms():
    for n, k in [(4, 2), (7, 3), (10, 4)]:
        prof = dist.mean_profile(n, k)
        assert prof.ascents_mean == Fraction(k * n + 1, k + 1)
        assert prof.descents_mean == Fraction(k * n + 1, k + 1)
        assert prof.plateaux_mean == Fraction((k - 1) * (k * n + 1), k + 1)
        assert prof.j_ascent_mean == Fraction(n - 1, k + 1)
        assert prof.j_plateau_mean == Fraction(k * n + 1, k + 1)
        assert prof.interior_mean + prof.exterior_mean == n


def test_mean_profile_json_dict():
    d = dist.mean_profile(3, 2).to_json_dict()
    assert d["ascents"] == "7/3"
    assert d["floats"]["ascents"] == pytest.approx(7 / 3)


# ---------------------------------------------------------------------------
# limit moments and density
# ---------------------------------------------------------------------------


def test_zeta_moment_anchors():
    assert dist.zeta_moment(2, 1) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert dist.zeta_moment(2, 2) == pytest.approx(4.0, rel=1e-12)
    # independent gamma-function route
    for k, r in [(3, 1), (3, 2), (4, 3)]:
        expect = (
            math.gamma(r + 2) * math.gamma(1 + 1 / k) / math.gamma(1 + (r + 1) / k)
        )
        assert dist.zeta_moment(k, r) == pytest.approx(expect, rel=1e-12)


def test_zeta_moment_validation():
    with pytest.raises(ValueError):
        dist.zeta_moment(0, 1)
    with pytest.raises(ValueError):
        dist.zeta_moment(2, -1)
    assert dist.zeta_moment(3, 0) == pytest.approx(1.0)


def test_zeta_density_closed_form_k2():
    for x in (0.05, 0.3, 1.0, 2.2, 3.7):
        expect = 0.5 * x * math.exp(-x * x / 4)
        got = dist.zeta_density(2, x)
        assert got.value == pytest.approx(expect, rel=1e-10)
        assert got.error_estimate < 1e-8


def test_zeta_density_integrates_to_one():
    total, _ = integrate.quad(lambda x: dist.zeta_density(2, x).value, 0, 8, limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)
    # k = 3 has more mass in the tail; 12 is still inside the range where the
    # series keeps absolute accuracy well below the tolerance
    total3, _ = integrate.quad(lambda x: dist.zeta_density(3, x).value, 0, 12, limit=200)
    assert total3 == pytest.approx(1.0, abs=1e-4)


def test_zeta_density_first_moment():
    mean, _ = integrate.quad(
        lambda x: x * dist.zeta_density(2, x).value, 0, 8, limit=200
    )
    assert mean == pytest.approx(math.sqrt(math.pi), abs=1e-3)


def test_zeta_density_edge_cases():
    zero = dist.zeta_density(2, 0.0)
    assert zero.value == 0.0 and zero.error_estimate == 0.0
    with pytest.raises(ValueError):
        dist.zeta_density(2, -0.1)
    with pytest.raises(dist.ConvergenceError):
        dist.zeta_density(2, 40.0)
    with pytest.raises(ValueError):
        dist.zeta_density(1, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_zeta_density_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match=f"x must be finite, got {x}"):
        dist.zeta_density(2, x)


@pytest.mark.parametrize(
    "k,x,term_cap", [(2, 1000.0, 500), (3, 200.0, 500), (5, 1000.0, 500), (3, 150.0, 2000)]
)
def test_zeta_density_beyond_float_range_is_convergence_error(k, x, term_cap):
    # a term (or the sum of term magnitudes) too large for a float is a
    # failure to converge, not an OverflowError or an infinite error estimate
    with pytest.raises(dist.ConvergenceError, match="floating point"):
        dist.zeta_density(k, x, term_cap=term_cap)


def test_zeta_density_error_estimate_flags_cancellation():
    # at x = 10 (k = 2) the alternating series loses all significant digits;
    # the estimate must not pretend otherwise
    v = dist.zeta_density(2, 10.0)
    truth = 0.5 * 10.0 * math.exp(-25.0)
    assert v.error_estimate > abs(v.value - truth) / 10
    assert v.error_estimate > 1e-5


# ---------------------------------------------------------------------------
# stick breaking
# ---------------------------------------------------------------------------


def test_stick_breaking_structure():
    s = dist.stick_breaking_sample(2, 3, seed=11)
    assert len(s.components) == 3
    assert all(0 <= c <= 1 for c in s.components)
    assert sum(s.components) + s.remainder == pytest.approx(1.0)
    again = dist.stick_breaking_sample(2, 3, seed=11)
    assert again.components == s.components


@pytest.mark.parametrize("k,depth", [(2, 1), (2, 3), (5, 4)])
def test_stick_breaking_rows_match_step_loop(k, depth):
    """The vectorised stick breaking gives the level-by-level loop's values
    exactly, and a single draw is row 0 of a one-row call."""
    rows = dist._stick_breaking_rows(k, depth, 300, np.random.default_rng(4))
    loop = oracles.stick_breaking_steps(k, depth, 300, np.random.default_rng(4))
    assert rows.tobytes() == loop.tobytes()
    one = dist.stick_breaking_sample(k, depth, seed=9)
    (row,) = oracles.stick_breaking_steps(k, depth, 1, np.random.default_rng(9))
    assert one == (tuple(row[:-1]), row[-1])


def test_stick_breaking_first_component_mean():
    k = 2
    vals = [dist.stick_breaking_sample(k, 1, seed=s).components[0] for s in range(4000)]
    mean = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals)))
    assert abs(mean - (k - 1) / (k + 1)) < 4 * se


# ---------------------------------------------------------------------------
# limiting covariance of the (ascent, descent, plateau) triple
# ---------------------------------------------------------------------------


def test_tnormal_covariance_frozen_k2():
    m = dist.tnormal_covariance(2)
    assert m == (
        (Fraction(1, 9), Fraction(-1, 18), Fraction(-1, 18)),
        (Fraction(-1, 18), Fraction(1, 9), Fraction(-1, 18)),
        (Fraction(-1, 18), Fraction(-1, 18), Fraction(1, 9)),
    )


def test_tnormal_matches_symmetric_urn_at_k2():
    # at k = 2 the triple has the same limit as the 3-color symmetric urn
    assert dist.tnormal_covariance(2) == urns.urn_a_covariance(3).covariance


@given(st.integers(2, 9))
@settings(max_examples=16, deadline=None)
def test_tnormal_rows_sum_to_zero(k):
    m = dist.tnormal_covariance(k)
    for row in m:
        assert sum(row, Fraction(0)) == 0
    # symmetric
    for i in range(3):
        for j in range(3):
            assert m[i][j] == m[j][i]


def test_tnormal_variance_entries():
    for k in (2, 3, 5):
        den = (k + 1) ** 2 * (k + 2)
        m = dist.tnormal_covariance(k)
        assert m[0][0] == Fraction(k * k, den)
        assert m[2][2] == Fraction(2 * k * (k - 1), den)


@pytest.mark.parametrize("k", range(1, 13))
def test_tnormal_covariance_matches_closed_form_oracle(k):
    got = dist.tnormal_covariance(k)
    want = oracles.tnormal_covariance_closed_form(k)
    assert got == want
    assert [[str(x) for x in row] for row in got] == [[str(x) for x in row] for row in want]
