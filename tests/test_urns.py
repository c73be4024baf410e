"""Urn models: exact transition law against simulation, block-count and
block-size correspondences against enumeration ground truth."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stirlperm import distributions as dist
from stirlperm import perms, trees, urns
from stirlperm.harness import chi_square_gof, chi_square_two_sample


# ---------------------------------------------------------------------------
# specs and simulation
# ---------------------------------------------------------------------------


def test_spec_constructors():
    a = urns.symmetric_urn(3)
    assert a.initial == (1, 1, 1)
    assert a.deltas == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    b = urns.triangular_block_urn(2)
    assert b.colors == ("black", "white")
    assert b.initial == (1, 2)
    assert b.deltas == ((2, 0), (1, 1))
    c = urns.polya_urn(2, 1, 2)
    assert c.deltas == ((2, 0), (0, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        urns.symmetric_urn(1)
    with pytest.raises(ValueError):
        urns.UrnSpec("x", ("a",), (-1,), ((0,),))
    with pytest.raises(ValueError):
        urns.UrnSpec("x", ("a", "b"), (1, 1), ((0,),))
    with pytest.raises(ValueError, match="one entry per state column"):
        urns.UrnSpec("x", ("a", "b"), (1, 1), ((0,), (0,)))
    with pytest.raises(ValueError, match="one entry per state column"):
        urns.UrnSpec("x", ("a",), (1, 1), ((0, 1), (1, 0)), ((1,),))
    with pytest.raises(ValueError, match="read-out columns"):
        urns.UrnSpec("x", ("a", "b"), (1, 1), ((0, 1), (1, 0)), ((1, 1),))


def test_balanced_urn_rejects_unequal_growth():
    with pytest.raises(ValueError, match="same number of balls"):
        urns.UrnSpec("x", ("a", "b"), (1, 1), ((0, 1), (1, 1)))


def test_simulate_deterministic_and_consistent():
    spec = urns.triangular_block_urn(2)
    t1 = urns.simulate(spec, 40, seed=9, record_path=True)
    t2 = urns.simulate(spec, 40, seed=9, record_path=True)
    assert t1.counts == t2.counts
    assert t1.path == t2.path
    assert len(t1.path) == 41
    assert t1.path[0] == spec.initial
    assert t1.path[-1] == t1.counts
    # every step applies one delta row
    for before, after in zip(t1.path, t1.path[1:]):
        diff = tuple(a - b for a, b in zip(after, before))
        assert diff in spec.deltas


@pytest.mark.parametrize("k", [1, 2, 3])
def test_simulate_carries_tally_columns(k):
    """Only the drawn colours are drawn: the total of the ary_tree table's
    slot classes grows by k per draw while its left-right tally rides along."""
    spec = urns.ary_tree_urn(k)
    drawn = len(spec.deltas)
    t = urns.simulate(spec, 40, seed=k, record_path=True)
    for step, (before, after) in enumerate(zip(t.path, t.path[1:])):
        assert sum(before[:drawn]) == k + 1 + k * step
        assert tuple(a - b for a, b in zip(after, before)) in spec.deltas
    assert 1 <= t.counts[drawn] <= 41


@pytest.mark.parametrize("record_path", [False, True])
@pytest.mark.parametrize(
    "spec,start",
    [(urns.ary_tree_urn(2), [1, 1, 1, 1, 1]), (urns.plane_tree_urn(3), [1, 0])],
    ids=["ary_tree", "plane_tree"],
)
def test_trajectory_json_reads_out_the_table(spec, start, record_path):
    """A table with a read-out lists its counts and path in its colours;
    the trajectory itself keeps the raw state."""
    t = urns.simulate(spec, 12, seed=3, record_path=record_path)
    out = t.to_json_dict()
    readout = np.array(spec.readout)
    assert len(t.counts) == len(spec.initial)
    assert out["counts"] == (readout @ t.counts).tolist()
    assert len(out["counts"]) == len(out["colors"])
    if record_path:
        assert out["path"] == [(readout @ row).tolist() for row in t.path]
        assert out["path"][0] == start and out["path"][-1] == out["counts"]
    else:
        assert "path" not in out


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_simulate_counts_stay_nonnegative(seed):
    spec = urns.symmetric_urn(4)
    t = urns.simulate(spec, 25, seed=seed)
    assert all(c >= 0 for c in t.counts)
    assert sum(t.counts) == 4 + 25 * 3


def test_transition_distribution_matches_exact_oracle():
    spec = urns.triangular_block_urn(2)
    out = dict()
    for counts, p in urns.transition_distribution(spec, (3, 2)):
        out[counts] = p
    assert out == {(5, 2): Fraction(3, 5), (4, 3): Fraction(2, 5)}
    assert sum(out.values()) == 1


def test_transition_distribution_agrees_with_simulation():
    spec = urns.symmetric_urn(3)
    start = (2, 1, 3)
    exact = dict(urns.transition_distribution(spec, start))
    spec_from_start = urns.UrnSpec(spec.kind, spec.colors, start, spec.deltas)
    counts = Counter(
        urns.simulate(spec_from_start, 1, seed=seed).counts for seed in range(4000)
    )
    support = sorted(exact)
    _, pvalue = chi_square_gof(
        [counts.get(s, 0) for s in support], [exact[s] for s in support]
    )
    assert pvalue > 1e-3


# ---------------------------------------------------------------------------
# urn B: block counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
def test_triangular_urn_white_is_block_count(n, k):
    """Exact trajectory expansion of the two-color urn: white minus one has
    exactly the closed-form block count distribution."""
    spec = urns.triangular_block_urn(k)
    state_dist = oracles.urn_exact_distribution(spec, n - 1)
    white = {}
    for counts, p in state_dist.items():
        m = counts[1] - 1
        white[m] = white.get(m, Fraction(0)) + p
    table = dist.block_count_pmf(n, k)
    for m in range(1, n + 1):
        assert white.get(m, Fraction(0)) == table.prob(m), (n, k, m)


def test_martingale_one_step_identity_exact():
    for k in (2, 3):
        spec = urns.triangular_block_urn(k)
        for white in range(2, 30):
            for black in range(k - 1, 40, k):
                total = white + black
                nxt = urns.transition_distribution(spec, (black, white))
                mean = sum(Fraction(c[1]) * p for c, p in nxt)
                assert mean == Fraction(white * (total + 1), total)


# ---------------------------------------------------------------------------
# urn C: first block via a two-color Polya urn
# ---------------------------------------------------------------------------


def test_polya_white_fraction_mean_is_constant():
    spec = urns.polya_urn(2, 1, 2)
    for steps in range(5):
        sd = oracles.urn_exact_distribution(spec, steps)
        mean = sum(Fraction(c[0], sum(c)) * p for c, p in sd.items())
        assert mean == Fraction(1, 3)


def test_polya_matches_first_block_size_exactly():
    """Exact first-block-size distribution from enumeration equals the exact
    white+1 distribution of the Polya urn, n = 4, k = 2."""
    n, k = 4, 2
    words = list(perms.enumerate_k_stirling(n, k))
    first = Counter(perms.block_decomposition(p).sizes_by_label[0] for p in words)
    exact_first = {s: Fraction(c, len(words)) for s, c in first.items()}
    spec = urns.polya_urn(k, k - 1, 2)
    urn_dist = {}
    for counts, p in oracles.urn_exact_distribution(spec, n - 1).items():
        size = counts[0] + 1
        urn_dist[size] = urn_dist.get(size, Fraction(0)) + p
    assert urn_dist == exact_first


# ---------------------------------------------------------------------------
# urn A: exterior slot counts
# ---------------------------------------------------------------------------


def test_symmetric_urn_matches_tree_slot_distribution_exactly():
    q, n = 3, 4
    spec = urns.symmetric_urn(q)
    urn_dist = oracles.urn_exact_distribution(spec, n - 1)
    tree_counts = Counter(
        trees.ary_stats(t).exterior_by_slot for t in trees.enumerate_ary_trees(n, q)
    )
    total = sum(tree_counts.values())
    tree_dist = {s: Fraction(c, total) for s, c in tree_counts.items()}
    assert urn_dist == tree_dist


def test_urn_a_covariance_frozen_and_centered():
    lim = urns.urn_a_covariance(3)
    assert lim.covariance == (
        (Fraction(1, 9), Fraction(-1, 18), Fraction(-1, 18)),
        (Fraction(-1, 18), Fraction(1, 9), Fraction(-1, 18)),
        (Fraction(-1, 18), Fraction(-1, 18), Fraction(1, 9)),
    )
    assert lim.centering == (Fraction(2, 3),) * 3


@given(st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_urn_a_covariance_rows_sum_to_zero(q):
    lim = urns.urn_a_covariance(q)
    for row in lim.covariance:
        assert sum(row, Fraction(0)) == 0
    assert sum(lim.centering, Fraction(0)) == q - 1


def test_fixed_addition_covariance_frozen():
    lim = urns.fixed_addition_covariance((1, 1))
    assert lim.covariance == (
        (Fraction(1, 12), Fraction(-1, 12)),
        (Fraction(-1, 12), Fraction(1, 12)),
    )
    assert lim.centering == (Fraction(1, 2), Fraction(1, 2))


@given(st.lists(st.integers(0, 4), min_size=2, max_size=4).filter(lambda s: sum(s) >= 2))
@settings(max_examples=40, deadline=None)
def test_fixed_addition_covariance_rows_sum_to_zero(s):
    lim = urns.fixed_addition_covariance(s)
    for row in lim.covariance:
        assert sum(row, Fraction(0)) == 0
    assert lim.centering == tuple(Fraction(x * (sum(s) - 1), sum(s)) for x in s)


@pytest.mark.parametrize("q", range(2, 13))
def test_urn_a_covariance_matches_closed_form_oracle(q):
    lim = urns.urn_a_covariance(q)
    cov, centering = oracles.urn_a_covariance_closed_form(q)
    assert (lim.covariance, lim.centering) == (cov, centering)
    assert [[str(x) for x in row] for row in lim.covariance] == [
        [str(x) for x in row] for row in cov
    ]
    assert [str(x) for x in lim.centering] == [str(x) for x in centering]


# ---------------------------------------------------------------------------
# nested urns and the vectorized block-size sampler
# ---------------------------------------------------------------------------


def _exact_block_size_tuples(n: int, k: int) -> dict[tuple[int, ...], Fraction]:
    words = list(perms.enumerate_k_stirling(n, k))
    counts = Counter(perms.block_decomposition(p).sizes_by_label for p in words)
    return {t: Fraction(c, len(words)) for t, c in counts.items()}


def test_nested_urns_match_enumeration_chi_square():
    n, k = 4, 2
    exact = _exact_block_size_tuples(n, k)
    support = sorted(exact)
    counts = Counter(urns.nested_block_urns(k, n, seed) for seed in range(6000))
    assert set(counts) <= set(support)
    _, pvalue = chi_square_gof(
        [counts.get(s, 0) for s in support], [exact[s] for s in support]
    )
    assert pvalue > 1e-3


def test_block_size_sampler_matches_enumeration_chi_square():
    """The beta-binomial chain gives (first, count) jointly with the exact
    enumeration law at n = 5, k = 2."""
    n, k = 5, 2
    exact_pairs: dict[tuple[int, int], Fraction] = {}
    for sizes, p in _exact_block_size_tuples(n, k).items():
        key = (sizes[0], len(sizes))
        exact_pairs[key] = exact_pairs.get(key, Fraction(0)) + p
    arr = urns.sample_block_size_stats(k, n, 8000, np.random.default_rng(42))
    counts = Counter((int(f), int(c)) for f, _, c in arr)
    support = sorted(exact_pairs)
    assert set(counts) <= set(support)
    _, pvalue = chi_square_gof(
        [counts.get(s, 0) for s in support], [exact_pairs[s] for s in support]
    )
    assert pvalue > 1e-3


def test_sampler_and_nested_urns_agree_two_sample():
    n, k = 6, 2
    direct = Counter()
    for seed in range(4000):
        sizes = oracles.nested_block_steps(k, n, np.random.default_rng(seed))
        direct[(sizes[0], len(sizes))] += 1
    arr = urns.sample_block_size_stats(k, n, 4000, np.random.default_rng(7))
    chain = Counter((int(f), int(c)) for f, _, c in arr)
    support = sorted(set(direct) | set(chain))
    _, pvalue = chi_square_two_sample(
        [direct.get(s, 0) for s in support], [chain.get(s, 0) for s in support]
    )
    assert pvalue > 1e-3


@pytest.mark.parametrize("n,k", [(6, 2), (5, 3)])
def test_nested_urns_match_step_loop(n, k):
    """The nested urn levels give the gap-by-gap growth's law of the whole
    label-ordered block-size tuple."""
    levels = Counter(urns.nested_block_urns(k, n, seed) for seed in range(4000))
    rng = np.random.default_rng(1)
    steps = Counter(oracles.nested_block_steps(k, n, rng) for _ in range(4000))
    support = sorted(set(levels) | set(steps))
    _, pvalue = chi_square_two_sample(
        [levels.get(s, 0) for s in support], [steps.get(s, 0) for s in support]
    )
    assert pvalue > 1e-3


@pytest.mark.parametrize("n,k", [(2000, 1), (100_000, 2)])
def test_nested_urns_at_large_order(n, k):
    sizes = urns.nested_block_urns(k, n, 3)
    assert sum(sizes) == k * n
    assert all(s >= k and s % k == 0 for s in sizes)
    if k == 1:
        assert sizes == (1,) * n


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_nested_urns_structural_invariants(seed):
    sizes = urns.nested_block_urns(2, 9, seed)
    assert sum(sizes) == 18
    assert all(s >= 2 and s % 2 == 0 for s in sizes)


def test_block_size_sampler_structural_invariants():
    arr = urns.sample_block_size_stats(3, 40, 500, np.random.default_rng(1))
    first, largest, count = arr[:, 0], arr[:, 1], arr[:, 2]
    assert (first <= largest).all()
    assert (count >= 1).all()
    assert (first % 3 == 0).all() and (largest % 3 == 0).all()


def test_sampler_rejects_k_one():
    with pytest.raises(ValueError):
        urns.sample_block_size_stats(1, 5, 10, np.random.default_rng(0))
