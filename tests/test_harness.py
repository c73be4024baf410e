"""Experiment harness: spec validation, byte-level determinism, jackknife
errors against a refit oracle, theory comparisons, cross-generator agreement."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from stirlperm import distributions as dist
from stirlperm import harness, perms, trees, urns
from stirlperm._rng import chunk_stream


def run(generator, n, k, replicates, seed=0, statistics=None, threads=1):
    spec = harness.ExperimentSpec(
        generator=generator,
        n=n,
        k=k,
        replicates=replicates,
        statistics=statistics,
        seed=seed,
    )
    return harness.run_experiment(spec, threads=threads)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_unknown_generator():
    with pytest.raises(ValueError):
        harness.ExperimentSpec(generator="nope", n=5, k=2, replicates=10)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(n=harness.MAX_ORDER + 1),
        dict(replicates=0),
        dict(replicates=harness.MAX_REPLICATES + 1),
        dict(statistics=("no_such_column",)),
        dict(replicates=1),
        dict(seed=-1),
        dict(statistics=("",)),
        dict(statistics=("black", "black")),
        dict(statistics=()),
    ],
)
def test_spec_rejects_out_of_range(kwargs):
    base = dict(generator="urn_b", n=5, k=2, replicates=10)
    base.update(kwargs)
    with pytest.raises(ValueError):
        harness.ExperimentSpec(**base)


def test_spec_negative_seed_names_the_field():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        harness.ExperimentSpec(generator="urn_b", n=5, k=2, replicates=10, seed=-1)


def test_spec_enforces_min_k():
    with pytest.raises(ValueError):
        harness.ExperimentSpec(generator="plane_tree", n=5, k=1, replicates=10)
    with pytest.raises(ValueError):
        harness.ExperimentSpec(generator="block_sizes", n=5, k=1, replicates=10)


def test_spec_columns():
    spec = harness.ExperimentSpec(generator="urn_a", n=5, k=2, replicates=10)
    assert spec.all_columns == ("color1", "color2", "color3")
    sub = harness.ExperimentSpec(
        generator="urn_c_block", n=5, k=2, replicates=10, statistics=("firstFraction",)
    )
    assert sub.selected_columns == ("firstFraction",)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("generator,n", [("urn_b", 60), ("stirling_perm", 12)])
def test_bytewise_repeatability(generator, n):
    a = run(generator, n, 2, 2048, seed=7)
    b = run(generator, n, 2, 2048, seed=7)
    assert a.matrix.tobytes() == b.matrix.tobytes()
    c = run(generator, n, 2, 2048, seed=8)
    assert a.matrix.tobytes() != c.matrix.tobytes()


@pytest.mark.parametrize(
    "generator,n",
    [("urn_a", 40), ("urn_c_block", 40), ("block_sizes", 40), ("stick_breaking", 1),
     ("stirling_perm", 10), ("ary_tree", 10), ("plane_tree", 10)],
)
def test_thread_count_does_not_change_bytes(generator, n):
    one = run(generator, n, 2, 2048, seed=3, threads=1)
    many = run(generator, n, 2, 2048, seed=3, threads=8)
    assert one.matrix.tobytes() == many.matrix.tobytes()


def test_chunk_mode_prefix_stability():
    small = run("urn_b", 30, 2, harness.REPLICATE_CHUNK, seed=5)
    large = run("urn_b", 30, 2, 2 * harness.REPLICATE_CHUNK + 17, seed=5)
    assert np.array_equal(large.matrix[: harness.REPLICATE_CHUNK], small.matrix)


def test_replicate_mode_prefix_stability():
    small = run("stirling_perm", 9, 2, 40, seed=5)
    large = run("stirling_perm", 9, 2, 130, seed=5)
    assert np.array_equal(large.matrix[:40], small.matrix)


@pytest.mark.parametrize("generator", sorted(oracles.REFERENCE_KERNELS))
def test_chunk_kernel_rows_are_prefix_stable(generator):
    """Each step draws a full chunk width of integers, so row i is the same
    for any row count."""
    small = run(generator, 30, 2, 40, seed=5)
    large = run(generator, 30, 2, 130, seed=5)
    assert np.array_equal(large.matrix[:40], small.matrix)


# ---------------------------------------------------------------------------
# balanced-urn engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "generator,reference",
    [("ary_tree", oracles.ary_chunk), ("plane_tree", oracles.plane_chunk)],
    ids=["ary_tree", "plane_tree"],
)
def test_urn_engine_matches_hand_written_kernel(generator, reference, k):
    """The engine draws the integers the hand-written kernels drew and
    applies the same rule, so rows and generator state agree byte for byte."""
    kernel = harness.GENERATORS[generator].kernel
    for n in (1, 2, 3, 50, 300, 2000):
        for count in (1, 7, 700, harness.REPLICATE_CHUNK):
            want_rng, got_rng = chunk_stream(9, n), chunk_stream(9, n)
            want = reference(n, k, count, want_rng)
            got = kernel(n, k, count, got_rng)
            assert got.tobytes() == want.tobytes(), (n, count)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_stirling_perm_at_k_one_matches_gap_loop():
    """At k = 1 stirling_perm steps urn A on the engine, which draws the
    integers the gap loop drew, so rows and generator state agree byte for
    byte, across the engine's draw blocks too."""
    for n in (1, 2, 3, 10, 2100, 5000):
        for count in (1, 7, harness.REPLICATE_CHUNK):
            want_rng, got_rng = chunk_stream(10, n), chunk_stream(10, n)
            want = oracles.stirling_k1_chunk(n, count, want_rng)
            got = harness._stirling_chunk(n, 1, count, got_rng)
            assert got.tobytes() == want.tobytes(), (n, count)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_stirling_perm_at_k_one_is_urn_a():
    """With one seed, (ascents, descents) of stirling_perm at k = 1 and
    order n are urn A's two colours at order n - 1."""
    n, reps = 40, 1500
    perm = run("stirling_perm", n, 1, reps, seed=31)
    urn = run("urn_a", n - 1, 1, reps, seed=31)
    assert np.array_equal(perm.matrix[:, :2], urn.matrix)


def test_urn_engine_memory_is_bounded():
    """The engine frees each block of draws before it draws the next, so a
    chunk of urn_a at n = 10^4 holds one 16 MiB block at a time."""
    tracemalloc.start()
    try:
        run("urn_a", 10_000, 2, harness.REPLICATE_CHUNK, seed=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ary_tree_exteriors_are_urn_a(k):
    """Under the exterior read-out every ary_tree replacement row is the
    symmetric_urn(k+1) row of its slot: urn A is the exterior projection of
    the slot-class urn."""
    spec, urn = urns.ary_tree_urn(k), urns.symmetric_urn(k + 1)
    exterior = np.array(spec.readout[: k + 1])
    assert (exterior @ spec.initial).tolist() == list(urn.initial)
    for cls, row in enumerate(spec.deltas):
        assert (exterior @ row).tolist() == list(urn.deltas[cls // 4]), cls


def test_run_experiment_rejects_bad_threads():
    spec = harness.ExperimentSpec(generator="urn_b", n=5, k=2, replicates=8)
    with pytest.raises(ValueError):
        harness.run_experiment(spec, threads=0)


# ---------------------------------------------------------------------------
# result shape and structural row invariants
# ---------------------------------------------------------------------------


def test_result_accessors_and_json():
    res = run("urn_b", 20, 2, 256, seed=1)
    assert res.columns == ("black", "white")
    assert res.matrix.shape == (256, 2)
    assert np.array_equal(res.column("white"), res.matrix[:, 1])
    assert res.means().shape == (2,)
    assert res.covariance().shape == (2, 2)
    d = res.to_json_dict()
    assert d["spec"]["generator"] == "urn_b"
    assert len(d["means"]) == 2 and len(d["covariance"]) == 2


def test_statistics_subset_matches_full_matrix():
    full = run("urn_c_block", 25, 2, 512, seed=2)
    sub = run("urn_c_block", 25, 2, 512, seed=2, statistics=("firstFraction",))
    assert sub.columns == ("firstFraction",)
    assert np.array_equal(sub.matrix[:, 0], full.column("firstFraction"))


def test_urn_b_rows_conserve_totals():
    n, k = 35, 3
    res = run("urn_b", n, k, 512, seed=4)
    # one ball per gap of the word: k*n + 1 in total
    totals = res.column("black") + res.column("white")
    assert (totals == k * n + 1).all()
    assert (res.column("white") >= 2).all()


def test_ary_tree_rows_conserve_slots():
    n, k = 14, 2
    res = run("ary_tree", n, k, 300, seed=4)
    slots = sum(res.column(f"exterior{j}") for j in range(1, k + 2))
    assert (slots == k * n + 1).all()
    assert (res.column("leaves") >= 1).all() and (res.column("leaves") <= n).all()


@pytest.mark.parametrize("k", [2, 3])
def test_plane_tree_rows_match_grown_trees(k):
    """Each row of the row-by-row oracle kernel is (leaves, root degree) of
    the tree grown from the chunk's stream, recomputed with ``leaves()`` and
    the root's bundle."""
    n, seed = 12, 5
    matrix = oracles.ROW_KERNELS["plane_tree"](n, k, 200, chunk_stream(seed, 0))
    rng = chunk_stream(seed, 0)
    grown = [trees.grow_plane_tree(trees.k_plane_family(k), n, rng) for _ in range(200)]
    want = [(t.leaves(), len(t.bundles_of(1)[0])) for t in grown]
    assert matrix.tolist() == [list(map(float, row)) for row in want]


def test_stick_breaking_rows_sum_to_one():
    res = run("stick_breaking", 1, 2, 400, seed=6)
    total = res.matrix.sum(axis=1)
    assert np.allclose(total, 1.0)
    assert (res.matrix >= 0).all() and (res.matrix <= 1).all()


def test_urn_c_fraction_consistent_with_white():
    n, k = 18, 2
    res = run("urn_c_block", n, k, 300, seed=9)
    assert np.allclose(res.column("firstFraction"), (res.column("white") + 1) / (k * n))


def test_stirling_perm_at_k_one_opens_a_block_per_label():
    """At k = 1 every gap lies between blocks: n blocks of size 1 and no
    plateau, kept without a column per block."""
    n = 10_000
    tracemalloc.start()
    try:
        res = run("stirling_perm", n, 1, harness.REPLICATE_CHUNK, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.column("blocks") == n).all() and (res.column("plateaux") == 0).all()
    assert (res.column("firstBlock") == 1).all() and (res.column("largestBlock") == 1).all()
    assert (res.column("ascents") + res.column("descents") == n + 1).all()
    # n block columns of three int64 counts would take 245 MB for this chunk
    assert peak < 20e6, peak


# ---------------------------------------------------------------------------
# jackknife
# ---------------------------------------------------------------------------


def test_jackknife_matches_refit_oracle():
    rng = np.random.default_rng(123)
    x = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 3))
    cov, se = harness.jackknife_covariance(x)
    slow_se = oracles.jackknife_covariance_slow(x)
    assert np.allclose(se, slow_se)
    assert np.allclose(cov, np.cov(x, rowvar=False, ddof=1))


def test_jackknife_rejects_tiny_input():
    with pytest.raises(ValueError):
        harness.jackknife_covariance(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        harness.jackknife_covariance(np.zeros(5))


# ---------------------------------------------------------------------------
# theory comparisons
# ---------------------------------------------------------------------------


def test_compare_urn_b_exact_moments():
    spec = harness.ExperimentSpec(generator="urn_b", n=40, k=2, replicates=4096, seed=11)
    res = harness.run_experiment(spec)
    report = harness.compare(res, harness.THEORIES["urn_b_blocks"](spec))
    assert report.ok, [e for e in report.entries if not e.ok]
    names = {e.name for e in report.entries}
    assert "mean[white]" in names and "cov[black,white]" in names


def test_compare_first_block_mean_only():
    spec = harness.ExperimentSpec(
        generator="urn_c_block",
        n=4000,
        k=3,
        replicates=4096,
        seed=12,
        statistics=("firstFraction",),
    )
    res = harness.run_experiment(spec, threads=4)
    report = harness.compare(res, harness.THEORIES["first_block_mean"](spec))
    assert report.ok, report.to_json_dict()
    assert all(e.name.startswith("mean[") for e in report.entries)


def test_compare_flags_mismatch_with_tight_multiplier():
    spec = harness.ExperimentSpec(generator="urn_b", n=40, k=2, replicates=2048, seed=13)
    res = harness.run_experiment(spec)
    report = harness.compare(
        res, harness.THEORIES["urn_b_blocks"](spec), se_multiplier=1e-8
    )
    assert not report.ok
    assert report.max_abs_z > 0
    d = report.to_json_dict()
    assert d["ok"] is False and d["seMultiplier"] == 1e-8


@pytest.mark.parametrize("n", [3, 7])
def test_compare_floors_a_constant_column_at_rounding(n):
    """At k = 1 firstFraction is the constant 1/n, whose float mean is off
    by an ulp while its sample se is rounding noise: the se floor passes it,
    and still fails an expected value off by 1e-9 relative."""
    spec = harness.ExperimentSpec(
        generator="urn_c_block", n=n, k=1, replicates=200_000, seed=1,
        statistics=("firstFraction",),
    )
    res = harness.run_experiment(spec)
    theory = harness.THEORIES["first_block_mean"](spec)
    assert harness.compare(res, theory).ok
    off = dataclasses.replace(theory, means=(theory.means[0] * (1 + 1e-9),))
    report = harness.compare(res, off)
    assert not report.ok and report.max_abs_z > 1e3


def test_compare_stick_breaking_mean():
    spec = harness.ExperimentSpec(
        generator="stick_breaking", n=1, k=2, replicates=8192, seed=14
    )
    res = harness.run_experiment(spec)
    report = harness.compare(res, harness.THEORIES["stick_breaking_mean"](spec))
    assert report.ok, report.to_json_dict()


def test_urn_a_means_match_exact_value():
    n, q = 500, 3
    spec = harness.ExperimentSpec(generator="urn_a", n=n, k=q - 1, replicates=4096, seed=15)
    res = harness.run_experiment(spec, threads=4)
    report = harness.compare(res, harness.THEORIES["urn_a_gaussian"](spec))
    # means are exact at every n, so they must pass; the covariance entries
    # target the limit and get the same 4-sigma budget at this n
    mean_entries = [e for e in report.entries if e.name.startswith("mean[")]
    assert all(e.ok for e in mean_entries), mean_entries


# ---------------------------------------------------------------------------
# sampled generators against exact finite-n laws
# ---------------------------------------------------------------------------


def test_stirling_perm_means_match_profile():
    n, k, reps = 25, 2, 3000
    res = run("stirling_perm", n, k, reps, seed=21)
    prof = dist.mean_profile(n, k)
    targets = {
        "ascents": float(prof.ascents_mean),
        "descents": float(prof.descents_mean),
        "plateaux": float(prof.plateaux_mean),
        "blocks": float(dist.block_count_mean(n, k)),
    }
    for name, expected in targets.items():
        col = res.column(name)
        se = col.std(ddof=1) / math.sqrt(reps)
        assert abs(col.mean() - expected) < 4 * se, (name, col.mean(), expected)


def test_ascents_match_tree_slot_distribution():
    """Word ascents and first exterior slot counts of the corresponding tree
    family have one distribution; check the two samplers against each other."""
    n, k, reps = 12, 2, 1500
    words = run("stirling_perm", n, k, reps, seed=22).column("ascents")
    trees_ = run("ary_tree", n, k, reps, seed=23).column("exterior1")
    lo = int(min(words.min(), trees_.min()))
    hi = int(max(words.max(), trees_.max()))
    wa = Counter(int(v) for v in words)
    tr = Counter(int(v) for v in trees_)
    support = range(lo, hi + 1)
    _, pvalue = harness.chi_square_two_sample(
        [wa.get(s, 0) for s in support], [tr.get(s, 0) for s in support]
    )
    assert pvalue > 1e-3


def test_urn_b_white_matches_block_count_sampler():
    """The step-by-step triangular urn against the beta-binomial chain."""
    n, k, reps = 12, 2, 1500
    white = oracles.urn_b_steps(n, k, reps, np.random.default_rng(24))[:, 1] - 1
    counts = run("block_sizes", n, k, reps, seed=25).column("count")
    wa = Counter(int(v) for v in white)
    bl = Counter(int(v) for v in counts)
    support = range(1, n + 1)
    _, pvalue = harness.chi_square_two_sample(
        [wa.get(s, 0) for s in support], [bl.get(s, 0) for s in support]
    )
    assert pvalue > 1e-3


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "generator,steps,white_col",
    [("urn_b", oracles.urn_b_steps, 1), ("urn_c_block", oracles.urn_c_steps, 0)],
)
def test_urn_white_matches_step_loop(generator, steps, white_col, k):
    """The level-chain kernels against the step-by-step urns, over more than
    one replicate chunk."""
    n, reps = 10, 2 * harness.REPLICATE_CHUNK + 300
    fast = run(generator, n, k, reps, seed=27).column("white")
    slow = steps(n, k, reps, np.random.default_rng(28))[:, white_col]
    fc = Counter(int(v) for v in fast)
    sc = Counter(int(v) for v in slow)
    support = sorted(set(fc) | set(sc))
    _, pvalue = harness.chi_square_two_sample(
        [fc.get(s, 0) for s in support], [sc.get(s, 0) for s in support]
    )
    assert pvalue > 1e-3


@pytest.mark.parametrize("n", [1, 2, 9])
def test_urns_at_k_one_are_deterministic(n):
    reps = harness.REPLICATE_CHUNK + 5
    b = run("urn_b", n, 1, reps, seed=29)
    assert (b.column("white") == n + 1).all() and (b.column("black") == 0).all()
    c = run("urn_c_block", n, 1, reps, seed=29)
    assert (c.column("white") == 0).all() and (c.column("black") == n + 1).all()
    assert (c.column("firstFraction") == 1 / n).all()


@pytest.mark.parametrize("k", [2, 3])
def test_block_law_generators_read_the_same_levels(k):
    """urn_b, urn_c_block and block_sizes draw the same nested urn levels
    from each chunk stream, so one seed ties their rows together."""
    n, reps, seed = 30, 2 * harness.REPLICATE_CHUNK + 17, 31
    blocks = run("block_sizes", n, k, reps, seed=seed)
    white_b = run("urn_b", n, k, reps, seed=seed).column("white")
    white_c = run("urn_c_block", n, k, reps, seed=seed).column("white")
    assert np.array_equal(white_b - 1, blocks.column("count"))
    assert np.array_equal(white_c + 1, blocks.column("first"))


def test_urn_b_white_matches_exact_pmf():
    n, k, reps = 8, 3, 4096
    white = run("urn_b", n, k, reps, seed=26).column("white") - 1
    table = dist.block_count_pmf(n, k)
    hist = Counter(int(v) for v in white)
    _, pvalue = harness.chi_square_gof(
        [hist.get(m, 0) for m in range(1, n + 1)],
        [table.prob(m) for m in range(1, n + 1)],
    )
    assert pvalue > 1e-3


def _exact_law(objects, stats, weight=lambda obj: 1):
    """Row histogram of a finite population, each object counted with its weight."""
    law: Counter = Counter()
    for obj in objects:
        law[stats(obj)] += Fraction(weight(obj))
    total = sum(law.values())
    return {row: w / total for row, w in law.items()}


def _gof_pvalue(generator, n, k, law, seed):
    res = run(generator, n, k, 20 * harness.REPLICATE_CHUNK, seed=seed)
    hist = Counter(map(tuple, res.matrix.tolist()))
    cells = sorted(set(law) | set(hist))
    _, pvalue = harness.chi_square_gof(
        [hist.get(c, 0) for c in cells], [law.get(c, 0) for c in cells]
    )
    return pvalue


@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (4, 3), (5, 3)])
def test_stirling_perm_kernel_matches_enumeration(n, k):
    law = _exact_law(perms.enumerate_k_stirling(n, k), oracles.stirling_stats)
    assert _gof_pvalue("stirling_perm", n, k, law, seed=40 + n + k) > 1e-3


@pytest.mark.parametrize("n,arity", [(5, 2), (4, 3), (5, 3), (5, 4)])
def test_ary_tree_kernel_matches_enumeration(n, arity):
    law = _exact_law(trees.enumerate_ary_trees(n, arity), oracles.ary_tree_stats)
    assert _gof_pvalue("ary_tree", n, arity - 1, law, seed=50 + n + arity) > 1e-3


def _urn_law(urn, draws):
    """Exact law of the read-out columns after ``draws`` draws, by iterating
    the one-step transition law over the urn states."""
    states = {urn.initial: Fraction(1)}
    for _ in range(draws):
        after: Counter = Counter()
        for state, p in states.items():
            for nxt, step in urns.transition_distribution(urn, state):
                after[nxt] += p * step
        states = after
    law: Counter = Counter()
    for state, p in states.items():
        law[tuple(float(np.dot(row, state)) for row in urn.readout)] += p
    return dict(law)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 6))
def test_ary_tree_urn_law_is_enumerated_law(n, k):
    """The ary_tree table read out after n-1 draws has exactly the law of
    the rows of all (k+1)-ary increasing trees of order n."""
    law = _exact_law(trees.enumerate_ary_trees(n, k + 1), oracles.ary_tree_stats)
    assert _urn_law(urns.ary_tree_urn(k), n - 1) == law


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", range(1, 7))
def test_plane_tree_urn_law_is_weighted_enumerated_law(n, k):
    """The plane_tree table read out after n-1 draws has exactly the law of
    the rows of all plane shapes of order n, each weighted as a k-plane tree."""
    family = trees.k_plane_family(k)
    law = _exact_law(
        trees.enumerate_plane_trees(n),
        oracles.plane_tree_stats,
        lambda tree: trees.tree_weight(tree, family),
    )
    assert _urn_law(urns.plane_tree_urn(k), n - 1) == law


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 7))
def test_urn_a_kernel_matches_exact_law(n, k):
    law = oracles.urn_exact_distribution(urns.symmetric_urn(k + 1), n)
    assert _gof_pvalue("urn_a", n, k, law, seed=80 + 10 * k + n) > 1e-3


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (6, 3)])
def test_plane_tree_kernel_matches_weighted_enumeration(n, k):
    family = trees.k_plane_family(k)
    law = _exact_law(
        trees.enumerate_plane_trees(n),
        oracles.plane_tree_stats,
        lambda tree: trees.tree_weight(tree, family),
    )
    assert _gof_pvalue("plane_tree", n, k, law, seed=60 + n + k) > 1e-3


@pytest.mark.parametrize("generator,k", [("stirling_perm", 2), ("stirling_perm", 3),
                                         ("ary_tree", 2), ("plane_tree", 2), ("plane_tree", 3),
                                         ("urn_a", 1), ("urn_a", 2), ("urn_a", 3)])
def test_chunk_kernel_matches_row_kernel(generator, k):
    """Every column of the chunk kernel against its reference kernel (rows
    grown one by one, or urn A drawn by floats) at n = 60, on independent
    streams."""
    n, reps = 60, 2 * harness.REPLICATE_CHUNK
    fast = run(generator, n, k, reps, seed=70 + k)
    slow = np.concatenate([
        oracles.REFERENCE_KERNELS[generator](
            n, k, harness.REPLICATE_CHUNK, chunk_stream(71 + k, c)
        )
        for c in range(2)
    ])
    for i, name in enumerate(fast.columns):
        _, pvalue = harness.ks_two_sample(fast.matrix[:, i], slow[:, i])
        assert pvalue > 1e-3, (name, pvalue)


# ---------------------------------------------------------------------------
# goodness-of-fit helpers
# ---------------------------------------------------------------------------


def test_chi_square_gof_validation():
    with pytest.raises(ValueError):
        harness.chi_square_gof([1, 2], [0.5, 0.3])
    with pytest.raises(ValueError):
        harness.chi_square_gof([1, 2, 3], [0.5, 0.5])


def test_chi_square_gof_zero_probability_cells():
    stat, pvalue = harness.chi_square_gof([50, 50, 0], [0.5, 0.5, 0.0])
    assert pvalue == pytest.approx(1.0)
    stat, pvalue = harness.chi_square_gof([50, 40, 10], [0.5, 0.5, 0.0])
    assert stat == math.inf and pvalue == 0.0


def test_ks_two_sample_basic():
    rng = np.random.default_rng(0)
    a = rng.normal(size=400)
    _, p_same = harness.ks_two_sample(a, rng.normal(size=400))
    _, p_diff = harness.ks_two_sample(a, rng.normal(loc=1.0, size=400))
    assert p_same > 1e-3
    assert p_diff < 1e-6


def test_goodness_of_fit_helpers_equal_direct_scipy_calls():
    from scipy import stats

    counts, probs = [18, 31, 27, 24], [Fraction(1, 5), Fraction(3, 10), Fraction(1, 4), Fraction(1, 4)]
    expected = np.asarray([float(p) for p in probs]) * sum(counts)
    stat, pvalue = stats.chisquare(np.asarray(counts, dtype=np.float64), expected)
    gof = harness.chi_square_gof(counts, probs)
    assert gof == (float(stat), float(pvalue))

    a, b = [12, 0, 30, 7], [9, 0, 25, 14]
    stat, pvalue, _, _ = stats.chi2_contingency(np.asarray([[12, 30, 7], [9, 25, 14]], dtype=np.float64))
    two_sample = harness.chi_square_two_sample(a, b)
    assert two_sample == (float(stat), float(pvalue))

    rng = np.random.default_rng(7)
    x, y = rng.normal(size=150), rng.normal(loc=0.3, size=120)
    res = stats.ks_2samp(x, y)
    ks = harness.ks_two_sample(x, y)
    assert ks == (float(res.statistic), float(res.pvalue))
    assert all(type(value) is float for value in gof + two_sample + ks)
