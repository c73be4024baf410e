"""Permutation families: validation, counting, enumeration, growth, and the
word statistics, all cross-checked against the definition-level oracles."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stirlperm import perms
from stirlperm.harness import chi_square_gof

SMALL_MULTISETS = [
    (1,),
    (3,),
    (1, 1),
    (2, 2),
    (1, 3),
    (2, 1, 2),
    (1, 2, 3),
    (3, 3, 1),
    (2, 2, 2),
    (1, 1, 1, 1),
    (2, 2, 2, 2),
]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mult", SMALL_MULTISETS)
def test_validate_word_matches_definition(mult):
    for word in oracles.multiset_words(mult):
        assert perms.validate_word(word, mult) == oracles.is_stirling(word)


@pytest.mark.parametrize(
    "mult", [m for m in SMALL_MULTISETS if (len(m) + 2) ** (sum(m) + 1) <= 10**5]
)
def test_validate_word_matches_definition_on_every_short_word(mult):
    """Every word over the labels 0..n+1 with up to one letter more than the
    multiset: wrong counts, out-of-range labels and wrong lengths included."""
    n = len(mult)
    multiset = Counter({label: m for label, m in enumerate(mult, start=1)})
    for length in range(sum(mult) + 2):
        for word in itertools.product(range(n + 2), repeat=length):
            expected = Counter(word) == multiset and oracles.is_stirling(word)
            assert perms.validate_word(word, mult) == expected, word


def test_validate_word_rejects_wrong_multiset():
    assert not perms.validate_word((1, 1, 2), (2, 2))
    assert not perms.validate_word((1, 1), (2, 2))
    assert not perms.validate_word((0, 0), (2,))


def test_constructor_rejects_invalid_words():
    with pytest.raises(perms.InvalidPermutationError):
        perms.GenStirlingPerm((2, 1, 2), (1, 2))
    with pytest.raises(perms.InvalidPermutationError):
        perms.GenStirlingPerm.parse("212")
    with pytest.raises(perms.InvalidPermutationError):
        perms.GenStirlingPerm.parse("1,3,3,1")  # label 2 missing


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("1,x", ValueError, "invalid literal for int() with base 10: 'x'"),
        ("0,1,1", perms.InvalidPermutationError, "labels must be 1..n, got 0"),
        ("2 -1 2", perms.InvalidPermutationError, "labels must be 1..n, got -1"),
        ("12a", perms.InvalidPermutationError, "cannot parse permutation '12a'"),
        ("1,3,3,1", perms.InvalidPermutationError,
         "(1, 3, 3, 1) is not a Stirling permutation of multiset (2, 0, 2)"),
        ("1,,2", perms.InvalidPermutationError, "blank comma field in permutation '1,,2'"),
        (",1,1", perms.InvalidPermutationError, "blank comma field in permutation ',1,1'"),
        ("1,1,", perms.InvalidPermutationError, "blank comma field in permutation '1,1,'"),
        ("1, ,1", perms.InvalidPermutationError, "blank comma field in permutation '1, ,1'"),
    ],
    ids=["not-a-number", "zero-label", "negative-label", "stray-letter", "missing-label",
         "blank-inner-field", "leading-comma", "trailing-comma", "space-only-field"],
)
def test_parse_messages(text, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        perms.GenStirlingPerm.parse(text)


def test_parse_reads_spaces_and_commas_alike():
    for text in ("1 2 2 1", "1  2 2 1", "1, 2, 2, 1", "1,2 2,1", " 1,2,2,1 "):
        assert perms.GenStirlingPerm.parse(text).word == (1, 2, 2, 1)


def test_parse_converts_each_symbol_once(monkeypatch):
    converted = []

    def counted(value):
        converted.append(value)
        return int(value)

    monkeypatch.setattr(perms, "int", counted, raising=False)
    for text in ("1,2,2,1", "1221"):
        converted.clear()
        assert perms.GenStirlingPerm.parse(text).word == (1, 2, 2, 1)
        assert converted == ["1", "2", "2", "1"]


@pytest.mark.parametrize(
    "call",
    [perms.bundled_multiplicities, perms.sample_bundled, perms.enumerate_bundled],
    ids=["multiplicities", "sample", "enumerate"],
)
def test_bundled_families_refuse_zero_k_in_one_wording(call):
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        call(3, 0)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        call(0, 0)


@pytest.mark.parametrize(
    "call",
    [perms.uniform_multiplicities, perms.sample_k_stirling, perms.enumerate_k_stirling],
    ids=["multiplicities", "sample", "enumerate"],
)
@pytest.mark.parametrize(
    "n,k,message",
    [(0, 0, "k must be >= 1"), (3, 0, "k must be >= 1"), (0, -5, "k must be >= 1"),
     (-1, 2, "n must be >= 0"), (-1, 0, "n must be >= 0")],
)
def test_k_stirling_families_refuse_bad_n_and_k_in_one_wording(call, n, k, message):
    """One rule at every order: the empty word does not excuse k < 1."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(n, k)


def test_parse_and_compact():
    p = perms.GenStirlingPerm.parse("1,2,2,1")
    assert p.word == (1, 2, 2, 1)
    assert p.compact() == "1221"
    assert perms.GenStirlingPerm.parse("1221") == p
    assert p.uniform_k == 2
    q = perms.GenStirlingPerm.parse("1,2,2,2,1,1")
    assert q.multiplicities == (3, 3)


# ---------------------------------------------------------------------------
# counting and enumeration
# ---------------------------------------------------------------------------


def test_count_k_stirling_frozen_values():
    assert [perms.count_k_stirling(n, 2) for n in range(1, 6)] == [1, 3, 15, 105, 945]
    assert [perms.count_k_stirling(n, 3) for n in range(1, 5)] == [1, 4, 28, 280]
    assert [perms.count_k_stirling(n, 1) for n in range(1, 6)] == [
        math.factorial(n) for n in range(1, 6)
    ]


def test_count_bundled_frozen_values():
    assert [perms.count_bundled(n, 1) for n in range(1, 6)] == [1, 2, 10, 80, 880]
    assert [perms.count_bundled(n, 2) for n in range(1, 6)] == [1, 3, 21, 231, 3465]


def test_count_edges_frozen_values():
    # at k = 0 label 1 has no copies: the 2-Stirling permutations of 2..n
    assert [perms.count_bundled(n, 0) for n in range(1, 7)] == [1, 1, 3, 15, 105, 945]
    assert [perms.count_k_stirling(0, k) for k in range(1, 6)] == [1] * 5


@pytest.mark.parametrize(
    "count,n,k,message",
    [
        (perms.count_k_stirling, -1, 2, "need n >= 0 and k >= 1, got n=-1, k=2"),
        (perms.count_k_stirling, 3, 0, "need n >= 0 and k >= 1, got n=3, k=0"),
        (perms.count_k_stirling, 0, 0, "need n >= 0 and k >= 1, got n=0, k=0"),
        (perms.count_bundled, 0, 1, "need n >= 1 and k >= 0, got n=0, k=1"),
        (perms.count_bundled, -1, 2, "need n >= 1 and k >= 0, got n=-1, k=2"),
        (perms.count_bundled, 3, -1, "need n >= 1 and k >= 0, got n=3, k=-1"),
    ],
)
def test_count_argument_messages(count, n, k, message):
    with pytest.raises(ValueError) as raised:
        count(n, k)
    assert str(raised.value) == message


def test_family_counts_are_the_gap_insertion_product():
    """Both family counts come from count_generalized; each equals the
    family's own product formula."""
    for k in range(1, 6):
        for n in range(30):
            assert perms.count_k_stirling(n, k) == oracles.count_k_stirling_product(n, k)
    for k in range(6):
        for n in range(1, 30):
            assert perms.count_bundled(n, k) == oracles.count_bundled_product(n, k), (n, k)


@pytest.mark.parametrize("mult", SMALL_MULTISETS)
def test_count_and_enumeration_match_brute_force(mult):
    words = list(oracles.stirling_words(mult))
    assert perms.count_generalized(mult) == len(words)
    enumerated = [p.word for p in perms.enumerate_generalized(mult)]
    assert enumerated == sorted(words)
    assert len(set(enumerated)) == len(enumerated)


def test_bundled_enumeration_is_generalized_with_bundled_multiset():
    got = [p.word for p in perms.enumerate_bundled(3, 1)]
    ref = [p.word for p in perms.enumerate_generalized((1, 3, 3))]
    assert got == ref


def test_enumeration_cap():
    with pytest.raises(perms.EnumerationCapError):
        list(perms.enumerate_k_stirling(9, 3, cap=1000))
    # the count is checked before the first word, not after the last
    with pytest.raises(perms.EnumerationCapError):
        next(perms.enumerate_generalized((2,) * 9, cap=10**6))


def _random_multisets(count: int) -> list[tuple[int, ...]]:
    rng = random.Random(20081)
    return [
        tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6))) for _ in range(count)
    ]


@pytest.mark.parametrize(
    "mults",
    [SMALL_MULTISETS, _random_multisets(200), [(2,) * 7]],
    ids=["small", "random-200", "k2-n7"],
)
def test_enumeration_matches_insertion_oracle(mults):
    for mult in mults:
        enumerated = [p.word for p in perms.enumerate_generalized(mult)]
        assert enumerated == oracles.enumerate_by_insertion(mult), mult
        assert all(perms.validate_word(w, mult) for w in enumerated), mult


# every multiset of up to 5 labels with multiplicities up to 3, and those of
# 6 labels with at most 2000 words (all 6-label ones are 10 million words)
DFS_GRID = [
    mult
    for n in range(7)
    for mult in itertools.product(range(1, 4), repeat=n)
    if n < 6 or perms.count_generalized(mult) <= 2000
]


def test_enumeration_matches_dfs_oracle_on_small_multisets():
    for mult in DFS_GRID:
        enumerated = [p.word for p in perms.enumerate_generalized(mult)]
        assert enumerated == list(oracles.enumerate_by_dfs(mult)), mult


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=7).filter(
        lambda mult: perms.count_generalized(mult) <= 20_000
    )
)
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_dfs_oracle_on_random_multisets(mult):
    enumerated = [p.word for p in perms.enumerate_generalized(mult)]
    assert enumerated == list(oracles.enumerate_by_dfs(mult))


@pytest.mark.parametrize("total,endings", [(0, 64), (50, 3), (2**15, 1)])
def test_enumeration_does_not_depend_on_the_cache_bounds(monkeypatch, total, endings):
    """A cache emptied at every store, or one that refuses most states,
    yields the same words."""
    monkeypatch.setattr(perms, "_CACHE_TOTAL", total)
    monkeypatch.setattr(perms, "_CACHE_ENDINGS", endings)
    for mult in [(2,) * 6, (3,) * 5, (1, 3, 3, 3, 3), (2, 1, 3, 1, 2), (1,) * 7]:
        enumerated = [p.word for p in perms.enumerate_generalized(mult)]
        assert enumerated == list(oracles.enumerate_by_dfs(mult)), mult


def test_enumeration_cache_is_bounded(monkeypatch):
    """The cache is emptied once it holds more than _CACHE_TOTAL endings: at
    100 the whole of (3,)*5 peaks at about 0.03 MB traced, 0.66 MB when the
    cache is never emptied."""
    monkeypatch.setattr(perms, "_CACHE_TOTAL", 100)
    tracemalloc.start()
    try:
        count = sum(1 for _ in perms.enumerate_generalized((3,) * 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 3640
    assert peak < 2**18


# sha256 of the enumeration order ("\n".join(",".join(word))), frozen from the
# gap-insertion-and-sort enumerator
FROZEN_ORDER = {
    (2,) * 7: "59ded1c5ce033372689a0f743a8a4e531d86858192f6becf2edd3b1758c48a46",
    (3,) * 5: "21b87a1e7c22a9d7c453b6009cc60718fa195c5c87cd3de5d25c607b913a405a",
    (1, 3, 3, 3, 3, 3): "f9907eda891f4eb61938a0265979af83b3f15f6cf67d18dd0f7b0d4c00591dd4",
    (1, 2, 2, 3, 3): "cb2c98c470f1f730a71abd4f25db9495b581de03dc6b308095b5b5f4b00e776f",
    (2, 1, 3, 1, 2): "122c0086f6d8d3dbe5cbfd4f518cb3902fbe00e2ade33f2e86f66746e0e76f2f",
    (1,) * 7: "8d6ce2d29955604b8334682fa9b56ac461900441efb37853b6acb3068cd822ac",
    (4, 1, 1, 4): "13a7451e9765ea6de36d70294b615e7498894aa07a25aaf92f654450be8b47d4",
}


@pytest.mark.parametrize("mult", list(FROZEN_ORDER), ids=str)
def test_enumeration_order_frozen(mult):
    text = "\n".join(",".join(map(str, p.word)) for p in perms.enumerate_generalized(mult))
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_ORDER[mult]


def test_enumeration_streams():
    """The first words arrive without the other 34 million being built."""
    tracemalloc.start()
    try:
        words = [p.word for p in itertools.islice(
            perms.enumerate_generalized((2,) * 9, cap=10**9), 1000)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words == sorted(set(words)) and len(words) == 1000
    assert words[0] == tuple(x for label in range(1, 10) for x in (label, label))
    assert peak < 2 * 2**20


def test_enumeration_of_a_long_word_does_not_recurse():
    mult = (3000, 1, 1)
    words = [p.word for p in itertools.islice(perms.enumerate_generalized(mult), 5)]
    assert words[:3] == [(1,) * 3000 + (2, 3), (1,) * 3000 + (3, 2), (1,) * 2999 + (2, 1, 3)]
    assert all(perms.validate_word(w, mult) for w in words)


def test_enumeration_of_a_long_word_holds_one_prefix():
    """The search holds one form of its path, not one per depth: the first
    words of a 3002-symbol multiset take far less than the 36 MB of a tuple
    per prefix."""
    tracemalloc.start()
    try:
        words = [p.word for p in itertools.islice(perms.enumerate_generalized((3000, 1, 1)), 5)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words[0] == (1,) * 3000 + (2, 3)
    assert peak < 2**20


def test_enumeration_of_the_empty_multiset_is_one_empty_word():
    assert [p.word for p in perms.enumerate_generalized(())] == [()]


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)
)
@settings(max_examples=60, deadline=None)
def test_count_formula_matches_enumeration(mult):
    mult = tuple(mult)
    assert perms.count_generalized(mult) == len(list(perms.enumerate_generalized(mult)))


# ---------------------------------------------------------------------------
# random growth
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_grown_permutations_are_valid(seed):
    grower = perms.k_stirling_grower(3, seed)
    grower.grow_to(12)
    p = grower.permutation()
    assert p.multiplicities == perms.uniform_multiplicities(12, 3)

    grower = perms.bundled_grower(2, seed)
    grower.grow_to(8)
    q = grower.permutation()
    assert q.multiplicities == perms.bundled_multiplicities(8, 2)


def test_sampler_is_uniform_chi_square():
    """10000 draws over the 15 permutations of order 3; the chi-square test
    at the 0.1 percent level is stable under the fixed seed."""
    support = [p.word for p in perms.enumerate_k_stirling(3, 2)]
    counts = Counter(perms.sample_k_stirling(3, 2, seed).word for seed in range(10000))
    observed = [counts.get(w, 0) for w in support]
    _, pvalue = chi_square_gof(observed, [1 / 15] * 15)
    assert pvalue > 1e-3


def _exactness_cases():
    cases = [
        (f"k-stirling-n{n}-k{k}", (n, k), perms.sample_k_stirling, perms.uniform_multiplicities(n, k))
        for k in (1, 2, 3, 4)
        for n in (0, 1, 2, 6, 40, 3000)
    ]
    cases += [
        (f"bundled-n{n}-k{k}", (n, k), perms.sample_bundled, perms.bundled_multiplicities(n, k))
        for k in (1, 2, 3)
        for n in (1, 2, 6, 40, 1000)
    ]
    draw = random.Random(20081)
    for index in range(7):
        labels = draw.randint(2, 30) if index < 5 else draw.randint(500, 2000)
        mult = tuple(draw.randint(1, 6) for _ in range(labels))
        cases.append((f"generalized-{index}", (mult,), perms.sample_generalized, mult))
    return cases


EXACTNESS_CASES = _exactness_cases()


@pytest.mark.parametrize(
    "args,sampler,mult", [c[1:] for c in EXACTNESS_CASES], ids=[c[0] for c in EXACTNESS_CASES]
)
def test_sampler_matches_growth_oracle_exactly(args, sampler, mult):
    """Same word, and the shared generator left in the same state, as growing
    the word one label at a time, for 200 seeds (10 from 1000 labels on).
    The sampler does not scan its words, so each is validated here."""
    for seed in range(200 if len(mult) < 1000 else 10):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        word = sampler(*args, fast)
        assert perms.validate_word(word.word, mult)
        assert word == oracles.sample_by_growth(mult, slow)
        assert fast.bit_generator.state == slow.bit_generator.state
    # an integer seed is the same stream as its Generator
    assert sampler(*args, 7) == oracles.sample_by_growth(mult, np.random.default_rng(7))


def test_generalized_sampler_is_uniform_chi_square():
    """6000 draws over the 12 permutations of the non-uniform multiset (2, 1, 3)."""
    mult = (2, 1, 3)
    support = [p.word for p in perms.enumerate_generalized(mult)]
    rng = np.random.default_rng(2008)
    counts = Counter(perms.sample_generalized(mult, rng).word for _ in range(6000))
    assert set(counts) <= set(support)
    _, pvalue = chi_square_gof([counts.get(w, 0) for w in support], [1 / 12] * 12)
    assert pvalue > 1e-3


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: perms.sample_k_stirling(-1, 2), "n must be >= 0"),
        (lambda: perms.sample_k_stirling(0, 0), "k must be >= 1"),
        (lambda: perms.sample_bundled(0, 0), "n must be >= 1"),
        (lambda: perms.sample_bundled(2, 0), "k must be >= 1"),
        (lambda: perms.sample_generalized((2, 0)), "multiplicities must be positive"),
        (lambda: perms.sample_generalized((0,)), r"^multiplicities must be positive, got \(0,\)$"),
        (lambda: perms.sample_generalized(np.array([3, -1, 2])),
         r"^multiplicities must be positive, got \(3, -1, 2\)$"),
    ],
    ids=["k-stirling-n", "k-stirling-k", "bundled-n", "bundled-k", "generalized-mult",
         "generalized-only-zero", "generalized-negative-numpy"],
)
def test_sampler_argument_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class _GapsFrom(np.random.Generator):
    """A generator whose ``integers`` returns fixed gaps, one per label."""

    def __init__(self, gaps):
        super().__init__(np.random.PCG64(0))
        self.gaps = np.array(gaps)

    def integers(self, low, high, *args, **kwargs):
        return self.gaps


@pytest.mark.parametrize(
    "gaps", [(0, 3, 0), (0, 0, -1), (1, 0, 0)], ids=["past-the-end", "negative", "first-label"]
)
def test_sampler_rejects_a_gap_outside_its_bound(gaps):
    """The one check that stands in for scanning the word: at (2, 2, 2) the
    bounds are 1, 3 and 5."""
    assert perms.sample_generalized((2, 2, 2), _GapsFrom((0, 2, 4))).word == (1, 1, 2, 2, 3, 3)
    with pytest.raises(perms.InvalidPermutationError, match="outside the word"):
        perms.sample_generalized((2, 2, 2), _GapsFrom(gaps))


def test_sampler_table_follows_the_multiset_it_is_called_with():
    """The table kept for the last multiset is rebuilt whenever another
    comes in between, so interleaved multisets still give the grower's
    words and generator states: (2,)*5, (2,)*6, (2,)*5 again, the same
    multiset as a list, and one with ones."""
    calls = [(2,) * 5, (2,) * 6, (2,) * 5, [2, 2, 2, 2, 2], (1, 3, 1, 1, 2), (2,) * 5]
    for seed in range(20):
        for mult in calls:
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            word = perms.sample_generalized(mult, fast)
            assert word == oracles.sample_by_growth(tuple(mult), slow)
            assert word.multiplicities == tuple(mult)
            assert fast.bit_generator.state == slow.bit_generator.state


def test_sampler_table_keeps_no_error():
    """A multiset with a zero is refused on every call, not only the first."""
    for _ in range(3):
        with pytest.raises(ValueError, match="multiplicities must be positive"):
            perms.sample_generalized((2, 0, 2), 1)
        assert perms.sample_generalized((2, 2), 1).multiplicities == (2, 2)


def test_sampler_table_bounds_are_read_only():
    perms.sample_generalized((2, 1, 3), 0)
    mult, bounds, runs = perms._gap_table((2, 1, 3))
    assert mult == (2, 1, 3) and runs == ((1, 1), (2,), (3, 3, 3))
    assert bounds.tolist() == [1, 3, 4]
    with pytest.raises(ValueError, match="read-only"):
        bounds[0] = 5


def test_sampler_table_keeps_only_the_last_multiset():
    """The table of a large multiset (about 100 bytes a label) is let go as
    soon as a word of another multiset is drawn."""
    tracemalloc.start()
    try:
        perms.sample_k_stirling(10**5, 2, 0)
        held, _ = tracemalloc.get_traced_memory()
        perms.sample_k_stirling(3, 2, 0)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held > 5e6, held
    assert after < 1e6, after


def test_check_multiplicities_returns_python_ints():
    out = perms.check_multiplicities(np.array([3, 1, 2], dtype=np.int64))
    assert out == (3, 1, 2) and all(type(m) is int for m in out)
    assert perms.check_multiplicities(np.arange(1, 4, dtype=np.int32)) == (1, 2, 3)
    assert perms.check_multiplicities([]) == ()
    assert perms.check_multiplicities(np.array([], dtype=np.int64)) == ()


def test_sample_respects_seed():
    a = perms.sample_k_stirling(20, 2, 123)
    b = perms.sample_k_stirling(20, 2, 123)
    c = perms.sample_k_stirling(20, 2, 124)
    assert a == b
    assert a != c  # 945... choices at order 20, a collision would be a bug


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_stat_profile_worked_example():
    p = perms.GenStirlingPerm.parse("112233321")
    prof = perms.stat_profile(p)
    assert (prof.ascents, prof.descents, prof.plateaux) == (3, 3, 4)
    assert prof.j_ascents == (0, 2, 0)
    assert prof.j_descents == (0, 0, 2)
    assert prof.j_plateaux == (3, 1)


def test_stat_profile_singletons():
    prof = perms.stat_profile(perms.GenStirlingPerm.parse("1"))
    assert (prof.ascents, prof.descents, prof.plateaux) == (1, 1, 0)


@pytest.mark.parametrize("mult", SMALL_MULTISETS)
def test_stat_profile_matches_direct_definition(mult):
    kmax = max(mult)
    for p in perms.enumerate_generalized(mult):
        ref = oracles.direct_stats(p.word, kmax)
        prof = perms.stat_profile(p)
        assert prof.ascents == ref["ascents"]
        assert prof.descents == ref["descents"]
        assert prof.plateaux == ref["plateaux"]
        assert prof.j_ascents == ref["j_ascents"]
        assert prof.j_descents == ref["j_descents"]
        assert prof.j_plateaux == ref["j_plateaux"]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_stat_identities_on_random_permutations(seed, k):
    n = 15
    p = perms.sample_k_stirling(n, k, seed)
    prof = perms.stat_profile(p)
    ell = n * k
    assert prof.ascents + prof.descents + prof.plateaux == ell + 1
    assert prof.ascents == sum(prof.j_ascents) + 1
    assert prof.descents == sum(prof.j_descents) + 1
    assert prof.plateaux == sum(prof.j_plateaux)
    # ordinal shift between ascents and descents
    for j in range(1, k):
        assert prof.j_ascent(j) == prof.j_descent(j + 1)
        assert prof.j_ascent(j) + prof.j_plateau(j) == n
    for j in range(2, k + 1):
        assert prof.j_descent(j) + prof.j_plateau(j - 1) == n


def _histograms(n: int, k: int) -> dict[str, list[int]]:
    """Counts of k-Stirling permutations of order n by ascents, descents
    and plateaux, listed from the smallest value that occurs."""
    counts = {"ascents": Counter(), "descents": Counter(), "plateaux": Counter()}
    for p in perms.enumerate_k_stirling(n, k):
        prof = perms.stat_profile(p)
        for name, counter in counts.items():
            counter[getattr(prof, name)] += 1
    return {name: [c[v] for v in range(min(c), max(c) + 1)] for name, c in counts.items()}


# second-order Eulerian numbers, and the Eulerian numbers at k = 1
EULERIAN_ROWS = {
    (4, 2): [1, 22, 58, 24],
    (5, 2): [1, 52, 328, 444, 120],
    (6, 2): [1, 114, 1452, 4400, 3708, 720],
    (5, 1): [1, 26, 66, 26, 1],
}


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (5, 1), (4, 3), (3, 4)])
def test_bona_equidistribution(n, k):
    """Bona: on Stirling permutations (k = 2) ascents and plateaux are
    equidistributed, by the second-order Eulerian numbers.  Descents follow
    ascents for every k, by reflection; at k >= 3 plateaux do not."""
    hist = _histograms(n, k)
    assert hist["descents"] == hist["ascents"]
    assert sum(hist["ascents"]) == perms.count_k_stirling(n, k)
    if (n, k) in EULERIAN_ROWS:
        assert hist["ascents"] == EULERIAN_ROWS[n, k]
    if k == 2:
        assert hist["plateaux"] == hist["ascents"]
    if k >= 3:
        assert hist["plateaux"] != hist["ascents"]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_reflection_swaps_ascents_and_descents(seed):
    p = perms.sample_k_stirling(10, 3, seed)
    r = perms.reflect(p)
    assert r.word == p.word[::-1]
    assert perms.reflect(r) == p
    a, b = perms.stat_profile(p), perms.stat_profile(r)
    assert (a.ascents, a.descents) == (b.descents, b.ascents)
    assert a.plateaux == b.plateaux


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_block_decomposition_worked_example():
    p = perms.GenStirlingPerm.parse("112233321445554666")
    d = perms.block_decomposition(p)
    assert d.sizes_by_label == (9, 6, 3)
    assert d.sizes_descending == (9, 6, 3)
    assert d.count == 3
    assert [b.label for b in d.blocks_by_label] == [1, 4, 6]


@pytest.mark.parametrize("mult", SMALL_MULTISETS)
def test_blocks_match_cut_point_oracle(mult):
    for p in perms.enumerate_generalized(mult):
        spans = perms.block_spans(p.word)
        assert [(b.start, b.stop) for b in spans] == oracles.block_intervals(p.word)
        # spans tile the word and each starts at its label's first occurrence
        pos = 0
        for b in spans:
            assert b.start == pos
            assert p.word[b.start] == b.label == min(p.word[b.start : b.stop])
            pos = b.stop
        assert pos == len(p.word)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_block_decomposition_invariants(seed):
    p = perms.sample_k_stirling(12, 2, seed)
    d = perms.block_decomposition(p)
    assert sum(d.sizes_by_label) == p.length
    assert sorted(d.sizes_by_label, reverse=True) == list(d.sizes_descending)
    assert d.count == len(d.blocks_by_label)
    # the first block always carries label 1
    assert d.blocks_by_label[0].label == 1
