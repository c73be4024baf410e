"""Generalized Stirling permutations.

A generalized Stirling permutation of the multiset ``{1^{k_1}, ..., n^{k_n}}``
is a word that contains the label ``i`` exactly ``k_i`` times and in which
every symbol lying between two occurrences of ``i`` is >= ``i``.  Two families
get dedicated helpers:

* k-Stirling permutations: all multiplicities equal to ``k``;
* k-bundled Stirling permutations: multiset ``{1^k, 2^{k+2}, ..., n^{k+2}}``.

The module provides validation, exact counting, lexicographic enumeration,
uniform sampling (via the gap-insertion growth process), the ascent /
descent / plateau statistics with their occurrence-index refinements, the
block decomposition, and the reflection involution.

Conventions for statistics: a word ``a_1 ... a_l`` is padded with ``a_0 =
a_{l+1} = 0``.  Index ``i`` (``0 <= i <= l``) is an ascent if ``a_i <
a_{i+1}``, a descent if ``a_i > a_{i+1}``, a plateau if ``a_i = a_{i+1}``,
so the three totals always sum to ``l + 1``.  The refined statistics ignore
the border indices: a j-ascent (j-plateau) is an ascent (plateau) at ``1 <=
i <= l`` whose left symbol ``a_i`` is the j-th occurrence of its label; a
j-descent is a descent at ``1 <= i < l`` whose right symbol ``a_{i+1}`` is
the j-th occurrence of its label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from ._rng import as_generator

Multiplicities = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10_000_000

# byte i -> the ASCII digit i, for the compact form of words with labels 1..9
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class InvalidPermutationError(ValueError):
    """Word is not a generalized Stirling permutation of the stated multiset."""


class EnumerationCapError(RuntimeError):
    """Requested enumeration would exceed the configured output cap."""


# ---------------------------------------------------------------------------
# multisets
# ---------------------------------------------------------------------------


def check_multiplicities(mult: Sequence[int]) -> Multiplicities:
    """Validate a multiplicity vector (all entries positive) and return it as a tuple."""
    out = tuple(map(int, mult))
    if out and min(out) < 1:
        raise ValueError(f"multiplicities must be positive, got {out}")
    return out


def uniform_multiplicities(n: int, k: int) -> Multiplicities:
    """Multiset of a k-Stirling permutation of order n: (k, k, ..., k)."""
    if n < 0 or (n > 0 and k < 1):
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    return (k,) * n


def bundled_multiplicities(n: int, k: int) -> Multiplicities:
    """Multiset of a k-bundled Stirling permutation: (k, k+2, ..., k+2).

    k = 0 is rejected: label 1 would have no occurrence (see
    :func:`count_bundled`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k,) + (k + 2,) * (n - 1)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_word(word: Sequence[int], mult: Sequence[int]) -> bool:
    """True iff ``word`` is a generalized Stirling permutation of ``{i^{mult[i-1]}}``.

    >>> validate_word((1, 2, 2, 2, 1, 1), (3, 3))
    True
    >>> validate_word((2, 1, 2), (1, 2))
    False
    """
    mult = (0,) + tuple(mult)
    if any(m < 1 for m in mult[1:]) or len(word) != sum(mult):
        return False
    n = len(mult) - 1
    # One pass with the nesting stack of the labels seen but not yet used up.
    # A first occurrence must not be smaller than the innermost open label;
    # every later one must be that label and within its multiplicity.  With
    # the length right, no count above its multiplicity means every count is.
    seen = [0] * (n + 1)
    stack: list[int] = []
    for x in word:
        if not 1 <= x <= n:
            return False
        if not seen[x]:
            if stack and x < stack[-1]:
                return False
            stack.append(x)
        elif seen[x] == mult[x] or stack[-1] != x:
            return False
        seen[x] += 1
        if seen[x] == mult[x]:
            stack.pop()
    return True


# ---------------------------------------------------------------------------
# the permutation object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenStirlingPerm:
    """A validated generalized Stirling permutation.

    ``word`` holds the symbols left to right, ``multiplicities[i-1]`` the
    number of occurrences of label ``i``.  Construction validates both the
    multiset and the nesting property and raises
    :class:`InvalidPermutationError` otherwise.
    """

    word: tuple[int, ...]
    multiplicities: Multiplicities

    def __post_init__(self) -> None:
        word = tuple(self.word)
        mult = tuple(self.multiplicities)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "multiplicities", mult)
        if not validate_word(word, mult):
            raise InvalidPermutationError(
                f"{word!r} is not a Stirling permutation of multiset {mult!r}"
            )

    @classmethod
    def _trusted(cls, word: tuple[int, ...], mult: Multiplicities) -> "GenStirlingPerm":
        """Wrap a word that is already known to be valid, skipping validation."""
        perm = object.__new__(cls)
        # the frozen __setattr__ is bypassed; writing the instance dict is
        # the cheapest way, and enumeration and sampling pay it once per word
        fields = perm.__dict__
        fields["word"] = word
        fields["multiplicities"] = mult
        return perm

    @classmethod
    def from_word(cls, word: Iterable) -> "GenStirlingPerm":
        """Build from a bare word, each symbol converted by ``int``; the
        multiset is inferred from symbol counts."""
        w = tuple(map(int, word))
        n = max(w, default=0)
        counts = [0] * n
        for x in w:
            if not 1 <= x <= n:
                raise InvalidPermutationError(f"labels must be 1..n, got {x}")
            counts[x - 1] += 1
        return cls(w, tuple(counts))

    @classmethod
    def parse(cls, text: str) -> "GenStirlingPerm":
        """Parse ``"1221"`` (single-digit labels) or ``"1,2,2,1"``."""
        text = text.strip()
        if not text:
            return cls((), ())
        if "," in text or " " in text:
            # without whitespace and framed in commas, a blank field is ",,"
            if ",," in "," + "".join(text.split()) + ",":
                raise InvalidPermutationError(f"blank comma field in permutation {text!r}")
            return cls.from_word(text.replace(",", " ").split())
        if not text.isdigit():
            raise InvalidPermutationError(f"cannot parse permutation {text!r}")
        return cls.from_word(text)

    @property
    def order(self) -> int:
        """Number of distinct labels n."""
        return len(self.multiplicities)

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def max_multiplicity(self) -> int:
        return max(self.multiplicities, default=0)

    @property
    def uniform_k(self) -> int | None:
        """The common multiplicity k if the multiset is {1^k,...,n^k}, else None."""
        if not self.multiplicities:
            return None
        k = self.multiplicities[0]
        return k if all(m == k for m in self.multiplicities) else None

    def compact(self) -> str | None:
        """Space-free string form, available when all labels are single digits."""
        if len(self.multiplicities) > 9:  # the order, without the property call
            return None
        return bytes(self.word).translate(_DIGITS).decode("ascii")

    def to_json_dict(self) -> dict:
        out: dict = {"word": list(self.word), "multiplicities": list(self.multiplicities)}
        c = self.compact()
        if c is not None:
            out["compact"] = c
        return out


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def count_generalized(mult: Sequence[int]) -> int:
    """Number of generalized Stirling permutations of ``{1^{k_1},...,n^{k_n}}``.

    Insertion of the runs ``i^{k_i}`` in increasing label order gives the
    product of gap counts ``prod_{i=1}^{n-1} (k_1 + ... + k_i + 1)``.

    >>> count_generalized((3, 3))
    4
    """
    mult = check_multiplicities(mult)
    total = 1
    acc = 0
    for m in mult[:-1]:
        acc += m
        total *= acc + 1
    return total


def count_k_stirling(n: int, k: int) -> int:
    """Number of k-Stirling permutations of order n: ``prod_{i=1}^{n-1}(k*i+1)``.

    >>> [count_k_stirling(n, 2) for n in range(1, 6)]
    [1, 3, 15, 105, 945]
    """
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    return count_generalized(uniform_multiplicities(n, k))


def count_bundled(n: int, k: int) -> int:
    """Number of k-bundled Stirling permutations: ``prod_{i=1}^{n-1}(i*(k+2)-1)``.

    Defined for ``k >= 0``: for ``k = 0`` the label 1 disappears from the
    multiset, which leaves the 2-Stirling permutations of ``2..n``.

    >>> [count_bundled(n, 1) for n in range(1, 6)]
    [1, 2, 10, 80, 880]
    """
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    if k == 0:
        return count_k_stirling(n - 1, 2)
    return count_generalized(bundled_multiplicities(n, k))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


# The cache of endings in _enumerate_runs.  A state is cached once at most
# _CACHE_LENGTH symbols are left, however many labels are still unseen.  A
# state with more than _CACHE_ENDINGS endings is cached as None and searched
# symbol by symbol whenever it recurs.  The cache is emptied before a store
# once it holds more than _CACHE_TOTAL endings (None counts as one), so it
# holds at most 2**15 + 64 endings of at most 16 symbols each, in the
# caller's form (tuples of labels for enumerate_generalized, text for the
# CLI): a few MB, however many words follow.
_CACHE_LENGTH = 16
_CACHE_ENDINGS = 64
_CACHE_TOTAL = 2**15


def enumerate_generalized(
    mult: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[GenStirlingPerm]:
    """Yield every generalized Stirling permutation of the multiset, in
    lexicographic word order.

    Raises :class:`EnumerationCapError` before the first word when the exact
    count exceeds ``cap``.  Otherwise the words are streamed from one
    depth-first search over prefixes, with the state of :func:`validate_word`
    (the seen counts and the stack of open labels).  The symbols that may
    extend a prefix are, in increasing order, the innermost open label and
    then every unseen label above it; every such prefix completes, so the
    search never backtracks out of a dead end.  Once no label is unseen, the
    rest of the word is forced: the remaining copies of the open labels,
    innermost first.

    The open labels are exactly the partly seen ones, in increasing order,
    so the seen counts alone fix how a prefix can end.  Near the end of the
    word the search therefore caches the endings of each state it leaves,
    collected from those of its children, and when the state recurs under
    another prefix it appends each cached ending instead of searching again.
    The cache is bounded (see ``_CACHE_TOTAL``), so memory is O(length + n)
    plus a few MB however many words follow.

    The search is ``_enumerate_runs``, which builds its prefixes and endings
    from a form of each label given by its caller.  Here the form of label
    ``x`` is ``(x,)``, so a word is a prefix tuple plus an ending tuple; the
    ``enumerate`` command runs the same search on each label's text and
    writes the words with no permutation object.
    """
    mult = check_multiplicities(mult)
    trusted = GenStirlingPerm._trusted
    symbols = [(x,) for x in range(len(mult) + 1)]
    for prefix, endings in _enumerate_runs(mult, cap, symbols):
        for rest in endings:
            yield trusted(prefix + rest, mult)


def _enumerate_runs(
    mult: Sequence[int], cap: int, symbols: Sequence
) -> Iterator[tuple[Sequence, list]]:
    """The search of :func:`enumerate_generalized`, as runs ``(prefix,
    endings)``: the words, in lexicographic order, are ``prefix + rest`` for
    each ``rest`` in ``endings``, run after run.

    ``symbols[x]`` is the caller's form of label ``x`` for x = 0..n, a tuple
    or a string; the prefix, the forced tail and every cached ending are
    concatenations of them, and a word is the concatenation of its symbols'
    forms.  A list of endings may be held in the cache and must not be
    changed.  Raises :class:`EnumerationCapError` before the first run when
    the exact count exceeds ``cap``.
    """
    mult = check_multiplicities(mult)
    total = count_generalized(mult)
    if total > cap:
        raise EnumerationCapError(f"{total} permutations exceed cap {cap}")
    n = len(mult)
    padded = (0,) + mult
    length = sum(mult)
    empty = symbols[0][:0]
    cache: dict[tuple[int, ...], list | None] = {}
    cached_size = 0
    # [depth, seen counts, endings so far or None] of each state on the
    # current path that was not cached when the search reached it
    collecting: list[list] = []
    seen = [0] * (n + 1)
    stack: list[int] = []
    word: list[int] = []
    # the form of word, and the length of the form of word[:d] for each d
    # below len(word): one form of the path, so memory stays O(length)
    prefix = empty
    cuts: list[int] = []
    unseen = n
    after = 0  # the next symbol at this depth must be larger than ``after``
    while True:
        depth = len(word)
        endings = None  # of the state at this depth, when known without searching
        if not unseen:
            tail = empty
            for label in reversed(stack):
                tail += symbols[label] * (padded[label] - seen[label])
            endings = [tail]
        elif not after and length - depth <= _CACHE_LENGTH:
            state = tuple(seen)
            if state in cache:
                endings = cache[state]
            else:
                collecting.append([depth, state, []])
        if endings is not None:
            yield prefix, endings
        else:
            top = stack[-1] if stack else 0
            if after < top:
                x = top
            else:
                x = after + 1
                while x <= n and seen[x]:
                    x += 1
            if x <= n:
                if not seen[x]:
                    stack.append(x)
                    unseen -= 1
                seen[x] += 1
                if seen[x] == padded[x]:
                    stack.pop()
                word.append(x)
                cuts.append(len(prefix))
                prefix += symbols[x]
                after = 0
                continue
        # leave the state: cache the endings collected for it, if any, and
        # add its endings to its parent's.  None here means too many (the
        # state was cached as None, or its collection overflowed), and then
        # its parent has too many as well.
        if collecting and collecting[-1][0] == depth:
            _, state, endings = collecting.pop()
            if cached_size > _CACHE_TOTAL:
                cache.clear()
                cached_size = 0
            cache[state] = endings
            cached_size += 1 if endings is None else len(endings)
        if collecting and collecting[-1][0] == depth - 1 and collecting[-1][2] is not None:
            parent = collecting[-1]
            if endings is None or len(parent[2]) + len(endings) > _CACHE_ENDINGS:
                parent[2] = None
            else:
                head = symbols[word[-1]]
                parent[2] += [head + rest for rest in endings]
        if not word:
            return
        # backtrack: undo the last symbol and try the next one after it
        x = word.pop()
        prefix = prefix[: cuts.pop()]
        if seen[x] == padded[x]:
            stack.append(x)
        seen[x] -= 1
        if not seen[x]:
            stack.pop()
            unseen += 1
        after = x


def enumerate_k_stirling(
    n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[GenStirlingPerm]:
    return enumerate_generalized(uniform_multiplicities(n, k), cap)


def enumerate_bundled(
    n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[GenStirlingPerm]:
    return enumerate_generalized(bundled_multiplicities(n, k), cap)


# ---------------------------------------------------------------------------
# uniform sampling / growth
# ---------------------------------------------------------------------------

# PermutationGrower draws the words of sample_generalized one label at a
# time; it and its two constructors stay while bench/tracer.py traces them
# by name.


class PermutationGrower:
    """Incremental uniform sampler.

    Each :meth:`grow_step` inserts the next label's run into a uniformly
    random gap of the current word.  Since every permutation of the enlarged
    multiset arises from exactly one (word, gap) pair, the snapshot after any
    number of steps is uniform, and successive snapshots realize the natural
    growth coupling of the whole family.
    """

    def __init__(self, multiplicity_of, seed=None) -> None:
        """``multiplicity_of(i)`` gives the multiplicity of label ``i >= 1``."""
        self._mult_of = multiplicity_of
        self._rng = as_generator(seed)
        self._word: list[int] = []
        self._mult: list[int] = []

    @property
    def order(self) -> int:
        return len(self._mult)

    def grow_step(self) -> None:
        label = self.order + 1
        m = int(self._mult_of(label))
        if m < 1:
            raise ValueError(f"multiplicity of label {label} must be positive")
        gap = int(self._rng.integers(0, len(self._word) + 1))
        self._word[gap:gap] = [label] * m
        self._mult.append(m)

    def grow_to(self, n: int) -> None:
        while self.order < n:
            self.grow_step()

    def permutation(self) -> GenStirlingPerm:
        return GenStirlingPerm(tuple(self._word), tuple(self._mult))


def k_stirling_grower(k: int, seed=None) -> PermutationGrower:
    if k < 1:
        raise ValueError("k must be >= 1")
    return PermutationGrower(lambda i: k, seed)


def bundled_grower(k: int, seed=None) -> PermutationGrower:
    if k < 1:
        raise ValueError("k must be >= 1")
    return PermutationGrower(lambda i: k if i == 1 else k + 2, seed)


def sample_generalized(mult: Sequence[int], seed=None) -> GenStirlingPerm:
    """Draw a uniformly random generalized Stirling permutation of the multiset.

    Label ``i``'s run goes into a uniform gap of the word of labels ``< i``,
    one of ``k_1 + ... + k_{i-1} + 1``.  All n gaps are drawn in one call;
    numpy draws an array of bounds element by element, so the word and the
    generator's state afterwards are those of :class:`PermutationGrower`.

    A run put into a gap of a Stirling permutation leaves it one, so with
    every gap within its bound the word is valid by construction: the
    bounds are checked in one comparison and the word is not scanned again.
    """
    import numpy as np

    mult = check_multiplicities(mult)
    bounds = np.cumsum((0,) + mult)[:-1] + 1
    gaps = as_generator(seed).integers(0, bounds)
    if not ((gaps >= 0) & (gaps < bounds)).all():
        raise InvalidPermutationError("a drawn gap is outside the word it goes into")
    word: list[int] = []
    for label, (m, gap) in enumerate(zip(mult, gaps.tolist()), start=1):
        word[gap:gap] = [label] * m
    return GenStirlingPerm._trusted(tuple(word), mult)


def sample_k_stirling(n: int, k: int, seed=None) -> GenStirlingPerm:
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return sample_generalized((k,) * n, seed)


def sample_bundled(n: int, k: int, seed=None) -> GenStirlingPerm:
    return sample_generalized(bundled_multiplicities(n, k), seed)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatProfile:
    """Ascent/descent/plateau counts of a permutation with their refinements.

    ``j_ascents[j-1]`` counts j-ascents for ``1 <= j <= kmax`` (``kmax`` =
    largest multiplicity); ``j_descents`` likewise; ``j_plateaux[j-1]``
    covers ``1 <= j <= kmax - 1``.  ``ascents``/``descents``/``plateaux``
    are the border-padded totals.
    """

    ascents: int
    descents: int
    plateaux: int
    j_ascents: tuple[int, ...]
    j_descents: tuple[int, ...]
    j_plateaux: tuple[int, ...]

    def j_ascent(self, j: int) -> int:
        return self.j_ascents[j - 1]

    def j_descent(self, j: int) -> int:
        return self.j_descents[j - 1]

    def j_plateau(self, j: int) -> int:
        return self.j_plateaux[j - 1]

    def to_json_dict(self) -> dict:
        return {
            "ascents": self.ascents,
            "descents": self.descents,
            "plateaux": self.plateaux,
            "jAscents": list(self.j_ascents),
            "jDescents": list(self.j_descents),
            "jPlateaux": list(self.j_plateaux),
        }


def stat_profile(perm: GenStirlingPerm) -> StatProfile:
    """Compute the :class:`StatProfile` of a permutation.

    >>> p = GenStirlingPerm.parse("112233321")
    >>> prof = stat_profile(p)
    >>> (prof.ascents, prof.descents, prof.plateaux)
    (3, 3, 4)
    >>> prof.j_plateaux
    (3, 1)
    """
    w = perm.word
    kmax = perm.max_multiplicity
    if not w:
        # a_0 = a_1 = 0: single plateau at the border
        return StatProfile(0, 0, 1, (), (), ())

    # one pass: seen[x] counts the copies of x so far, the pair's right
    # symbol b included, so a's ordinal is seen[a] (one less on a plateau)
    seen = [0] * (perm.order + 1)
    ja = [0] * (kmax + 1)
    jd = [0] * (kmax + 1)
    jp = [0] * (kmax + 1)
    a = w[0]
    seen[a] = 1
    for b in w[1:]:
        seen[b] += 1
        if a < b:
            ja[seen[a]] += 1
        elif a > b:
            jd[seen[b]] += 1
        else:
            jp[seen[a] - 1] += 1
        a = b
    # borders: an ascent before the word and a descent after it
    return StatProfile(
        1 + sum(ja),
        1 + sum(jd),
        sum(jp),
        tuple(ja[1 : kmax + 1]),
        tuple(jd[1 : kmax + 1]),
        tuple(jp[1:kmax]),
    )


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


class BlockSpan(NamedTuple):
    """One block: the half-open slice ``word[start:stop]``, which begins and
    ends with ``label`` (= the smallest symbol inside)."""

    label: int
    start: int
    stop: int
    size: int


def block_spans(word: Sequence[int]) -> list[BlockSpan]:
    """Blocks of a valid word in left-to-right position order.

    A block is a maximal substring that begins and ends with the same symbol.
    For a generalized Stirling permutation the blocks tile the word: each is
    the full span of its smallest symbol.
    """
    last: dict[int, int] = {}
    for pos, x in enumerate(word):
        last[x] = pos
    spans = []
    i = 0
    while i < len(word):
        j = last[word[i]]
        spans.append(BlockSpan(word[i], i, j + 1, j + 1 - i))
        i = j + 1
    return spans


@dataclass(frozen=True)
class BlockDecomposition:
    """Block decomposition of a permutation.

    ``blocks_by_label`` is ordered by block label (ascending), which is the
    order in which the blocks were created by the growth process, not their
    position in the word.  ``sizes_by_label`` are the corresponding sizes and
    ``sizes_descending`` their decreasing rearrangement.
    """

    blocks_by_label: tuple[BlockSpan, ...]
    sizes_by_label: tuple[int, ...]
    sizes_descending: tuple[int, ...]
    count: int

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "blocksByLabel": [
                {"label": b.label, "start": b.start, "stop": b.stop, "size": b.size}
                for b in self.blocks_by_label
            ],
            "sizesByLabel": list(self.sizes_by_label),
            "sizesDescending": list(self.sizes_descending),
        }


def block_decomposition(perm: GenStirlingPerm) -> BlockDecomposition:
    """Decompose a permutation into its blocks.

    >>> d = block_decomposition(GenStirlingPerm.parse("112233321445554666"))
    >>> d.count
    3
    >>> d.sizes_by_label
    (9, 6, 3)
    """
    spans = sorted(block_spans(perm.word), key=lambda b: b.label)
    sizes = tuple(b.size for b in spans)
    return BlockDecomposition(
        blocks_by_label=tuple(spans),
        sizes_by_label=sizes,
        sizes_descending=tuple(sorted(sizes, reverse=True)),
        count=len(spans),
    )


def reflect(perm: GenStirlingPerm) -> GenStirlingPerm:
    """Reverse the word.  An involution that swaps j-ascents with j-descents
    in the appropriate occurrence indices and preserves the multiset."""
    return GenStirlingPerm(perm.word[::-1], perm.multiplicities)
