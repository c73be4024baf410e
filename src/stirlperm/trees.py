"""Increasing trees: degree-weighted families, growth, enumeration, statistics.

Three concrete shapes appear throughout:

* ``AryIncreasingTree``: every node has ``arity`` ordered slots, at most one
  child per slot; labels increase away from the root.  With ``arity = k+1``
  these are in bijection with k-Stirling permutations.
* ``BundledIncreasingTree``: every node carries ``bundle_count`` ordered
  bundles, each an ordered sequence of children.  ``bundle_count = 1`` gives
  plane recursive trees; ``bundle_count = k+1`` trees encode k-bundled
  Stirling permutations.
* Degree-weight families ``(phi_0, c_1, c_2)`` with weight generating
  function ``phi(t) = phi_0 (1 + c_2 t / phi_0)^{c_1/c_2 + 1}`` (or the
  ``c_2 = 0`` exponential limit).  The total weight of order-n trees is
  ``phi_0 prod_{1<=j<n} (c_1 j + c_2)``.

Weighted plane trees grow by picking a node of out-degree d with weight
``a + b*d`` (``a/b = alpha``), then one of its ``d + 1`` child gaps
uniformly.  The node is drawn from a token list in which it appears
``a + b*d`` times, as ``grow_ary_tree`` draws from its list of free slots,
so growth takes linear time.  Uniform bundled trees have no grower of
their own: the bundle code is a bijection, so for m >= 2 a uniform
m-bundled tree is ``decode_bundled_tree(sample_bundled(n, m - 1))``, and for
m = 1 it is ``grow_plane_tree(plane_recursive_family(), n)``.  Enumeration
streams the trees of one order from one lexicographic search over
attachment arrays.

Each tree groups its children once, into the index that ``child`` and
``bundles_of`` read.  Each constructor fills the index in the loop that
checks its arrays, node by node, so the arrays are read once: a slot tree
seats each node in its parent's slot row as it checks it, and
``_bundle_index`` groups a bundled tree's nodes as it checks them.  A tree
valid by construction skips the checks: ``_from_valid`` builds a slot
tree's index with ``_slot_index``, a codec decoder hands a bundled tree's
``_from_valid`` the index its stack pass filled, and the bundled enumerator
writes its own through ``_trusted``.  JSON fields are checked once, where
they are read; a list whose items all have the expected type passes at C
speed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product, repeat
from operator import lt
from typing import Callable, Iterator, Sequence

from ._rng import as_generator
from .distributions import rational_binomial

GENERALIZED_PLANE = "generalizedPlane"
D_ARY = "dAry"
RECURSIVE = "recursive"


class InvalidTreeError(ValueError):
    """Array data does not describe an increasing tree of the stated shape."""


# ---------------------------------------------------------------------------
# degree-weight families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeWeightFamily:
    """A family of increasing trees weighted by out-degrees.

    ``kind`` is one of ``generalizedPlane`` (requires ``0 < -c2 < c1``),
    ``dAry`` (``c2 > 0`` and ``c1/c2 + 1`` an integer >= 2) or ``recursive``
    (``c2 = 0``).  ``phi0`` must be positive.
    """

    kind: str
    phi0: Fraction
    c1: Fraction
    c2: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi0", Fraction(self.phi0))
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))
        if self.phi0 <= 0 or self.c1 <= 0:
            raise ValueError("phi0 and c1 must be positive")
        if self.kind == GENERALIZED_PLANE:
            if not 0 < -self.c2 < self.c1:
                raise ValueError("generalizedPlane needs 0 < -c2 < c1")
        elif self.kind == D_ARY:
            if self.c2 <= 0:
                raise ValueError("dAry needs c2 > 0")
            d = self.c1 / self.c2 + 1
            if d.denominator != 1 or d < 2:
                raise ValueError("dAry needs c1/c2 + 1 to be an integer >= 2")
        elif self.kind == RECURSIVE:
            if self.c2 != 0:
                raise ValueError("recursive needs c2 = 0")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @property
    def arity(self) -> int:
        if self.kind != D_ARY:
            raise ValueError("arity is defined for dAry families only")
        return int(self.c1 / self.c2 + 1)

    @property
    def alpha(self) -> Fraction:
        """Repulsion parameter ``-1 - c1/c2`` of a generalizedPlane family."""
        if self.kind != GENERALIZED_PLANE:
            raise ValueError("alpha is defined for generalizedPlane families only")
        return -1 - self.c1 / self.c2

    def degree_weight(self, d: int) -> Fraction:
        """Weight ``phi_d`` attached to out-degree ``d``."""
        if d < 0:
            raise ValueError("degree must be >= 0")
        if self.kind == RECURSIVE:
            return self.phi0 * (self.c1 / self.phi0) ** d / math.factorial(d)
        exponent = self.c1 / self.c2 + 1
        return self.phi0 * rational_binomial(exponent, d) * (self.c2 / self.phi0) ** d

    def total_weight(self, n: int) -> Fraction:
        """Total weight ``phi0 prod_{1<=j<n} (c1*j + c2)`` of order-n trees of
        the family.

        >>> k_plane_family(2).total_weight(4)
        Fraction(15, 1)
        """
        if n < 1:
            raise ValueError("order must be >= 1")
        return self.phi0 * math.prod(self.c1 * j + self.c2 for j in range(1, n))

    def attach_probability(self, degree: int, order: int) -> Fraction:
        """Probability that the next node attaches to a fixed node of the given
        out-degree in a weighted random tree of the given order."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if self.kind == RECURSIVE:
            return Fraction(1, order)
        # a is alpha for generalizedPlane and minus the arity for dAry
        a = -1 - self.c1 / self.c2
        return (degree + a) / ((a + 1) * order - 1)


def ary_family(arity: int) -> DegreeWeightFamily:
    """d-ary trees: ``phi(t) = (1 + t)^d``; with ``arity = k+1`` the total
    weight of order-n trees equals the k-Stirling count."""
    if arity < 2:
        raise ValueError("arity must be >= 2")
    return DegreeWeightFamily(D_ARY, Fraction(1), Fraction(arity - 1), Fraction(1))


def k_plane_family(k: int) -> DegreeWeightFamily:
    """k-plane recursive trees: ``phi(t) = (1 - (k-1)t)^{-1/(k-1)}``, k >= 2.

    The total weight of order n+1 equals the k-Stirling count of order n.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return DegreeWeightFamily(GENERALIZED_PLANE, Fraction(1), Fraction(k), Fraction(-(k - 1)))


def bundled_family(bundle_count: int) -> DegreeWeightFamily:
    """m-bundled trees: ``phi(t) = (1 - t)^{-m}``; total weight of order n is
    ``prod_{l=1}^{n-1} (l(m+1) - 1)``."""
    if bundle_count < 1:
        raise ValueError("bundle_count must be >= 1")
    return DegreeWeightFamily(
        GENERALIZED_PLANE, Fraction(1), Fraction(bundle_count + 1), Fraction(-1)
    )


def plane_recursive_family() -> DegreeWeightFamily:
    """Plane recursive trees, the ``bundle_count = 1`` / ``k = 2`` case."""
    return bundled_family(1)


def recursive_family() -> DegreeWeightFamily:
    """Unordered recursive trees (exponential weight).  Growth only."""
    return DegreeWeightFamily(RECURSIVE, Fraction(1), Fraction(1), Fraction(0))


def tree_weight(tree, family: DegreeWeightFamily) -> Fraction:
    """Product of ``phi_{deg(v)}`` over all nodes of ``tree``.

    Meaningful on plane shapes (``BundledIncreasingTree`` with one bundle)
    for weighted families; zero when some degree is outside the family's
    support, so sums over a larger shape class stay correct.
    """
    w = Fraction(1)
    for d in tree.degrees():
        w *= family.degree_weight(d)
        if w == 0:
            return Fraction(0)
    return w


# ---------------------------------------------------------------------------
# ary increasing trees
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list_of(check: Callable, exact: type) -> Callable:
    # a list whose items all have the type ``exact`` passes at C speed; any
    # other item type sends the list through ``check`` item by item
    return lambda value: isinstance(value, list) and (
        set(map(type, value)) <= {exact} or all(map(check, value))
    )


# what a JSON field must hold, keyed by its wording in the error message
_JSON_KINDS = {
    "an int": _is_int,
    "a list of ints": _is_list_of(_is_int, int),
    "a list of lists": _is_list_of(lambda item: isinstance(item, list), list),
}


def _json_fields(data, **kinds: str) -> list:
    """The values of the fields of the JSON object ``data`` named by
    ``kinds``; each must hold the kind of value ``kinds`` gives it, a key
    of ``_JSON_KINDS``."""
    missing = [name for name in kinds if not isinstance(data, dict) or name not in data]
    if missing:
        raise InvalidTreeError(f"expected a JSON object with {', '.join(map(repr, missing))}")
    for name, kind in kinds.items():
        if not _JSON_KINDS[kind](data[name]):
            raise InvalidTreeError(f"field {name!r} must be {kind}")
    return [data[name] for name in kinds]


class _ParentArrayTree:
    """Members shared by the tree shapes stored as a ``parent`` array."""

    parent: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.parent)

    def degrees(self) -> list[int]:
        deg = [0] * self.order
        for v in range(2, self.order + 1):
            deg[self.parent[v - 1] - 1] += 1
        return deg

    @classmethod
    def _trusted(cls, **fields):
        """A tree whose fields and children index are already known to be
        valid, written without the checks of the constructor."""
        tree = object.__new__(cls)
        # the frozen __setattr__ is bypassed, as in GenStirlingPerm._trusted
        tree.__dict__.update(fields)
        return tree


def _free_slots(arity: int, n: int) -> list[list[int]]:
    """The children index of n nodes with every slot free: row v holds 0
    for each of the ``arity`` slots of node v, after an unused entry 0
    (row 0 unused)."""
    return list(map(list.copy, repeat([0] * (arity + 1), n + 1)))


def _slot_index(arity: int, parent: Sequence[int], slot: Sequence[int]) -> list[list[int]]:
    """``kids[v][s]``: the child of node v in slot s, or 0 for a free slot
    (row 0 unused), of slot arrays already known to be valid."""
    n = len(parent)
    kids = _free_slots(arity, n)
    for v, p, s in zip(range(2, n + 1), islice(parent, 1, None), islice(slot, 1, None)):
        kids[p][s] = v
    return kids


def _bundle_index(
    bundle_count: int, parent: Sequence[int], bundle: Sequence[int], pos: Sequence[int]
) -> dict:
    """``groups[p, b]``: the children of node p in bundle b, in position
    order (empty bundles absent).  The arrays are checked as they are
    grouped: every node's parent and bundle, in node order, then the
    positions of each bundle, in the order of its first child."""
    n = len(parent)
    groups: dict[tuple[int, int], list[int]] = {}
    for v, p, b in zip(range(2, n + 1), islice(parent, 1, None), islice(bundle, 1, None)):
        if not 1 <= p < v:
            raise InvalidTreeError(f"node {v} needs a smaller parent, got {p}")
        if not 1 <= b <= bundle_count:
            raise InvalidTreeError(f"bundle of node {v} out of range: {b}")
        groups.setdefault((p, b), []).append(v)
    for (p, b), kids in groups.items():
        row = [0] * len(kids)
        for v in kids:
            q = pos[v - 1]
            if 0 < q <= len(row):
                row[q - 1] = v
        if not all(row):
            positions = [pos[v - 1] for v in kids]
            raise InvalidTreeError(
                f"positions in bundle {b} of node {p} are not contiguous: {positions}"
            )
        groups[p, b] = tuple(row)
    return groups


@dataclass(frozen=True)
class AryIncreasingTree(_ParentArrayTree):
    """Increasing tree on labels ``1..n`` whose nodes expose ``arity`` slots.

    ``parent[v-1]`` and ``slot[v-1]`` give the attachment of node ``v``
    (zeros for the root).  Subclasses may give the root fewer slots by
    overriding ``_root_slots``.
    """

    arity: int
    parent: tuple[int, ...]
    slot: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent", tuple(map(int, self.parent)))
        object.__setattr__(self, "slot", tuple(map(int, self.slot)))
        n = len(self.parent)
        if self.arity < 2:
            raise InvalidTreeError("arity must be >= 2")
        if n < 1 or len(self.slot) != n:
            raise InvalidTreeError("parent and slot arrays must be non-empty and aligned")
        if self.parent[0] != 0 or self.slot[0] != 0:
            raise InvalidTreeError("node 1 must be the root")
        arity, root_slots = self.arity, self._root_slots
        # the children index, filled as each node is checked: a taken slot
        # is a nonzero entry
        kids = _free_slots(arity, n)
        nodes = zip(range(2, n + 1), islice(self.parent, 1, None), islice(self.slot, 1, None))
        for v, p, s in nodes:
            if not 1 <= p < v:
                raise InvalidTreeError(f"node {v} needs a smaller parent, got {p}")
            if not 1 <= s <= (root_slots if p == 1 else arity):
                raise InvalidTreeError(f"slot of node {v} out of range: {s}")
            row = kids[p]
            if row[s]:
                raise InvalidTreeError(f"slot {s} of node {p} used twice")
            row[s] = v
        object.__setattr__(self, "_kids", kids)

    @classmethod
    def _from_valid(
        cls, arity: int, parent: Sequence[int], slot: Sequence[int]
    ) -> "AryIncreasingTree":
        """The tree of slot arrays that are valid by construction, with its
        children index, without the checks of the constructor."""
        parent, slot = tuple(parent), tuple(slot)
        return cls._trusted(arity=arity, parent=parent, slot=slot,
                            _kids=_slot_index(arity, parent, slot))

    @property
    def _root_slots(self) -> int:
        return self.arity

    def child(self, v: int, s: int) -> int:
        """Child of node v in slot s (0 if the slot is free)."""
        if not 1 <= v <= self.order:
            raise InvalidTreeError(f"node must be in 1..n, got {v}")
        if not 1 <= s <= (self._root_slots if v == 1 else self.arity):
            raise InvalidTreeError(f"node {v} has no slot {s}")
        return self._kids[v][s]

    def free_slots(self) -> list[tuple[int, int]]:
        return [
            (v, s)
            for v in range(1, self.order + 1)
            for s in range(1, (self._root_slots if v == 1 else self.arity) + 1)
            if not self._kids[v][s]
        ]

    def to_json_dict(self) -> dict:
        return {"arity": self.arity, "parent": list(self.parent), "slot": list(self.slot)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "AryIncreasingTree":
        arity, parent, slot = _json_fields(
            data, arity="an int", parent="a list of ints", slot="a list of ints"
        )
        return cls(arity, tuple(parent), tuple(slot))


@dataclass(frozen=True)
class TreeStatProfile:
    """Slot statistics of an ary increasing tree of order n.

    ``interior_by_slot[j-1]`` counts non-root nodes sitting in slot ``j`` of
    their parent; ``exterior_by_slot[j-1] = n - interior_by_slot[j-1]``
    counts free ``j``-slots.  ``left_right`` counts nodes whose path from the
    root uses only the extreme slots (the root included); ``leaves`` counts
    childless nodes.
    """

    interior_by_slot: tuple[int, ...]
    exterior_by_slot: tuple[int, ...]
    left_right: int
    leaves: int

    def to_json_dict(self) -> dict:
        return {
            "interiorBySlot": list(self.interior_by_slot),
            "exteriorBySlot": list(self.exterior_by_slot),
            "leftRight": self.left_right,
            "leaves": self.leaves,
        }


def ary_stats(tree: AryIncreasingTree) -> TreeStatProfile:
    """Slot occupancy statistics of an ary increasing tree.

    >>> t = AryIncreasingTree(3, (0, 1), (0, 1))
    >>> ary_stats(t).exterior_by_slot
    (1, 2, 2)
    """
    n = tree.order
    interior = [0] * tree.arity
    extreme = {1, tree.arity}
    lr = [False] * (n + 1)
    lr[1] = True
    leaves = [True] * (n + 1)
    for v in range(2, n + 1):
        p, s = tree.parent[v - 1], tree.slot[v - 1]
        interior[s - 1] += 1
        lr[v] = lr[p] and s in extreme
        leaves[p] = False
    return TreeStatProfile(
        interior_by_slot=tuple(interior),
        exterior_by_slot=tuple(n - d for d in interior),
        left_right=sum(lr[1:]),
        leaves=sum(leaves[1 : n + 1]),
    )


# ---------------------------------------------------------------------------
# bundled increasing trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BundledIncreasingTree(_ParentArrayTree):
    """Increasing tree whose nodes carry ``bundle_count`` ordered bundles.

    Node ``v >= 2`` sits at position ``pos_in_bundle[v-1]`` (1-based) of
    bundle ``bundle[v-1]`` of node ``parent[v-1]``; the root has zeros.
    Positions inside each bundle must form a contiguous range ``1..len``.
    """

    bundle_count: int
    parent: tuple[int, ...]
    bundle: tuple[int, ...]
    pos_in_bundle: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent", tuple(map(int, self.parent)))
        object.__setattr__(self, "bundle", tuple(map(int, self.bundle)))
        object.__setattr__(self, "pos_in_bundle", tuple(map(int, self.pos_in_bundle)))
        n = len(self.parent)
        if self.bundle_count < 1:
            raise InvalidTreeError("bundle_count must be >= 1")
        if n < 1 or len(self.bundle) != n or len(self.pos_in_bundle) != n:
            raise InvalidTreeError("array fields must be non-empty and aligned")
        if (self.parent[0], self.bundle[0], self.pos_in_bundle[0]) != (0, 0, 0):
            raise InvalidTreeError("node 1 must be the root")
        groups = _bundle_index(self.bundle_count, self.parent, self.bundle, self.pos_in_bundle)
        object.__setattr__(self, "_groups", groups)

    @classmethod
    def _from_valid(
        cls, bundle_count: int, parent: Sequence[int], bundle: Sequence[int],
        pos_in_bundle: Sequence[int], groups: dict,
    ) -> "BundledIncreasingTree":
        """The tree of bundle arrays that are valid by construction, without
        the checks of the constructor.  It takes over the children index
        ``groups`` its decoder filled, in the constructor's key order."""
        parent, bundle, pos_in_bundle = tuple(parent), tuple(bundle), tuple(pos_in_bundle)
        index = dict.fromkeys(zip(parent[1:], bundle[1:]))
        for pair in index:
            # popped, each list is freed as its tuple is made, so the lists
            # do not pile up beside the tuples for the garbage collector
            index[pair] = tuple(groups.pop(pair))
        return cls._trusted(bundle_count=bundle_count, parent=parent, bundle=bundle,
                            pos_in_bundle=pos_in_bundle, _groups=index)

    def bundles_of(self, v: int) -> tuple[tuple[int, ...], ...]:
        """The children of v in each bundle, in order."""
        if not 1 <= v <= self.order:
            raise InvalidTreeError(f"node must be in 1..n, got {v}")
        return tuple([self._groups.get((v, b), ()) for b in range(1, self.bundle_count + 1)])

    def leaves(self) -> int:
        return sum(1 for d in self.degrees() if d == 0)

    def to_json_dict(self) -> dict:
        return {
            "bundleCount": self.bundle_count,
            "parent": list(self.parent),
            "bundle": list(self.bundle),
            "posInBundle": list(self.pos_in_bundle),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BundledIncreasingTree":
        m, parent, bundle, pos = _json_fields(
            data,
            bundleCount="an int",
            parent="a list of ints",
            bundle="a list of ints",
            posInBundle="a list of ints",
        )
        return cls(m, tuple(parent), tuple(bundle), tuple(pos))


@dataclass(frozen=True)
class BundledStatProfile:
    """Bundle statistics of a bundled increasing tree.

    ``bundle_ascents`` = ascending adjacent label pairs inside bundles, plus
    the number of non-empty bundles, plus one if the first root bundle is
    empty.  ``bundle_descents`` is the mirror image (descending pairs, plus
    non-empty bundles, plus one if the last root bundle is empty).
    ``empty_bundles`` counts empty bundles of non-root nodes plus empty
    inner bundles of the root.
    """

    bundle_ascents: int
    bundle_descents: int
    empty_bundles: int

    def to_json_dict(self) -> dict:
        return {
            "bundleAscents": self.bundle_ascents,
            "bundleDescents": self.bundle_descents,
            "emptyBundles": self.empty_bundles,
        }


def bundled_stats(tree: BundledIncreasingTree) -> BundledStatProfile:
    """Bundle statistics, read off the non-empty bundles of the children
    index.  The children of a bundle have distinct labels, so a bundle of
    length l has l - 1 adjacent pairs, each ascending or descending.

    >>> bundled_stats(BundledIncreasingTree(2, (0, 1, 1), (0, 2, 2), (0, 2, 1)))
    BundledStatProfile(bundle_ascents=2, bundle_descents=2, empty_bundles=4)
    """
    m = tree.bundle_count
    groups = tree._groups
    rising = sum(sum(map(lt, row, row[1:])) for row in groups.values())
    pairs = tree.order - 1 - len(groups)
    first_empty = (1, 1) not in groups
    last_empty = (1, m) not in groups
    return BundledStatProfile(
        bundle_ascents=rising + len(groups) + first_empty,
        bundle_descents=pairs - rising + len(groups) + last_empty,
        # the root's first and last bundles are not counted
        empty_bundles=tree.order * m - len(groups) - first_empty - (m > 1 and last_empty),
    )


# ---------------------------------------------------------------------------
# random growth
# ---------------------------------------------------------------------------

# grow_ary_tree draws the law of decode_ary_tree(sample_k_stirling(n, arity - 1));
# it and grow_plane_tree stay while bench/tracer.py traces them by name.
# grow_plane_tree also grows weighted families that have no word codec, such
# as recursive_family().


def grow_ary_tree(arity: int, n: int, seed=None) -> AryIncreasingTree:
    """Grow an ary increasing tree by attaching each new node to a uniformly
    random free slot.  The result is uniform over all such trees of order n."""
    if arity < 2 or n < 1:
        raise ValueError("need arity >= 2 and n >= 1")
    rng = as_generator(seed)
    parent = [0]
    slot = [0]
    free = [(1, s) for s in range(1, arity + 1)]
    for v in range(2, n + 1):
        i = int(rng.integers(0, len(free)))
        p, s = free[i]
        free[i] = free[-1]
        free.pop()
        parent.append(p)
        slot.append(s)
        free.extend((v, t) for t in range(1, arity + 1))
    return AryIncreasingTree(arity, tuple(parent), tuple(slot))


def grow_plane_tree(family: DegreeWeightFamily, n: int, seed=None) -> BundledIncreasingTree:
    """Grow a weighted random plane tree of the family (one bundle per node).

    The attachment node is drawn with probability proportional to
    ``phi_{d+1}/phi_d``, realized through integer weights ``a + b*deg`` with
    ``alpha = a/b``; the child gap is uniform.  For ``recursive`` families
    the node is uniform.  The node is a uniform entry of a token list in
    which a node of out-degree d appears ``a + b*d`` times.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_generator(seed)
    if family.kind == D_ARY:
        raise ValueError("use grow_ary_tree for dAry families")
    if family.kind == RECURSIVE:
        a, b = 1, 0
    else:
        alpha = family.alpha
        a, b = alpha.numerator, alpha.denominator
    # kids[v-1]: the children of node v, in order
    kids: list[list[int]] = [[] for _ in range(n)]
    tokens = [0] * a
    for v in range(2, n + 1):
        node = tokens[int(rng.integers(0, len(tokens)))]
        row = kids[node]
        row.insert(int(rng.integers(0, len(row) + 1)), v)
        tokens += [node] * b + [v - 1] * a
    parent = [0] * n
    pos = [0] * n
    for p, row in enumerate(kids, start=1):
        for j, c in enumerate(row, start=1):
            parent[c - 1] = p
            pos[c - 1] = j
    return BundledIncreasingTree(1, tuple(parent), (0,) + (1,) * (n - 1), tuple(pos))


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


def enumerate_ary_trees(n: int, arity: int) -> Iterator[AryIncreasingTree]:
    """Yield every ary increasing tree of order n exactly once, ordered by
    their (parent, slot) arrays."""
    if arity < 2 or n < 1:
        raise ValueError("need arity >= 2 and n >= 1")
    yield from _enumerate_slot_trees(n, arity, arity, AryIncreasingTree)


def _lex_search(top, group, cap) -> Iterator[tuple[int, ...]]:
    """Every tuple ``a`` with ``1 <= a[i] <= top[i]``, in lexicographic
    order, in which each pair ``(group[i], a[i])`` occurs at most
    ``cap[a[i]]`` times.  An iterative depth-first search: the entry at each
    depth holds one unit of its pair's capacity while the search works below
    it, so only the current tuple and its held counts are kept."""
    a, held, i = [0] * len(top), defaultdict(int), 0
    while i >= 0:
        if i == len(a):
            yield tuple(a)
            i -= 1
            continue
        g, x = group[i], a[i]
        if x:
            held[g, x] -= 1
        x += 1
        while x <= top[i] and held[g, x] >= cap[x]:
            x += 1
        if x > top[i]:
            a[i], i = 0, i - 1
        else:
            held[g, x] += 1
            a[i], i = x, i + 1


def _enumerate_slot_trees(
    n: int, arity: int, root_slots: int, cls: type[AryIncreasingTree]
) -> Iterator[AryIncreasingTree]:
    """Every order-n slot tree of type ``cls`` whose root has ``root_slots``
    slots and other nodes ``arity``, by sorted arrays: parent arrays that
    fill no node beyond its slots, then slots used once each."""
    slots = [0, root_slots] + [arity] * n
    for parent in _lex_search(range(1, n), (0,) * n, slots):
        for slot in _lex_search([slots[p] for p in parent], parent, [1] * (arity + 1)):
            yield cls._from_valid(arity, (0,) + parent, (0,) + slot)


# Bounds of enumerate_bundled_trees' layout memo; a full memo of order-7
# layouts takes about 0.6 MB.
_PATTERN_LAYOUTS = 120
_MEMO_LAYOUTS = 1024


def _layout_count(size: Sequence[int], cap: int) -> int:
    """The number of position arrays of groups of these sizes, the product
    of their factorials, or ``cap + 1`` once it passes ``cap``."""
    count = 1
    for s in size:
        for f in range(2, s + 1):
            count *= f
            if count > cap:
                return cap + 1
    return count


def _layouts(group: Sequence[int], size: Sequence[int]) -> Iterator[tuple]:
    """Each ``(pos_in_bundle, rows)`` of a group pattern, in lexicographic
    order of the positions: node ``i + 2`` sits at position ``pos[i]`` of
    group ``group[i]``, and ``rows[g]`` lists group g's nodes by position."""
    for pos in _lex_search([size[g] for g in group], group, [1] * (len(group) + 1)):
        rows = [[0] * s for s in size]
        for v, g, q in zip(range(2, len(group) + 2), group, pos):
            rows[g][q - 1] = v
        yield (0,) + pos, tuple(map(tuple, rows))


def enumerate_bundled_trees(n: int, bundle_count: int) -> Iterator[BundledIncreasingTree]:
    """Yield every bundled increasing tree of order n exactly once, ordered
    by their (parent, bundle, pos_in_bundle) arrays: each parent array, then
    each bundle array, then each array of positions in which no position of
    a bundle is used twice.

    The positions depend only on the array's group pattern: the ids of its
    (parent, bundle) pairs in order of first appearance.  Each pattern's
    position arrays and children rows are built once per call and kept in a
    memo, if the pattern has at most ``_PATTERN_LAYOUTS`` of them (the
    product of its group sizes' factorials) and the memo still has room for
    them within ``_MEMO_LAYOUTS`` in all.  Any other pattern streams its
    positions from the search each time, so enumeration holds at most
    ``_MEMO_LAYOUTS`` layouts beside the current tree."""
    if bundle_count < 1 or n < 1:
        raise ValueError("need bundle_count >= 1 and n >= 1")
    m = bundle_count
    memo: dict[tuple[int, ...], list[tuple]] = {}
    room = _MEMO_LAYOUTS
    # The parent level stays a search: a product over range(1, v) would hold
    # every range at once, O(n^2) for the first tree of a large order.
    for parent in _lex_search(range(1, n), (0,) * n, [n] * n):
        parent_array = (0,) + parent
        for bundle in product(range(1, m + 1), repeat=n - 1):
            # group[i]: small id of the (parent, bundle) pair of node i + 2
            ids: dict[tuple[int, int], int] = {}
            group = tuple([ids.setdefault(pair, len(ids)) for pair in zip(parent, bundle)])
            layouts = memo.get(group)
            if layouts is None:
                size = [0] * len(ids)
                for g in group:
                    size[g] += 1
                layouts = _layouts(group, size)
                cap = min(_PATTERN_LAYOUTS, room)
                count = _layout_count(size, cap)
                if count <= cap:
                    layouts = memo[group] = list(layouts)
                    room -= count
            bundle_array = (0,) + bundle
            for pos, rows in layouts:
                yield BundledIncreasingTree._trusted(
                    bundle_count=m,
                    parent=parent_array,
                    bundle=bundle_array,
                    pos_in_bundle=pos,
                    _groups=dict(zip(ids, rows)),
                )


def enumerate_plane_trees(n: int) -> Iterator[BundledIncreasingTree]:
    """Plane recursive trees of order n (single-bundle shapes)."""
    return enumerate_bundled_trees(n, 1)
