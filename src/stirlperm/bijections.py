"""Bijections between generalized Stirling permutations and increasing trees.

Four codecs, all exact inverses of each other on their domains:

* ``encode_ary_tree`` / ``decode_ary_tree``: (k+1)-ary increasing trees of
  order n <-> k-Stirling permutations of order n.  The code is the
  depth-first contour: a node's label is written after each of its first k
  slots has been visited.
* ``encode_bundled_tree`` / ``decode_bundled_tree``: (k+1)-bundled
  increasing trees <-> k-bundled Stirling permutations.  A node's code is
  the concatenation of its bundle codes separated by copies of the node's
  label, where a bundle's code wraps each child's code in a pair of the
  child's labels.
* ``seq_to_ary_tree`` / ``ary_tree_to_seq``: sequences of k-bundled
  increasing trees with labels partitioning 1..n <-> (k+2)-ary increasing
  trees, by the Cartesian tree on labels.  The smallest label becomes the
  root; the part of the sequence to its left goes to the first slot, its
  bundles to the middle slots, the rest of the sequence to the last slot.
  At k = 0 a sequence is a permutation and its tree is binary.
* ``f_tree_from_bundled`` / ``bundled_from_f_tree``: k-bundled increasing
  trees <-> modified (k+2)-ary trees whose root has only k slots: the same
  bijection applied to each root bundle, whose tree goes to root slot b.

Both tree bijections factor through the words: the bundle code of a
sequence is the contour code of its tree, and the bundle code of a bundled
tree t is the contour code of ``f_tree_from_bundled(t)``.  So every codec
is built from one stack walk and one stack pass per word family, each
started from an owner at the bottom of its stack: root 1, whose k - 1
occurrences only move it on, or a virtual owner 0 holding a sequence as its
one bundle.  At k = 1 this is the paper's special case: a plane recursive
tree on 1..n and the ternary tree on 2..n below a one-slot root share one
code, a 2-Stirling permutation of 2..n.  No walk or pass recurses, so deep
and degenerate trees convert in linear time.

``verify_stat_transfer`` exhaustively checks the statistic correspondences
(slot occupancies vs refined ascent/descent/plateau counts, block count vs
left-right nodes, bundle statistics vs totals).  It trusts the trees the
enumerators hand over, which are valid by construction and carry their
children index, and it reads that index directly.  It does not trust the
codecs: every code word goes through the validating ``GenStirlingPerm``
constructor, since that check is part of what it proves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .perms import (
    GenStirlingPerm,
    InvalidPermutationError,
    block_spans,
    bundled_multiplicities,
    stat_profile,
    uniform_multiplicities,
)
from .trees import (
    AryIncreasingTree,
    BundledIncreasingTree,
    InvalidTreeError,
    _enumerate_slot_trees,
    _json_fields,
    ary_stats,
    bundled_stats,
    enumerate_ary_trees,
    enumerate_bundled_trees,
)

# ---------------------------------------------------------------------------
# ary codec
# ---------------------------------------------------------------------------


def _contour_walk(tree: AryIncreasingTree) -> list[int]:
    """Depth-first contour of a slot tree: a node's label is written between
    each two of its slots, and the walk stops at the root's own slot count."""
    arity = tree.arity
    kids = tree._kids
    out: list[int] = []
    emit = out.append
    # (v, s): the walk is at slot s of node v, of ``last`` slots; the stack
    # holds, for each ancestor, the slot to go on from
    stack: list[tuple[int, int]] = []
    v, s, last = 1, 1, tree._root_slots
    while True:
        if s > last:
            if not stack:
                break
            v, s = stack.pop()
            last = arity if stack else tree._root_slots
            continue
        if s > 1:
            emit(v)
        c = kids[v][s]
        s += 1
        if c:
            if any(kids[c]):
                stack.append((v, s))
                v, s, last = c, 1, arity
            else:
                out += [c] * (arity - 1)  # a leaf: its label between free slots
    return out


def _contour_pass(word: Sequence[int], n: int, owner: int) -> tuple[list[int], list[int]]:
    """Inverse of :func:`_contour_walk`: ``(parent, slot)`` of labels 1..n,
    with ``owner`` (0, or the F-tree root 1) at the bottom of the stack.

    The stack holds the labels that no smaller label has followed yet, so
    a label z leaves it when its subtree's code has ended.  z hangs below
    the label y under it, in y's next slot, unless the label x that pops z
    is larger than y: then z is x's slot-1 child.  The labels left at the
    end keep y.
    """
    parent = [0] * (n + 1)
    slot = [0] * (n + 1)
    nxt = [0] * (n + 1)  # next slot of each label on the stack, 0 before it
    nxt[owner] = owner  # slot 0 below the virtual owner 0, slot 1 of root 1
    stack = [owner]
    for x in word:
        while stack[-1] > x:
            z = stack.pop()
            if x > parent[z]:
                parent[z], slot[z] = x, 1
        if not nxt[x]:
            y = stack[-1]
            parent[x], slot[x] = y, nxt[y]
            stack.append(x)
            nxt[x] = 1
        nxt[x] += 1
    return parent[1:], slot[1:]


def encode_ary_tree(tree: AryIncreasingTree) -> GenStirlingPerm:
    """Depth-first contour code of a (k+1)-ary increasing tree, walked over
    the children index with a stack, so deep trees encode without recursion.

    >>> encode_ary_tree(AryIncreasingTree(3, (0, 1), (0, 1))).compact()
    '2211'
    """
    return GenStirlingPerm(
        tuple(_contour_walk(tree)), uniform_multiplicities(tree.order, tree.arity - 1)
    )


def decode_ary_tree(perm: GenStirlingPerm) -> AryIncreasingTree:
    """Inverse of :func:`encode_ary_tree`."""
    k = perm.uniform_k
    if k is None or perm.order == 0:
        raise InvalidPermutationError("ary decoding needs a non-empty k-Stirling permutation")
    return AryIncreasingTree(k + 1, *_contour_pass(perm.word, perm.order, 0))


# ---------------------------------------------------------------------------
# bundled codec
# ---------------------------------------------------------------------------


def _bundle_walk(groups: dict, owner: int, m: int) -> list[int]:
    """Bundle code of the m-bundle nodes below ``owner`` in the children
    index ``groups`` (``groups[v, b]``: the children of v in bundle b, in
    order; empty bundles absent).  The owner is root 1, whose m bundles are
    separated by its label, or a virtual owner 0 with one bundle."""
    get = groups.get
    inner = {p for p, _ in groups}
    out: list[int] = []
    emit = out.append
    # (v, b, it): the walk is in bundle b of node v, whose children not yet
    # visited are left in it; the stack holds the frames of v's ancestors
    stack: list = []
    v, b, it = owner, 1, iter(get((owner, 1), ()))
    while True:
        for u in it:
            if u in inner:
                emit(u)
                stack.append((v, b, it))
                v, b, it = u, 1, iter(get((u, 1), ()))
                break
            out += [u] * (m + 1)  # a leaf: its label around m - 1 separators
        else:
            if b < (m if stack or owner else 1):
                emit(v)
                b += 1
                it = iter(get((v, b), ()))
            elif stack:
                emit(v)
                v, b, it = stack.pop()
            else:
                break
    return out


def _bundle_pass(word: Sequence[int], n: int, owner: int, m: int) -> tuple[list[int], ...]:
    """Inverse of :func:`_bundle_walk`: ``(parent, bundle, pos_in_bundle)``
    of the m-bundle nodes 1..n, each m + 1 times in the word, with
    ``owner`` at the bottom of the stack.

    A label's first occurrence makes it the next child of the label on top,
    in that label's bundle ``seen[top]`` (the occurrences so far, counting
    one for the owner, whose first bundle opens the word); its last
    occurrence pops it.
    """
    parent = [0] * (n + 1)
    bundle = [0] * (n + 1)
    pos_in = [0] * (n + 1)
    seen = [0] * (n + 1)
    seen[owner] = 1
    filled = [0] * (n + 1)  # children of v in its current bundle
    stack = [owner]
    for x in word:
        if seen[x]:
            filled[x] = 0
        else:
            top = stack[-1]
            filled[top] += 1
            parent[x], bundle[x], pos_in[x] = top, seen[top], filled[top]
            stack.append(x)
        seen[x] += 1
        if seen[x] > m:
            stack.pop()
    return parent[1:], bundle[1:], pos_in[1:]


def encode_bundled_tree(tree: BundledIncreasingTree) -> GenStirlingPerm:
    """Code of a (k+1)-bundled increasing tree as a k-bundled Stirling
    permutation: bundles are separated by the node's label, and each child's
    code is wrapped in a pair of the child's labels.

    >>> t = BundledIncreasingTree(2, (0, 1), (0, 1), (0, 1))
    >>> encode_bundled_tree(t).compact()
    '2221'
    """
    if tree.bundle_count < 2:
        raise InvalidTreeError(
            "bundled encoding needs at least two bundles (the root label must appear)"
        )
    m = tree.bundle_count
    word = _bundle_walk(tree._groups, 1, m)
    return GenStirlingPerm(tuple(word), bundled_multiplicities(tree.order, m - 1))


def decode_bundled_tree(perm: GenStirlingPerm) -> BundledIncreasingTree:
    """Inverse of :func:`encode_bundled_tree`."""
    mult = perm.multiplicities
    if not mult or mult[0] < 1:
        raise InvalidPermutationError("bundled decoding needs label 1 present")
    k = mult[0]
    if any(m != k + 2 for m in mult[1:]):
        raise InvalidPermutationError(
            f"not a {k}-bundled multiset: expected (k, k+2, ..., k+2), got {mult}"
        )
    return BundledIncreasingTree(k + 1, *_bundle_pass(perm.word, perm.order, 1, k + 1))


# ---------------------------------------------------------------------------
# label-carrying node form and the sequence bijection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BundledNode:
    """A bundled increasing tree over an arbitrary label set: ``bundles`` is a
    tuple of ``bundle_count`` ordered tuples of subtrees.

    ``==`` and ``hash`` read the node form with a stack, so they work at any
    depth."""

    label: int
    bundles: tuple[tuple["BundledNode", ...], ...]

    def _key(self) -> tuple:
        # the label and bundle lengths of each node in the order of _walk,
        # which those lengths fix: equal keys are equal node forms
        return tuple([(node.label, tuple(map(len, node.bundles))) for node in _walk((self,))])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def bundle_count(self) -> int:
        return len(self.bundles)

    def labels(self) -> set[int]:
        return {node.label for node in _walk((self,))}

    def min_label(self) -> int:
        # increasing trees: the root carries the smallest label of the subtree
        return self.label

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "bundles": [[c.to_json_dict() for c in b] for b in self.bundles],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BundledNode":
        """Read a node form without recursion: check the dicts in preorder,
        then build them in reverse, each node popping its children."""
        items = []
        stack = [data]
        while stack:
            label, bundles = _json_fields(stack.pop(), label="an int", bundles="a list of lists")
            items.append((label, bundles))
            stack.extend(reversed([c for b in bundles for c in b]))
        built: list[BundledNode] = []
        for label, bundles in reversed(items):
            built.append(cls(label, tuple(tuple(built.pop() for _ in b) for b in bundles)))
        return built[0]


def _walk(roots: Iterable[BundledNode]) -> Iterator[BundledNode]:
    """Every node of the node forms ``roots``, depth first with a stack."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        for b in node.bundles:
            stack += b


def _node_groups(roots: tuple[BundledNode, ...]) -> tuple[dict, int, int]:
    """Children index of node forms whose labels partition 1..n and increase
    from each node to its children, with their common bundle count and n:
    ``groups[v, b]`` lists the children of v in bundle b (empty bundles
    absent), and ``groups[0, 1]`` the labels of ``roots``."""
    if not roots:
        raise InvalidTreeError("sequence must be non-empty")
    m = roots[0].bundle_count
    groups = {(0, 1): tuple([t.label for t in roots])}
    labels: set[int] = set()
    for node in _walk(roots):
        v, bundles = node.label, node.bundles
        if len(bundles) != m:
            raise InvalidTreeError(f"mixed bundle counts: {m} and {len(bundles)}")
        if v in labels:
            raise InvalidTreeError(f"label {v} appears twice")
        labels.add(v)
        for b, children in enumerate(bundles, start=1):
            if children:
                row = groups[v, b] = tuple([c.label for c in children])
                if min(row) <= v:
                    raise InvalidTreeError(f"node {min(row)} needs a smaller parent, got {v}")
    n = len(labels)
    if labels != set(range(1, n + 1)):
        raise InvalidTreeError("labels must partition 1..n")
    return groups, m, n


def _build_nodes(groups: dict, m: int, labels: Iterable[int]) -> dict[int, BundledNode]:
    """Node forms of ``labels`` over the children index ``groups`` of
    m-bundle nodes.  The labels come in decreasing order, so every child is
    built before its owner."""
    get = groups.get
    bundles = range(1, m + 1)
    nodes: dict[int, BundledNode] = {}
    for v in labels:
        nodes[v] = BundledNode(v, tuple([tuple([nodes[u] for u in get((v, b), ())])
                                         for b in bundles]))
    return nodes


def bundled_subtree_node(tree: BundledIncreasingTree, root: int = 1) -> BundledNode:
    """View the subtree of ``tree`` rooted at ``root`` as a :class:`BundledNode`."""
    return _build_nodes(tree._groups, tree.bundle_count, range(tree.order, root - 1, -1))[root]


def bundled_node_to_tree(node: BundledNode) -> BundledIncreasingTree:
    """Convert a node form whose labels are exactly 1..n back to array form,
    by decoding its bundle code."""
    groups, m, n = _node_groups((node,))
    return BundledIncreasingTree(m, *_bundle_pass(_bundle_walk(groups, 1, m), n, 1, m))


def seq_to_ary_tree(seq: Sequence[BundledNode]) -> AryIncreasingTree:
    """Map a sequence of k-bundled increasing trees (labels partitioning 1..n)
    to a (k+2)-ary increasing tree of order n: the tree whose contour code
    is the bundle code of the sequence."""
    groups, m, n = _node_groups(tuple(seq))
    return AryIncreasingTree(m + 2, *_contour_pass(_bundle_walk(groups, 0, m), n, 0))


def ary_tree_to_seq(tree: AryIncreasingTree) -> tuple[BundledNode, ...]:
    """Inverse of :func:`seq_to_ary_tree`.  A binary tree maps to a sequence
    of 0-bundle nodes, which is a permutation of its labels."""
    n, m = tree.order, tree.arity - 2
    word = _contour_walk(tree)
    parent, bundle, _ = _bundle_pass(word, n, 0, m)
    groups: dict[tuple[int, int], list[int]] = {}
    # a label's first occurrence is where it joins its bundle, so labels in
    # that order fill each bundle in position order
    for x in dict.fromkeys(word):
        groups.setdefault((parent[x - 1], bundle[x - 1]), []).append(x)
    nodes = _build_nodes(groups, m, range(n, 0, -1))
    return tuple(nodes[u] for u in groups[0, 1])


# ---------------------------------------------------------------------------
# F-trees (modified ary trees: the root has k slots, other nodes k+2)
# ---------------------------------------------------------------------------


class FIncreasingTree(AryIncreasingTree):
    """Increasing tree on 1..n where the root exposes ``root_slot_count``
    slots and every other node ``root_slot_count + 2``: an ary tree of arity
    ``root_slot_count + 2`` whose root has two slots fewer."""

    def __init__(self, root_slot_count: int, parent: Sequence[int], slot: Sequence[int]) -> None:
        if root_slot_count < 1:
            raise InvalidTreeError("root_slot_count must be >= 1")
        super().__init__(root_slot_count + 2, parent, slot)

    @property
    def root_slot_count(self) -> int:
        return self.arity - 2

    _root_slots = root_slot_count

    def __repr__(self) -> str:
        return (
            f"FIncreasingTree(root_slot_count={self.root_slot_count!r}, "
            f"parent={self.parent!r}, slot={self.slot!r})"
        )

    def to_json_dict(self) -> dict:
        return {
            "rootSlotCount": self.root_slot_count,
            "parent": list(self.parent),
            "slot": list(self.slot),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FIncreasingTree":
        k, parent, slot = _json_fields(
            data, rootSlotCount="an int", parent="a list of ints", slot="a list of ints"
        )
        return cls(k, tuple(parent), tuple(slot))


def f_tree_from_bundled(tree: BundledIncreasingTree) -> FIncreasingTree:
    """The modified (k+2)-ary tree whose root has k slots, of a k-bundled
    tree: the F-tree whose contour code is the tree's bundle code.  Root
    bundle b goes to root slot b as the tree of its sequence."""
    k = tree.bundle_count
    return FIncreasingTree(k, *_contour_pass(_bundle_walk(tree._groups, 1, k), tree.order, 1))


def bundled_from_f_tree(ftree: FIncreasingTree) -> BundledIncreasingTree:
    """Inverse of :func:`f_tree_from_bundled`."""
    k = ftree.root_slot_count
    return BundledIncreasingTree(k, *_bundle_pass(_contour_walk(ftree), ftree.order, 1, k))


# ---------------------------------------------------------------------------
# exhaustive enumeration of the remaining domains
# ---------------------------------------------------------------------------


def enumerate_bundled_sequences(n: int, bundle_count: int) -> Iterator[tuple[BundledNode, ...]]:
    """All sequences of ``bundle_count``-bundled increasing trees whose label
    sets partition 1..n, once each: the images under :func:`ary_tree_to_seq`
    of the ``(bundle_count + 2)``-ary increasing trees of order n, in the
    order of their (parent, slot) arrays."""
    if n < 1 or bundle_count < 1:
        raise ValueError("need n >= 1 and bundle_count >= 1")
    for tree in enumerate_ary_trees(n, bundle_count + 2):
        yield ary_tree_to_seq(tree)


def enumerate_f_trees(n: int, root_slot_count: int) -> Iterator[FIncreasingTree]:
    """All F-trees of order n: root with ``root_slot_count`` slots, other
    nodes with ``root_slot_count + 2``, ordered by their arrays."""
    if n < 1 or root_slot_count < 1:
        raise ValueError("need n >= 1 and root_slot_count >= 1")
    k = root_slot_count
    yield from _enumerate_slot_trees(n, k + 2, k, FIncreasingTree)


# ---------------------------------------------------------------------------
# statistic transfer verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatTransferReport:
    """Outcome of the exhaustive statistic-transfer check for one (n, k)."""

    n: int
    k: int
    ary_examined: int
    bundled_examined: int
    counterexamples: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "aryExamined": self.ary_examined,
            "bundledExamined": self.bundled_examined,
            "counterexamples": list(self.counterexamples),
            "ok": self.ok,
        }


def verify_stat_transfer(n: int, k: int, include_bundled: bool = True) -> StatTransferReport:
    """Exhaustively confirm that the codecs transfer statistics.

    For every (k+1)-ary tree of order n with code statistics (j-ascents etc.)
    and slot statistics D/L: j-ascents = interior slot j+1 counts, j-descents
    = interior slot j counts, j-plateaux = exterior slot j+1 counts, ascents
    = exterior slot 1, descents = exterior slot k+1, plateaux = middle
    exterior slots, block count = left-right nodes.  For every (k+1)-bundled
    tree: the bundle statistics equal (ascents, descents, plateaux).
    """
    if k < 1 or n < 1:
        raise ValueError("k must be >= 1" if k < 1 else "n must be >= 1")
    bad: list[dict] = []
    ary_count = 0

    def record(kind: str, tree_json: dict, word, field: str, expected: int, got: int) -> None:
        bad.append(
            {
                "kind": kind,
                "tree": tree_json,
                "word": list(word),
                "field": field,
                "expected": expected,
                "got": got,
            }
        )

    # one field per entry of the expected and got tuples below, in order
    ary_fields = [f"j{kind}[{j}]" for j in range(1, k + 1) for kind in ("Ascents", "Descents")]
    ary_fields += [f"jPlateaux[{j}]" for j in range(1, k)]
    ary_fields += ["ascents", "descents", "plateaux", "blocks=leftRight"]
    for tree in enumerate_ary_trees(n, k + 1):
        ary_count += 1
        code = encode_ary_tree(tree)
        prof = stat_profile(code)
        ts = ary_stats(tree)
        d = ts.interior_by_slot
        ell = ts.exterior_by_slot
        inner = ell[1:k]
        expected = (*chain.from_iterable(zip(d[1:], d)), *inner,
                    ell[0], ell[k], sum(inner), ts.left_right)
        got = (*chain.from_iterable(zip(prof.j_ascents, prof.j_descents)), *prof.j_plateaux,
               prof.ascents, prof.descents, prof.plateaux, len(block_spans(code.word)))
        if expected != got:
            for field, e, g in zip(ary_fields, expected, got):
                if e != g:
                    record("ary", tree.to_json_dict(), code.word, field, e, g)

    bundled_count = 0
    if include_bundled:
        for btree in enumerate_bundled_trees(n, k + 1):
            bundled_count += 1
            code = encode_bundled_tree(btree)
            prof = stat_profile(code)
            bs = bundled_stats(btree)
            for field, expected, got in (
                ("bundleAscents=ascents", bs.bundle_ascents, prof.ascents),
                ("bundleDescents=descents", bs.bundle_descents, prof.descents),
                ("emptyBundles=plateaux", bs.empty_bundles, prof.plateaux),
            ):
                if expected != got:
                    record("bundled", btree.to_json_dict(), code.word, field, expected, got)

    return StatTransferReport(n, k, ary_count, bundled_count, tuple(bad))
