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
* ``f_tree_from_bundled`` / ``bundled_from_f_tree``: k-bundled increasing
  trees <-> modified (k+2)-ary trees whose root has only k slots: the same
  bijection applied to each root bundle, whose tree goes to root slot b.

The two word decoders read the word once, left to right, with the nesting
stack that :func:`~stirlperm.perms.validate_word` checks.  The last two
pairs run on one iterative array bijection over a children table
(``_bundles_to_slots`` and its inverse ``_slots_to_bundles``).  So deep and
degenerate trees convert in linear time without recursion.

``verify_stat_transfer`` exhaustively checks the statistic correspondences
(slot occupancies vs refined ascent/descent/plateau counts, block count vs
left-right nodes, bundle statistics vs totals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
    _bundled_arrays,
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


def encode_ary_tree(tree: AryIncreasingTree) -> GenStirlingPerm:
    """Depth-first contour code of a (k+1)-ary increasing tree.

    >>> encode_ary_tree(AryIncreasingTree(3, (0, 1), (0, 1))).compact()
    '2211'
    """
    arity = tree.arity
    k = arity - 1
    out: list[int] = []
    stack: list[tuple[int, int]] = [(1, 1)]
    while stack:
        v, s = stack.pop()
        if 2 <= s <= arity:
            out.append(v)
        if s > arity:
            continue
        stack.append((v, s + 1))
        c = tree.child(v, s)
        if c:
            stack.append((c, 1))
    return GenStirlingPerm(tuple(out), uniform_multiplicities(tree.order, k))


def decode_ary_tree(perm: GenStirlingPerm) -> AryIncreasingTree:
    """Inverse of :func:`encode_ary_tree`, in one stack pass over the word.

    The stack holds the labels that no smaller label has followed yet, so
    a label z leaves it when its subtree's code has ended.  z hangs below
    the label y under it, in the slot after y's occurrences so far, unless
    the label x that pops z is larger than y: then z is x's slot-1 child.
    The labels left at the end keep y.  No recursion, so deep trees decode.
    """
    k = perm.uniform_k
    if k is None or perm.order == 0:
        raise InvalidPermutationError("ary decoding needs a non-empty k-Stirling permutation")
    n = perm.order
    parent = [0] * (n + 1)
    slot = [0] * (n + 1)
    seen = [0] * (n + 1)
    stack = [0]
    for x in perm.word:
        while stack[-1] > x:
            z = stack.pop()
            if x > parent[z]:
                parent[z], slot[z] = x, 1
        if not seen[x]:
            y = stack[-1]
            parent[x], slot[x] = y, seen[y] + 1 if y else 0
            stack.append(x)
        seen[x] += 1
    return AryIncreasingTree(k + 1, tuple(parent[1:]), tuple(slot[1:]))


# ---------------------------------------------------------------------------
# bundled codec
# ---------------------------------------------------------------------------


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
    k = tree.bundle_count - 1
    out: list[int] = []
    stack: list[tuple[str, int]] = [("enter", 1)]
    while stack:
        op, v = stack.pop()
        if op == "emit":
            out.append(v)
            continue
        items: list[tuple[str, int]] = []
        for idx, b in enumerate(tree.bundles_of(v)):
            if idx:
                items.append(("emit", v))
            for u in b:
                items.append(("emit", u))
                items.append(("enter", u))
                items.append(("emit", u))
        stack.extend(reversed(items))
    return GenStirlingPerm(tuple(out), bundled_multiplicities(tree.order, k))


def decode_bundled_tree(perm: GenStirlingPerm) -> BundledIncreasingTree:
    """Inverse of :func:`encode_bundled_tree`, in one stack pass over the
    word with the root at the bottom of the stack.

    A label's first occurrence makes it the next child of the label on top,
    in that label's bundle ``seen[top]`` (the occurrences so far, counting
    one for the root, whose first bundle opens the word); its last
    occurrence pops it.
    """
    mult = perm.multiplicities
    if not mult or mult[0] < 1:
        raise InvalidPermutationError("bundled decoding needs label 1 present")
    k = mult[0]
    if any(m != k + 2 for m in mult[1:]):
        raise InvalidPermutationError(
            f"not a {k}-bundled multiset: expected (k, k+2, ..., k+2), got {mult}"
        )
    n = perm.order
    parent = [0] * (n + 1)
    bundle = [0] * (n + 1)
    pos_in = [0] * (n + 1)
    seen = [0] * (n + 1)
    seen[1] = 1
    filled = [0] * (n + 1)  # children of v in its current bundle
    stack = [1]
    for x in perm.word:
        if seen[x]:
            filled[x] = 0
        else:
            top = stack[-1]
            filled[top] += 1
            parent[x], bundle[x], pos_in[x] = top, seen[top], filled[top]
            stack.append(x)
        seen[x] += 1
        if seen[x] == k + 2:
            stack.pop()
    return BundledIncreasingTree(k + 1, tuple(parent[1:]), tuple(bundle[1:]), tuple(pos_in[1:]))


# ---------------------------------------------------------------------------
# label-carrying node form and the sequence bijection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BundledNode:
    """A bundled increasing tree over an arbitrary label set: ``bundles`` is a
    tuple of ``bundle_count`` ordered tuples of subtrees."""

    label: int
    bundles: tuple[tuple["BundledNode", ...], ...]

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
        label, bundles = _json_fields(data, label="an int", bundles="a list of lists")
        return cls(label, tuple(tuple(cls.from_json_dict(c) for c in b) for b in bundles))


def _walk(roots: Iterable[BundledNode]) -> Iterator[BundledNode]:
    """Every node of the node forms ``roots``, depth first with a stack."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for b in node.bundles for c in b)


def _node_rows(roots: tuple[BundledNode, ...]) -> tuple[list, int]:
    """Children table of node forms whose labels partition 1..n, and their
    common bundle count: ``rows[v][b-1]`` lists the children of v in bundle
    b, and ``rows[0]`` has one bundle, the labels of ``roots``."""
    if not roots:
        raise InvalidTreeError("sequence must be non-empty")
    m = roots[0].bundle_count
    table: dict[int, list[list[int]]] = {}
    for node in _walk(roots):
        if node.bundle_count != m:
            raise InvalidTreeError(f"mixed bundle counts: {m} and {node.bundle_count}")
        if node.label in table:
            raise InvalidTreeError(f"label {node.label} appears twice")
        table[node.label] = [[c.label for c in b] for b in node.bundles]
    n = len(table)
    if table.keys() != set(range(1, n + 1)):
        raise InvalidTreeError("labels must partition 1..n")
    return [[[t.label for t in roots]]] + [table[v] for v in range(1, n + 1)], m


def _build_nodes(rows, labels: Iterable[int]) -> dict[int, BundledNode]:
    """Node forms of ``labels`` over the children table ``rows``.  The labels
    come in decreasing order, so every child is built before its owner."""
    nodes: dict[int, BundledNode] = {}
    for v in labels:
        nodes[v] = BundledNode(v, tuple(tuple(nodes[u] for u in b) for b in rows[v]))
    return nodes


def bundled_subtree_node(tree: BundledIncreasingTree, root: int = 1) -> BundledNode:
    """View the subtree of ``tree`` rooted at ``root`` as a :class:`BundledNode`."""
    rows = {}
    stack = [root]
    while stack:
        v = stack.pop()
        rows[v] = tree.bundles_of(v)
        stack.extend(u for b in rows[v] for u in b)
    return _build_nodes(rows, sorted(rows, reverse=True))[root]


def bundled_node_to_tree(node: BundledNode) -> BundledIncreasingTree:
    """Convert a node form whose labels are exactly 1..n back to array form."""
    rows, m = _node_rows((node,))
    return BundledIncreasingTree(m, *_bundled_arrays(rows[1:]))


def _bundle_slot(v: int, b: int, f_root: bool) -> int:
    """Slot of v that holds the Cartesian tree of v's bundle b: slot 0 of a
    sequence's virtual owner 0, slot b of an F-tree root, else slot b+1."""
    return 0 if v == 0 else b if v == 1 and f_root else b + 1


def _bundles_to_slots(rows, m: int, f_root: bool) -> tuple[list[int], list[int]]:
    """``(parent, slot)`` of the (m+2)-ary tree that the sequence bijection
    makes of the children table ``rows`` (``rows[v][b-1]``: the children of v
    in bundle b, in order; ``rows[0]``: the bundles of the virtual owner 0).

    Each bundle becomes its Cartesian tree by label, built with one stack:
    the labels larger than u are popped, the last one popped becomes u's
    slot-1 child, and u becomes the slot-(m+2) child of the new top.
    """
    parent = [0] * len(rows)
    slot = [0] * len(rows)
    for v, row in enumerate(rows):
        for b, children in enumerate(row, start=1):
            stack: list[int] = []
            for u in children:
                popped = 0
                while stack and stack[-1] > u:
                    popped = stack.pop()
                if popped:
                    parent[popped], slot[popped] = u, 1
                if stack:
                    parent[u], slot[u] = stack[-1], m + 2
                stack.append(u)
            if stack:
                parent[stack[0]], slot[stack[0]] = v, _bundle_slot(v, b, f_root)
    return parent[1:], slot[1:]


def _slots_to_bundles(tree: AryIncreasingTree, f_root: bool) -> list[list[list[int]]]:
    """Inverse of :func:`_bundles_to_slots`: the children table of ``tree``.

    A node in a middle slot, or in any slot of an F-tree root, starts a
    bundle; the root of a sequence's tree starts the one bundle of the
    virtual owner 0.  The nodes below it through slots 1 and m+2 join that
    bundle in their in-order, found with an explicit stack.
    """
    m = tree.arity - 2
    rows = [[] if f_root else [[]]] + [[[] for _ in range(m)] for _ in range(tree.order)]
    for v, row in enumerate(rows):
        for b, bundle in enumerate(row, start=1):
            u = tree.child(v, _bundle_slot(v, b, f_root)) if v else 1
            stack: list[int] = []
            while stack or u:
                while u:
                    stack.append(u)
                    u = tree.child(u, 1)
                u = stack.pop()
                bundle.append(u)
                u = tree.child(u, m + 2)
    return rows


def seq_to_ary_tree(seq: Sequence[BundledNode]) -> AryIncreasingTree:
    """Map a sequence of k-bundled increasing trees (labels partitioning 1..n)
    to a (k+2)-ary increasing tree of order n."""
    rows, m = _node_rows(tuple(seq))
    return AryIncreasingTree(m + 2, *_bundles_to_slots(rows, m, f_root=False))


def ary_tree_to_seq(tree: AryIncreasingTree) -> tuple[BundledNode, ...]:
    """Inverse of :func:`seq_to_ary_tree`; needs ``arity >= 3``."""
    if tree.arity < 3:
        raise InvalidTreeError("sequence decoding needs arity >= 3")
    rows = _slots_to_bundles(tree, f_root=False)
    nodes = _build_nodes(rows, range(tree.order, 0, -1))
    return tuple(nodes[u] for u in rows[0][0])


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
    """Apply the sequence bijection to each root bundle of a k-bundled tree,
    producing the modified (k+2)-ary tree whose root has k slots."""
    k = tree.bundle_count
    rows = [()] + [tree.bundles_of(v) for v in range(1, tree.order + 1)]
    return FIncreasingTree(k, *_bundles_to_slots(rows, k, f_root=True))


def bundled_from_f_tree(ftree: FIncreasingTree) -> BundledIncreasingTree:
    """Inverse of :func:`f_tree_from_bundled`."""
    rows = _slots_to_bundles(ftree, f_root=True)
    return BundledIncreasingTree(ftree.root_slot_count, *_bundled_arrays(rows[1:]))


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
    yield from _enumerate_slot_trees(n, k + 2, k, partial(FIncreasingTree, k))


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

    for tree in enumerate_ary_trees(n, k + 1):
        ary_count += 1
        code = encode_ary_tree(tree)
        prof = stat_profile(code)
        ts = ary_stats(tree)
        d = ts.interior_by_slot
        ell = ts.exterior_by_slot
        checks: list[tuple[str, int, int]] = []
        for j in range(1, k + 1):
            checks.append((f"jAscents[{j}]", d[j], prof.j_ascent(j)))
            checks.append((f"jDescents[{j}]", d[j - 1], prof.j_descent(j)))
        for j in range(1, k):
            checks.append((f"jPlateaux[{j}]", ell[j], prof.j_plateau(j)))
        checks.append(("ascents", ell[0], prof.ascents))
        checks.append(("descents", ell[k], prof.descents))
        checks.append(("plateaux", sum(ell[1:k]), prof.plateaux))
        blocks = len(block_spans(code.word))
        checks.append(("blocks=leftRight", ts.left_right, blocks))
        for field, expected, got in checks:
            if expected != got:
                record("ary", tree.to_json_dict(), code.word, field, expected, got)

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
