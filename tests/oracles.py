"""Independent reference routes used only by the tests.

Everything here recomputes a quantity straight from its definition, or by a
slower closed form the package has replaced, with no reuse of the package's
algorithms, so a disagreement points at a real defect rather than a shared
bug.  The exceptions are the routes that step the package's own
``PermutationGrower`` one label at a time: ``sample_by_growth``, the
sampler that ``perms.sample_generalized`` replaced, and the row kernels the
harness's chunk kernels replaced (``ROW_KERNELS``), which also use the
package's statistics.  Their own tests check them against enumeration.
``enumerate_by_insertion`` is the gap-insertion-and-sort enumerator that
the package's streaming depth-first search over prefixes replaced, and
``enumerate_by_dfs`` is that search as it was before it learned to append
cached endings; all three must yield the same words in the same order.  Likewise
``slot_tree_arrays_by_levels`` and ``bundled_tree_arrays_by_insertion``
build every tree of one order and sort, as the tree enumerators did before
they streamed from one lexicographic search over attachment arrays, and
``bundled_trees_by_position_search`` is that stream for bundled trees as it
was before it kept each group pattern's positions and children rows.

``urn_a_chunk``, ``ary_chunk`` and ``plane_chunk`` are the hand-written
chunk kernels that the harness's balanced-urn engine replaced, each with
its replacement rule as index arithmetic.  ``ary_chunk`` and
``plane_chunk`` draw the engine's integer stream, so the engine must match
them byte for byte; ``urn_a_chunk`` draws ``u * total`` floats instead, an
independent stream for distribution tests.  ``stirling_k1_chunk`` is the
gap loop that ``stirling_perm`` ran at k = 1 before it stepped urn A on that
engine; it draws the engine's integers, so the two must match byte for byte.
``stirling_chunk_by_cumsum`` is the ``stirling_perm`` kernel at k > 1 as
it summed every row's class sizes at every step; the kernel that keeps
cumulative counts must match it byte for byte, generator state included.
``urn_engine_chunk`` is that engine as it stepped one chunk at a time with
one replacement rule for every table, and ``simulate_by_steps`` is
``urns.simulate`` as it drew one scalar integer per step; the runs of
chunks and the block draws must match them byte for byte.
``urn_b_levels`` steps the package's nested urn levels at any k, as the
``urn_b`` kernel did at k = 1 before it read off the certain block count.
``bundled_stats_by_nodes`` and ``verify_stat_transfer_by_objects`` are the
bundle statistics and the statistic-transfer check as they were before the
enumerators handed over trees built without validation and the check read
the children index directly.  ``seq_to_ary_tree_by_nodes`` is the path of
``encode --bijection seq`` from before it read its JSON dicts in place: it
still builds every node, and shares the package's node-form checks.
``bundled_node_repr`` is the ``repr`` that the dataclass generated for
``BundledNode`` before it wrote its text with a stack; it recurses once per
level.  ``perm_from_word_by_passes`` and ``parse_by_passes``,
``slot_index_by_two_passes`` and ``node_groups_by_two_passes`` are the
readers of word text, slot arrays and node forms as they were before each
checked its input in the pass that builds what the codecs read: each
checks in one pass and builds in another, and the one-pass readers must
give the same result, or the same error, wherever the old ones did.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np

from stirlperm import bijections, harness, perms, trees, urns
from stirlperm._rng import as_generator
from stirlperm.bijections import BundledNode


def multiset_words(multiplicities):
    """All distinct words over the multiset {1^m1, ..., n^mn}, by backtracking."""
    n = len(multiplicities)
    counts = list(multiplicities)
    total = sum(counts)
    word: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec() -> None:
        if len(word) == total:
            out.append(tuple(word))
            return
        for i in range(n):
            if counts[i]:
                counts[i] -= 1
                word.append(i + 1)
                rec()
                word.pop()
                counts[i] += 1

    rec()
    return out


def is_stirling(word) -> bool:
    """Definition check: everything between two copies of i is >= i."""
    for i in set(word):
        positions = [p for p, x in enumerate(word) if x == i]
        for a, b in zip(positions, positions[1:]):
            if any(word[t] < i for t in range(a + 1, b)):
                return False
    return True


def stirling_words(multiplicities):
    return [w for w in multiset_words(multiplicities) if is_stirling(w)]


def enumerate_by_insertion(multiplicities) -> list[tuple[int, ...]]:
    """All generalized Stirling permutations of the multiset in lexicographic
    order, built by inserting the run ``i^{k_i}`` into every gap of every
    word of the smaller labels, then sorting the whole list."""
    words: list[tuple[int, ...]] = [()]
    for label, m in enumerate(multiplicities, start=1):
        run = (label,) * m
        words = [w[:g] + run + w[g:] for w in words for g in range(len(w) + 1)]
    words.sort()
    return words


def enumerate_by_dfs(multiplicities):
    """Every generalized Stirling permutation of the multiset in lexicographic
    order, streamed from a depth-first search over prefixes that appends one
    symbol at a time, with the state of ``perms.validate_word`` (the seen
    counts and the stack of open labels).  The symbols that may extend a
    prefix are, in increasing order, the innermost open label and then every
    unseen label above it; once no label is unseen, the rest is forced."""
    n = len(multiplicities)
    padded = (0,) + tuple(multiplicities)
    seen = [0] * (n + 1)
    stack: list[int] = []
    word: list[int] = []
    unseen = n
    after = 0  # the next symbol at this depth must be larger than ``after``
    while True:
        if unseen:
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
                after = 0
                continue
        else:
            tail: list[int] = []
            for label in reversed(stack):
                tail += [label] * (padded[label] - seen[label])
            yield tuple(word + tail)
        if not word:
            return
        # backtrack: undo the last symbol and try the next one after it
        x = word.pop()
        if seen[x] == padded[x]:
            stack.append(x)
        seen[x] -= 1
        if not seen[x]:
            stack.pop()
            unseen += 1
        after = x


def direct_stats(word, kmax: int) -> dict:
    """Statistics recomputed from the bordered word 0 w 0.

    Totals count border positions; the per-ordinal counts do not.  The
    ordinal of a position is how many copies of its symbol appear up to and
    including it.
    """
    ell = len(word)
    a = (0,) + tuple(word) + (0,)
    ascents = sum(1 for i in range(ell + 1) if a[i] < a[i + 1])
    descents = sum(1 for i in range(ell + 1) if a[i] > a[i + 1])
    plateaux = sum(1 for i in range(ell + 1) if a[i] == a[i + 1])

    def ordinal(pos: int) -> int:
        return sum(1 for t in range(1, pos + 1) if a[t] == a[pos])

    j_asc = [0] * kmax
    j_desc = [0] * kmax
    j_plat = [0] * max(kmax - 1, 0)
    for i in range(1, ell + 1):
        if a[i] < a[i + 1]:
            j_asc[ordinal(i) - 1] += 1
        if i < ell and a[i] > a[i + 1]:
            j_desc[ordinal(i + 1) - 1] += 1
        if i < ell and a[i] == a[i + 1]:
            j_plat[ordinal(i) - 1] += 1
    return {
        "ascents": ascents,
        "descents": descents,
        "plateaux": plateaux,
        "j_ascents": tuple(j_asc),
        "j_descents": tuple(j_desc),
        "j_plateaux": tuple(j_plat),
    }


def block_intervals(word):
    """Blocks via top-level cut points: a gap is a cut iff no symbol's span
    of occurrences crosses it."""
    ell = len(word)
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for p, x in enumerate(word):
        first.setdefault(x, p)
        last[x] = p
    cuts = [0]
    for t in range(1, ell):
        if all(not (first[x] < t <= last[x]) for x in first):
            cuts.append(t)
    cuts.append(ell)
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def ary_code(tree, v: int = 1):
    """Recursive form of the depth-first contour code: the node's label is
    emitted between consecutive subtree codes.  The root of an F-tree has
    ``root_slot_count`` slots, so its label appears once less per missing
    slot; every other node has ``arity`` slots."""
    slots = getattr(tree, "root_slot_count", tree.arity) if v == 1 else tree.arity
    parts: list[int] = []
    for s in range(1, slots + 1):
        if s > 1:
            parts.append(v)
        c = tree.child(v, s)
        if c:  # 0 marks a free slot
            parts.extend(ary_code(tree, c))
    return parts


def bundled_code(tree, v: int = 1):
    """Recursive form of the bundled code: bundles separated by the node's
    label, each child wrapped in its own label pair."""
    parts: list[int] = []
    for idx, bundle in enumerate(tree.bundles_of(v)):
        if idx:
            parts.append(v)
        for u in bundle:
            parts.append(u)
            parts.extend(bundled_code(tree, u))
            parts.append(u)
    return parts


def _occurrences(word, n: int) -> list[list[int]]:
    occ: list[list[int]] = [[] for _ in range(n + 1)]
    for pos, x in enumerate(word):
        occ[x].append(pos)
    return occ


def ary_arrays_by_range_min(word, k: int) -> tuple:
    """``(parent, slot)`` of the ary tree of a k-Stirling permutation, by
    segments: a segment's smallest label (a sparse-table range-minimum query)
    hangs in the segment's slot, and its k occurrences cut the segment into
    its k+1 child segments."""
    n = max(word)
    occ = _occurrences(word, n)
    tables = [np.asarray(word, dtype=np.int64)]
    half = 1
    while 2 * half <= len(word):
        prev = tables[-1]
        tables.append(np.minimum(prev[: len(prev) - half], prev[half:]))
        half *= 2
    parent = [0] * (n + 1)
    slot = [0] * (n + 1)
    stack = [(0, len(word), 0, 0)]
    while stack:
        lo, hi, par, s = stack.pop()
        if lo >= hi:
            continue
        j = (hi - lo).bit_length() - 1
        v = int(min(tables[j][lo], tables[j][hi - (1 << j)]))
        parent[v], slot[v] = par, s
        prev = lo
        for i, cut in enumerate(occ[v], start=1):
            stack.append((prev, cut, v, i))
            prev = cut + 1
        stack.append((prev, hi, v, k + 1))
    return tuple(parent[1:]), tuple(slot[1:])


def bundled_arrays_by_segments(word, k: int) -> tuple:
    """``(parent, bundle, pos_in_bundle)`` of the (k+1)-bundled tree of a
    k-bundled permutation, by segments: each bundle segment is cut into the
    full spans of its labels, which become the bundle's children in order,
    and a child's inner occurrences cut its span into its own bundles."""
    n = max(word)
    occ = _occurrences(word, n)
    parent = [0] * (n + 1)
    bundle = [0] * (n + 1)
    pos = [0] * (n + 1)
    stack: list[tuple[int, int, int, int]] = []

    def push_segments(node: int, lo: int, hi: int, walls: list[int]) -> None:
        for b, cut in enumerate(walls + [hi], start=1):
            stack.append((lo, cut, node, b))
            lo = cut + 1

    push_segments(1, 0, len(word), occ[1])
    while stack:
        lo, hi, node, b = stack.pop()
        q = 0
        while lo < hi:
            u = word[lo]
            q += 1
            parent[u], bundle[u], pos[u] = node, b, q
            push_segments(u, lo + 1, occ[u][-1], occ[u][1:-1])
            lo = occ[u][-1] + 1
    return tuple(parent[1:]), tuple(bundle[1:]), tuple(pos[1:])


def cartesian_node(seq):
    """Recursive form of the sequence bijection, with ``(label, slots)``
    tuples as ary nodes (``None`` for a free slot): the tree of smallest label
    is the root, the part of the sequence left of it goes to slot 1, its
    bundles to the middle slots, the part right of it to the last slot."""
    if not seq:
        return None
    i = min(range(len(seq)), key=lambda j: seq[j].label)
    t = seq[i]
    slots = (cartesian_node(seq[:i]),)
    slots += tuple(cartesian_node(b) for b in t.bundles)
    return (t.label, slots + (cartesian_node(seq[i + 1 :]),))


def cartesian_sequence(node):
    """Inverse of :func:`cartesian_node`, by concatenation."""
    if node is None:
        return ()
    label, slots = node
    middle = BundledNode(label, tuple(cartesian_sequence(s) for s in slots[1:-1]))
    return cartesian_sequence(slots[0]) + (middle,) + cartesian_sequence(slots[-1])


def slot_node(tree, v: int):
    """The subtree of an ary tree at v as ``(label, slots)``, read off the
    parent and slot arrays."""
    below = {(p, s): u for u, (p, s) in enumerate(zip(tree.parent, tree.slot), start=1)}

    def build(u):
        if u is None:
            return None
        return (u, tuple(build(below.get((u, s))) for s in range(1, tree.arity + 1)))

    return build(v)


def _place(node, par: int, s: int, parent: dict, slot: dict) -> None:
    if node is None:
        return
    label, slots = node
    parent[label], slot[label] = par, s
    for i, child in enumerate(slots, start=1):
        _place(child, label, i, parent, slot)


def _arrays(*tables: dict) -> tuple:
    return tuple(tuple(table[v] for v in range(1, len(table) + 1)) for table in tables)


def seq_to_ary_arrays(seq) -> tuple:
    """``(arity, parent, slot)`` of the ary tree of a sequence of node forms."""
    root = cartesian_node(tuple(seq))
    parent: dict = {}
    slot: dict = {}
    _place(root, 0, 0, parent, slot)
    return (len(root[1]), *_arrays(parent, slot))


def ary_to_seq(tree):
    """The sequence of node forms of an ary tree."""
    return cartesian_sequence(slot_node(tree, 1))


def seq_to_ary_tree_by_nodes(items):
    """The sequence bijection on JSON node forms the way ``encode
    --bijection seq`` ran it before it read the dicts in place: every item
    becomes a :class:`BundledNode` through ``from_json_dict``, one item
    after another, and the nodes go to ``bijections.seq_to_ary_tree``."""
    return bijections.seq_to_ary_tree([BundledNode.from_json_dict(item) for item in items])


def perm_from_word_by_passes(word):
    """``GenStirlingPerm.from_word`` as it read a word before it checked it
    in the pass that counts: one pass counts the labels into a table as
    long as the largest label, checking each is 1..n, and the validating
    constructor then reads the word again against those counts."""
    w = tuple(map(int, word))
    n = max(w, default=0)
    counts = [0] * n
    for x in w:
        if not 1 <= x <= n:
            raise perms.InvalidPermutationError(f"labels must be 1..n, got {x}")
        counts[x - 1] += 1
    return perms.GenStirlingPerm(w, tuple(counts))


def parse_by_passes(text: str):
    """``GenStirlingPerm.parse`` as it was before its one checked pass,
    through :func:`perm_from_word_by_passes`; every field ``int`` reads
    was a label, ``+1``, ``1_0`` and non-ASCII digits included."""
    text = text.strip()
    if not text:
        return perms.GenStirlingPerm((), ())
    if "," in text or " " in text:
        if ",," in "," + "".join(text.split()) + ",":
            raise perms.InvalidPermutationError(f"blank comma field in permutation {text!r}")
        return perm_from_word_by_passes(text.replace(",", " ").split())
    if not text.isdigit():
        raise perms.InvalidPermutationError(f"cannot parse permutation {text!r}")
    return perm_from_word_by_passes(text)


def slot_index_by_two_passes(arity: int, root_slots: int, parent, slot) -> list[list[int]]:
    """The children index that the slot-tree constructor built before it
    filled it in its check loop: one pass checks every node, in node
    order, marking taken slots in a flat table, and the package's
    ``_slot_index`` then reads the arrays again.  ``root_slots`` is the
    root's slot count (``arity - 2`` for an F-tree)."""
    parent, slot = tuple(map(int, parent)), tuple(map(int, slot))
    n = len(parent)
    if arity < 2:
        raise trees.InvalidTreeError("arity must be >= 2")
    if n < 1 or len(slot) != n:
        raise trees.InvalidTreeError("parent and slot arrays must be non-empty and aligned")
    if parent[0] != 0 or slot[0] != 0:
        raise trees.InvalidTreeError("node 1 must be the root")
    used = bytearray((n + 1) * (arity + 1))
    for v in range(2, n + 1):
        p, s = parent[v - 1], slot[v - 1]
        if not 1 <= p < v:
            raise trees.InvalidTreeError(f"node {v} needs a smaller parent, got {p}")
        if not 1 <= s <= (root_slots if p == 1 else arity):
            raise trees.InvalidTreeError(f"slot of node {v} out of range: {s}")
        i = p * (arity + 1) + s
        if used[i]:
            raise trees.InvalidTreeError(f"slot {s} of node {p} used twice")
        used[i] = 1
    return trees._slot_index(arity, parent, slot)


def node_groups_by_two_passes(roots: tuple) -> tuple[dict, int, int]:
    """The children index of node forms as ``bijections._node_groups``
    built it before it checked JSON dicts in its walk: the dicts are all
    checked in preorder first, and a second walk then builds the index,
    raising each structural fault as it meets it."""
    if not roots:
        raise trees.InvalidTreeError("sequence must be non-empty")
    if all(isinstance(root, BundledNode) for root in roots):
        label_of, read = (lambda node: node.label), (lambda node: (node.label, node.bundles))
    else:
        bijections._json_node_fields(roots)
        label_of, read = (lambda node: node["label"]), (lambda node: (node["label"], node["bundles"]))
    m = len(read(roots[0])[1])
    groups = {(0, 1): tuple(map(label_of, roots))}
    labels: set[int] = set()
    stack = list(roots)
    while stack:
        v, bundles = read(stack.pop())
        if len(bundles) != m:
            raise trees.InvalidTreeError(f"mixed bundle counts: {m} and {len(bundles)}")
        if v in labels:
            raise trees.InvalidTreeError(f"label {v} appears twice")
        labels.add(v)
        for b, children in enumerate(bundles, start=1):
            if children:
                row = groups[v, b] = tuple(map(label_of, children))
                if min(row) <= v:
                    raise trees.InvalidTreeError(f"node {min(row)} needs a smaller parent, got {v}")
            stack += children
    n = len(labels)
    if labels != set(range(1, n + 1)):
        raise trees.InvalidTreeError("labels must partition 1..n")
    return groups, m, n


# a field-for-field twin of BundledNode that keeps the generated repr
_ReprTwin = dataclasses.make_dataclass("BundledNode", ["label", "bundles"], frozen=True)


def bundled_node_repr(node) -> str:
    """The generated dataclass ``repr`` of a :class:`BundledNode`: that of a
    twin with the same class name, fields and generated ``repr``, built by
    recursion through nodes and plain tuples."""

    def twin(value):
        if isinstance(value, BundledNode):
            return _ReprTwin(value.label, twin(value.bundles))
        if type(value) is tuple:
            return tuple(map(twin, value))
        return value

    return repr(twin(node))


def bundled_node(tree, v: int = 1):
    """The subtree of a bundled tree at v as a :class:`BundledNode`."""
    bundles = tree.bundles_of(v)
    return BundledNode(v, tuple(tuple(bundled_node(tree, u) for u in b) for b in bundles))


def f_tree_arrays(tree) -> tuple:
    """``(parent, slot)`` of the F-tree of a bundled tree: the recursive
    sequence bijection of root bundle b, placed in root slot b."""
    parent = {1: 0}
    slot = {1: 0}
    for b, bundle in enumerate(tree.bundles_of(1), start=1):
        _place(cartesian_node(tuple(bundled_node(tree, u) for u in bundle)), 1, b, parent, slot)
    return _arrays(parent, slot)


def bundled_arrays_from_f_tree(ftree) -> tuple:
    """``(parent, bundle, pos_in_bundle)`` of the bundled tree of an F-tree:
    root slot b decoded as the sequence of root bundle b."""
    parent = {1: 0}
    bundle = {1: 0}
    pos = {1: 0}

    def place(node, p: int, b: int, q: int) -> None:
        parent[node.label], bundle[node.label], pos[node.label] = p, b, q
        for bb, seq in enumerate(node.bundles, start=1):
            for qq, child in enumerate(seq, start=1):
                place(child, node.label, bb, qq)

    root_slots = slot_node(ftree, 1)[1]
    for b in range(1, ftree.root_slot_count + 1):
        for q, t in enumerate(cartesian_sequence(root_slots[b - 1]), start=1):
            place(t, 1, b, q)
    return _arrays(parent, bundle, pos)


def left_right_count(tree) -> int:
    """Nodes whose full root path uses only the two extreme slots, each
    checked by explicitly walking up to the root."""
    extreme = {1, tree.arity}
    count = 0
    for v in range(1, tree.order + 1):
        node = v
        ok = True
        while node != 1:
            if tree.slot[node - 1] not in extreme:
                ok = False
                break
            node = tree.parent[node - 1]
        count += ok
    return count


def bundled_stats_by_nodes(tree) -> trees.BundledStatProfile:
    """Bundle statistics by visiting every bundle of every node through
    ``bundles_of``, as ``trees.bundled_stats`` did before it read only the
    non-empty bundles of the children index."""
    asc = desc = nonempty = 0
    empty = 0
    m = tree.bundle_count
    for v in range(1, tree.order + 1):
        bundles = tree.bundles_of(v)
        for idx, b in enumerate(bundles):
            if b:
                nonempty += 1
                asc += sum(1 for i in range(len(b) - 1) if b[i] < b[i + 1])
                desc += sum(1 for i in range(len(b) - 1) if b[i] > b[i + 1])
            else:
                if v > 1 or 0 < idx < m - 1:
                    empty += 1
    root = tree.bundles_of(1)
    return trees.BundledStatProfile(
        bundle_ascents=asc + nonempty + (1 if not root[0] else 0),
        bundle_descents=desc + nonempty + (1 if not root[-1] else 0),
        empty_bundles=empty,
    )


def verify_stat_transfer_by_objects(n: int, k: int, include_bundled: bool = True):
    """``bijections.verify_stat_transfer`` as it ran before it compared
    tuples: each tree rebuilt by its validating constructor, its code taken
    from the recursive oracle, and one named check at a time.  The
    statistics are read through the bindings in ``bijections``, so a test
    that patches them there patches both routes."""
    bad: list[dict] = []

    def record(kind, tree, code, field, expected, got) -> None:
        bad.append({"kind": kind, "tree": tree.to_json_dict(), "word": list(code.word),
                    "field": field, "expected": expected, "got": got})

    ary_count = 0
    for t in trees.enumerate_ary_trees(n, k + 1):
        tree = trees.AryIncreasingTree(t.arity, t.parent, t.slot)
        ary_count += 1
        code = perms.GenStirlingPerm(tuple(ary_code(tree)), perms.uniform_multiplicities(n, k))
        prof = bijections.stat_profile(code)
        ts = bijections.ary_stats(tree)
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
        blocks = len(block_intervals(code.word))
        checks.append(("blocks=leftRight", ts.left_right, blocks))
        for field, expected, got in checks:
            if expected != got:
                record("ary", tree, code, field, expected, got)

    bundled_count = 0
    if include_bundled:
        for t in trees.enumerate_bundled_trees(n, k + 1):
            tree = trees.BundledIncreasingTree(t.bundle_count, t.parent, t.bundle, t.pos_in_bundle)
            bundled_count += 1
            code = perms.GenStirlingPerm(
                tuple(bundled_code(tree)), perms.bundled_multiplicities(n, k)
            )
            prof = bijections.stat_profile(code)
            bs = bijections.bundled_stats(tree)
            for field, expected, got in (
                ("bundleAscents=ascents", bs.bundle_ascents, prof.ascents),
                ("bundleDescents=descents", bs.bundle_descents, prof.descents),
                ("emptyBundles=plateaux", bs.empty_bundles, prof.plateaux),
            ):
                if expected != got:
                    record("bundled", tree, code, field, expected, got)

    return bijections.StatTransferReport(n, k, ary_count, bundled_count, tuple(bad))


def urn_exact_distribution(spec, steps: int) -> dict[tuple[int, ...], Fraction]:
    """Exact state distribution after ``steps`` draws, by expanding every
    trajectory with rational weights."""
    dist = {tuple(spec.initial): Fraction(1)}
    for _ in range(steps):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for counts, p in dist.items():
            total = sum(counts)
            for i, c in enumerate(counts):
                if c == 0:
                    continue
                after = tuple(a + d for a, d in zip(counts, spec.deltas[i]))
                nxt[after] = nxt.get(after, Fraction(0)) + p * Fraction(c, total)
        dist = nxt
    return dist


def jackknife_covariance_slow(matrix):
    """Delete-one jackknife of the sample covariance by literally refitting
    with each row removed."""
    x = np.asarray(matrix, dtype=np.float64)
    rows = x.shape[0]
    thetas = np.array(
        [
            np.cov(np.delete(x, r, axis=0), rowvar=False, ddof=1)
            for r in range(rows)
        ]
    )
    centered = thetas - thetas.mean(axis=0)
    return np.sqrt((rows - 1) / rows * (centered**2).sum(axis=0))


def generalized_binomial(a, n: int) -> Fraction:
    """``binom(a, n) = a (a-1) ... (a-n+1) / n!`` for rational ``a``."""
    prod = Fraction(1)
    for i in range(n):
        prod *= Fraction(a) - i
    return prod / math.factorial(n)


def block_count_pmf_alternating(n: int, k: int) -> list[Fraction]:
    """``P{S_n = m}`` for m = 1..n by the alternating closed form
    ``sum_l binom(m, l) (-1)^l binom(n - l/k - 1, n) / binom(n + 1/k - 1, n)``."""
    denom = generalized_binomial(n + Fraction(1, k) - 1, n)
    return [
        sum(
            (
                math.comb(m, l) * (-1) ** l * generalized_binomial(n - Fraction(l, k) - 1, n)
                for l in range(m + 1)
            ),
            Fraction(0),
        )
        / denom
        for m in range(1, n + 1)
    ]


def block_binomial_moment_forms(n: int, k: int, r: int) -> tuple[Fraction, Fraction]:
    """The two rational-binomial forms of ``E binom(S_n + r, r)``:
    ``binom(n-1+(r+1)/k, n) / binom(n-1+1/k, n)`` and
    ``(r+1) binom(n-1+(r+1)/k, n-1) / binom(n-1+1/k, n-1)``."""
    top = n - 1 + Fraction(r + 1, k)
    bottom = n - 1 + Fraction(1, k)
    return (
        generalized_binomial(top, n) / generalized_binomial(bottom, n),
        (r + 1) * generalized_binomial(top, n - 1) / generalized_binomial(bottom, n - 1),
    )


def block_binomial_moment_products(n: int, k: int, r: int) -> tuple[int, int]:
    """Numerator and denominator of ``E binom(S_n + r, r) = prod_{j<n}
    (kj + r + 1) / prod_{j<n} (kj + 1)``, each as its own product."""
    return math.prod(k * j + r + 1 for j in range(n)), math.prod(k * j + 1 for j in range(n))


def block_count_moments(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the block count S_n, from the rational
    binomial moments for r = 1, 2: the form of the ``urn_b_blocks`` theory
    before it read the float moments."""

    def moment(r: int) -> Fraction:
        return Fraction(*block_binomial_moment_products(n, k, r))

    mean = moment(1) - 1
    # E binom(S+2, 2) = (E S^2 + 3 E S + 2) / 2
    return mean, 2 * moment(2) - 3 * mean - 2 - mean * mean


def martingale_scaling_binomial(n: int, k: int) -> Fraction:
    """``binom(n-1+1/k, n-1) / binom(n-1+2/k, n-1)``."""
    return generalized_binomial(n - 1 + Fraction(1, k), n - 1) / generalized_binomial(
        n - 1 + Fraction(2, k), n - 1
    )


# The family-specific forms that the package replaced by its general ones:
# the gap-insertion count, the binomial moment, one attachment rule and the
# fixed-addition urn.


def count_k_stirling_product(n: int, k: int) -> int:
    """``prod_{i=1}^{n-1} (k*i + 1)``."""
    return math.prod(k * i + 1 for i in range(1, n))


def count_bundled_product(n: int, k: int) -> int:
    """``prod_{i=1}^{n-1} (i*(k+2) - 1)``, also at k = 0."""
    return math.prod(i * (k + 2) - 1 for i in range(1, n))


def martingale_scaling_product(n: int, k: int) -> Fraction:
    """``prod_{1<=j<n} (k*j + 1) / (k*j + 2)``."""
    return Fraction(
        math.prod(k * j + 1 for j in range(1, n)), math.prod(k * j + 2 for j in range(1, n))
    )


def attach_probability_by_kind(family, degree: int, order: int) -> Fraction:
    """The attachment probability with one rule per family kind: ``(d -
    degree) / ((d-1) order + 1)`` for d-ary trees, ``1 / order`` for
    recursive trees, and the alpha form for generalized plane trees."""
    if family.kind == trees.D_ARY:
        d = family.arity
        return Fraction(d - degree, (d - 1) * order + 1)
    if family.kind == trees.RECURSIVE:
        return Fraction(1, order)
    a = family.alpha
    return (degree + a) / ((a + 1) * order - 1)


def symmetric_urn_table(q: int, initial=None) -> urns.UrnSpec:
    """Urn A written out: drawing colour c discards it and adds one ball of
    every colour, so its row is all ones but a zero at c."""
    init = tuple(initial) if initial is not None else (1,) * q
    deltas = tuple(tuple(int(j != c) for j in range(q)) for c in range(q))
    return urns.UrnSpec(urns.KIND_SYMMETRIC, tuple(f"color{j+1}" for j in range(q)), init, deltas)


def total_weight_binomial(family, n: int) -> Fraction:
    """``phi_0 c_1^{n-1} (n-1)! binom(n-1+c_2/c_1, n-1)``."""
    return (
        family.phi0
        * family.c1 ** (n - 1)
        * math.factorial(n - 1)
        * generalized_binomial(n - 1 + family.c2 / family.c1, n - 1)
    )


def urn_b_steps(n: int, k: int, count: int, rng) -> np.ndarray:
    """``count`` rows (black, white) of the triangular block urn after n-1
    draws, drawing step by step: white is drawn with probability
    white/total and adds one white and k-1 black, black adds k black."""
    black = np.full(count, k - 1, dtype=np.int64)
    white = np.full(count, 2, dtype=np.int64)
    total = k + 1
    for _ in range(n - 1):
        is_white = rng.random(count) * total < white
        white += is_white
        black += k - is_white
        total += k
    return np.stack([black, white], axis=1).astype(np.float64)


def urn_b_levels(n: int, k: int, count: int, rng) -> np.ndarray:
    """``count`` rows (black, white) of the triangular block urn, white
    being one more than the number of nested urn levels: the ``urn_b``
    kernel as it ran at every k, k = 1 included, before it took the block
    count n at k = 1 without stepping the levels."""
    blocks = np.zeros(count, dtype=np.int64)
    for rows, _ in urns._block_levels(k, n, count, rng):
        blocks[rows] += 1
    white = blocks + 1
    return np.stack([k * n + 1 - white, white], axis=1).astype(np.float64)


def urn_c_steps(n: int, k: int, count: int, rng) -> np.ndarray:
    """``count`` rows (white, black, firstFraction) of the classical Polya
    urn (k balls of the drawn colour) from (k-1, 2) after n-1 draws, drawing
    step by step; firstFraction is (white + 1)/(kn)."""
    white = np.full(count, k - 1, dtype=np.int64)
    black = np.full(count, 2, dtype=np.int64)
    total = k + 1
    for _ in range(n - 1):
        is_white = rng.random(count) * total < white
        white += k * is_white
        black += k * (1 - is_white)
        total += k
    fraction = (white + 1) / float(k * n)
    return np.stack([white.astype(np.float64), black.astype(np.float64), fraction], axis=1)


def nested_block_steps(k: int, n: int, rng) -> tuple[int, ...]:
    """Label-ordered block sizes of one random k-Stirling permutation of
    order n, grown gap by gap: step ``i -> i+1`` picks one of the
    ``k*i + 1`` gaps uniformly; a gap strictly inside block ``m`` grows that
    block by k, any of the gaps outside the blocks starts a new block of k."""
    sizes = [k]
    for order in range(1, n):
        u = int(rng.integers(0, k * order + 1))
        acc = 0
        for i, size in enumerate(sizes):
            acc += size - 1  # interior gaps of block i
            if u < acc:
                sizes[i] += k
                break
        else:
            sizes.append(k)
    return tuple(sizes)


def stick_breaking_steps(k: int, depth: int, count: int, rng) -> np.ndarray:
    """``count`` rows of the first ``depth`` stick-breaking components and
    the remainder, breaking the stick one level at a time."""
    levels = np.arange(1, depth + 1)
    betas = rng.beta((k - 1) / k, (levels + 1) / k, size=(count, depth))
    out = np.empty((count, depth + 1))
    stick = np.ones(count)
    for m in range(depth):
        out[:, m] = betas[:, m] * stick
        stick = stick * (1.0 - betas[:, m])
    out[:, depth] = stick
    return out


def urn_a_covariance_closed_form(q: int) -> tuple[tuple, tuple]:
    """Covariance and centering of the Gaussian limit of the symmetric urn
    on q colours: ``(q-1)(q delta_ij - 1) / (q^2 (q+1))`` and ``(q-1)/q``."""
    cov = tuple(
        tuple(
            Fraction((q - 1) * ((q if i == j else 0) - 1), q * q * (q + 1))
            for j in range(q)
        )
        for i in range(q)
    )
    return cov, (Fraction(q - 1, q),) * q


def tnormal_covariance_closed_form(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Limit covariance of (ascents, descents, plateaux) of a random
    k-Stirling permutation, entry by entry over ``(k+1)^2 (k+2)``."""
    den = (k + 1) ** 2 * (k + 2)
    var_xy = Fraction(k * k, den)
    cov_xy = Fraction(-k, den)
    cov_xz = Fraction(-k * (k - 1), den)
    var_z = Fraction(2 * k * (k - 1), den)
    return (
        (var_xy, cov_xy, cov_xz),
        (cov_xy, var_xy, cov_xz),
        (cov_xz, cov_xz, var_z),
    )


def bundled_sequences(n: int, m: int):
    """All sequences of m-bundled increasing trees whose label sets
    partition 1..n, by splitting label sets recursively: a sequence is a
    first tree on any non-empty subset and a sequence on the rest; a tree is
    its smallest label with its other labels split over m bundles, each a
    sequence."""

    def subsets(items):
        for mask in range(1 << len(items)):
            yield tuple(x for i, x in enumerate(items) if mask >> i & 1)

    def sequences(labels):
        if not labels:
            yield ()
            return
        for first_set in subsets(labels):
            if not first_set:
                continue
            rest = tuple(x for x in labels if x not in first_set)
            for tree in trees_on(first_set):
                for tail in sequences(rest):
                    yield (tree,) + tail

    def bundle_tuples(labels, slots):
        if slots == 1:
            for seq in sequences(labels):
                yield (seq,)
            return
        for first_set in subsets(labels):
            rest = tuple(x for x in labels if x not in first_set)
            for seq in sequences(first_set):
                for tail in bundle_tuples(rest, slots - 1):
                    yield (seq,) + tail

    def trees_on(labels):
        root, rest = labels[0], labels[1:]  # labels sorted ascending: root = min
        for bundles in bundle_tuples(rest, m):
            yield BundledNode(root, bundles)

    yield from sequences(tuple(range(1, n + 1)))


def slot_tree_arrays_by_levels(n: int, arity: int, root_slots: int) -> list[tuple]:
    """``(parent, slot)`` arrays of every order-n slot tree whose root has
    ``root_slots`` slots and other nodes ``arity``, sorted: all partial
    arrays of each order are listed, each extended by every free slot."""
    items: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((0,), (0,))]
    for v in range(2, n + 1):
        nxt = []
        for parent, slot in items:
            used = set(zip(parent[1:], slot[1:]))
            for p in range(1, v):
                for s in range(1, (root_slots if p == 1 else arity) + 1):
                    if (p, s) not in used:
                        nxt.append((parent + (p,), slot + (s,)))
        items = nxt
    return sorted(items)


def bundled_tree_arrays_by_insertion(n: int, m: int) -> list[tuple]:
    """``(parent, bundle, pos_in_bundle)`` arrays of every order-n tree with
    m bundles per node, sorted: each tree of order v-1, as a tuple over nodes
    of a tuple over bundles of child tuples, is extended by label v in every
    gap of every bundle."""
    states: list[tuple] = [(((),) * m,)]
    for v in range(2, n + 1):
        nxt = []
        for state in states:
            for node in range(1, v):
                row = state[node - 1]
                for b in range(m):
                    seq = row[b]
                    for gap in range(len(seq) + 1):
                        new_row = row[:b] + (seq[:gap] + (v,) + seq[gap:],) + row[b + 1 :]
                        nxt.append(state[: node - 1] + (new_row,) + state[node:] + (((),) * m,))
        states = nxt
    return sorted(map(_bundles_arrays, states))


def bundled_trees_by_position_search(n: int, m: int):
    """Every order-n bundled tree with m bundles per node, in the order of
    ``trees.enumerate_bundled_trees``, as it was before it kept each group
    pattern's layouts: the position search restarts and every children row
    is rebuilt for each (parent, bundle) array."""
    for parent in trees._lex_search(range(1, n), (0,) * n, [n] * n):
        for bundle in product(range(1, m + 1), repeat=n - 1):
            ids: dict[tuple[int, int], int] = {}
            group = [ids.setdefault(pair, len(ids)) for pair in zip(parent, bundle)]
            size = [0] * len(ids)
            for g in group:
                size[g] += 1
            for pos in trees._lex_search([size[g] for g in group], group, [1] * n):
                rows = [[0] * s for s in size]
                for v, g, q in zip(range(2, n + 1), group, pos):
                    rows[g][q - 1] = v
                yield trees.BundledIncreasingTree._trusted(
                    bundle_count=m,
                    parent=(0,) + parent,
                    bundle=(0,) + bundle,
                    pos_in_bundle=(0,) + pos,
                    _groups=dict(zip(ids, map(tuple, rows))),
                )


def _bundles_arrays(rows) -> tuple:
    """``(parent, bundle, pos_in_bundle)`` of the tree whose node v has the
    children ``rows[v-1][j]`` in bundle j+1."""
    parent, bundle, pos = {1: 0}, {1: 0}, {1: 0}
    for p, row in enumerate(rows, start=1):
        for b, seq in enumerate(row, start=1):
            for q, c in enumerate(seq, start=1):
                parent[c], bundle[c], pos[c] = p, b, q
    return _arrays(parent, bundle, pos)


def grow_bundles_scan(m: int, a: int, b: int, n: int, rng) -> list[list[list[int]]]:
    """Bundled growth with the node found by scanning the cumulative node
    weights ``a + b*deg(v)`` for one uniform integer below their total, then
    one of the ``m + deg(v)`` bundle gaps uniformly; ``bundles[v-1][j]`` are
    the children of v in bundle j+1."""
    bundles = [[[] for _ in range(m)] for _ in range(n)]
    weight = [a] * n
    for v in range(2, n + 1):
        order = v - 1
        u = int(rng.integers(0, a * order + b * (order - 1)))
        node = 0
        acc = weight[0]
        while u >= acc:
            node += 1
            acc += weight[node]
        row = bundles[node]
        gap = int(rng.integers(0, m + sum(map(len, row))))
        for seq in row:
            if gap <= len(seq):
                seq.insert(gap, v)
                break
            gap -= len(seq) + 1
        weight[node] += b
    return bundles


def grow_bundled_tree_scan(m: int, n: int, seed) -> trees.BundledIncreasingTree:
    """A uniformly random m-bundled tree of order n, grown by
    :func:`grow_bundles_scan` with node weights ``m + deg(v)``: each step
    takes one of the ``(m+1)*order - 1`` insertion positions uniformly.  It
    shares no code with the bundle codec, so the codec can be tested on it."""
    bundles = grow_bundles_scan(m, m, 1, n, np.random.default_rng(seed))
    return trees.BundledIncreasingTree(m, *_bundles_arrays(bundles))


def urn_a_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    """Symmetric urn on k+1 colors, n draws from the all-ones state, each
    picked by a float uniform times the total.

    Each draw adds one ball of every color other than the drawn one, so the
    counts match the exterior slot counts of a random (k+1)-ary increasing
    tree of order n+1.
    """
    q = k + 1
    counts = np.ones((count, q), dtype=np.int64)
    rows = np.arange(count)
    total = q
    done = 0
    while done < n:
        block = min(harness.STEP_CHUNK, n - done)
        u = rng.random((block, count))
        for t in range(block):
            cum = np.cumsum(counts, axis=1)
            drawn = (u[t][:, None] * total >= cum).sum(axis=1)
            counts += 1
            counts[rows, drawn] -= 1
            total += q - 1
        done += block
    return counts.astype(np.float64)


def ary_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    """Slot-class urn of a random (k+1)-ary increasing tree of order n.

    Row r's free (j+1)-slots whose parent is (not) a leaf and is (not)
    left-right are counted in class ``4j + 2*leaf + lr``.  Each step takes
    one free slot uniformly; a leaf parent stops being a leaf, so its other
    slots move to the non-leaf class; the new node brings k+1 leaf slots and
    is left-right iff its parent is and the slot is an extreme one.
    """
    d = k + 1
    free = np.zeros((count, d, 2, 2), dtype=np.int64)
    free[:, :, 1, 1] = 1
    table = free.reshape(count, 4 * d)
    flat = free.reshape(-1)
    base = np.arange(count) * (4 * d)
    slots = np.arange(0, 4 * d, 4)  # class (j, non-leaf, not left-right) of each slot j
    left_right = np.ones(count, dtype=np.int64)
    for t in range(1, n):
        u = rng.integers(0, d + (t - 1) * (d - 1), size=harness.REPLICATE_CHUNK)[:count]
        cls = (u[:, None] >= np.cumsum(table, axis=1)).sum(axis=1)
        j, leaf, lr = cls >> 2, (cls >> 1) & 1, cls & 1
        # take the slot from the non-leaf class; a leaf parent first moves
        # all of its slots there
        flat[base + (cls & ~2)] -= 1
        parent = (base + lr)[:, None] + slots
        flat[parent + 2] -= leaf[:, None]
        flat[parent] += leaf[:, None]
        new_lr = lr & ((j == 0) | (j == d - 1))
        flat[(base + 2 + new_lr)[:, None] + slots] += 1
        left_right += new_lr
    exterior = free.sum(axis=(2, 3))
    leaves = free[:, 0, 1].sum(axis=1)
    return np.column_stack([exterior, left_right, leaves]).astype(np.float64)


def plane_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    """Weight-class urn of a random k-plane recursive tree of order n.

    A node of degree d attracts the new node with weight 1 + (k-1)d.  The
    classes are the root, the non-root leaves (weight 1 each) and the other
    nodes; only (leaves, root degree) is kept.  The new node is a leaf, and
    the chosen node stops being one if it was.
    """
    leaves = np.ones(count, dtype=np.int64)
    root = np.zeros(count, dtype=np.int64)
    for t in range(1, n):
        u = rng.integers(0, t + (k - 1) * (t - 1), size=harness.REPLICATE_CHUNK)[:count]
        root_weight = 1 + (k - 1) * root
        root_leaf = root == 0
        at_root = u < root_weight
        at_leaf = ~at_root & (u < root_weight + leaves - root_leaf)
        leaves += 1
        leaves -= at_leaf | (at_root & root_leaf)
        root += at_root
    return np.stack([leaves, root], axis=1).astype(np.float64)


def stirling_k1_chunk(n: int, count: int, rng) -> np.ndarray:
    """``stirling_perm`` rows at k = 1, one label at a time.

    Every gap is an ascent or a descent, and label t+1 goes into one of the
    t+1 gaps, picked by an integer uniform: an ascent gap becomes an ascent
    and a descent, so the descents grow by one, and a descent gap makes the
    ascents grow by one.  Every label opens a block of one.
    """
    ascents = np.ones(count, dtype=np.int64)
    descents = np.ones(count, dtype=np.int64)
    for t in range(1, n):
        u = rng.integers(0, t + 1, size=harness.REPLICATE_CHUNK)[:count]
        ascent = u < ascents
        ascents += ~ascent
        descents += ascent
    ones = np.ones(count, dtype=np.int64)
    plateaux = n + 1 - ascents - descents
    return np.stack([ascents, descents, plateaux, n * ones, ones, ones], axis=1).astype(np.float64)


def stirling_chunk_by_cumsum(n: int, k: int, count: int, rng) -> np.ndarray:
    """Gap-class urn of a random k-Stirling permutation of order n.

    Inserting the run ``v^k`` into a gap of type t (ascent, descent or
    plateau) replaces it by one ascent, k-1 plateaux and one descent, so only
    the class of the gap matters.  Class 0 holds the boundary gaps between
    blocks and at the borders (ascents and descents only); class b >= 1 holds
    the gaps inside block b, in the order the blocks were opened.  A boundary
    gap opens a new block of k-1 inner plateaux; an inner gap grows its block
    by k.  One uniform gap per row picks the class by the class gap counts and
    the type by its offset inside the class.

    This is the kernel as it ran before it kept cumulative class counts:
    every step takes the cumulative sum of every row's class sizes and
    doubles the table whenever the widest row fills it.
    """
    if k == 1:
        # every gap is an ascent or a descent and every label opens a block
        # of one, so (ascents, descents) is urn A on two colours
        updown = harness._urn_rows(harness._up_down_urn, 1, n, k, (count,), (rng,))
        return np.column_stack([updown, np.zeros(count), np.full(count, n), np.ones((count, 2))])
    rows = np.arange(count)
    width = 4
    # gaps[:, r, c] = (gaps, ascents, descents) of class c in row r; the
    # rest of a class's gaps are plateaux
    gaps = np.zeros((3, count, width), dtype=np.int64)
    gaps[:, :, 0] = np.array([[2], [1], [1]])
    gaps[0, :, 1] = k - 1
    sizes, ascents, descents = gaps.reshape(3, -1)
    blocks = np.ones(count, dtype=np.int64)
    for t in range(1, n):
        u = rng.integers(0, k * t + 1, size=harness.REPLICATE_CHUNK)[:count]
        used = int(blocks.max()) + 1
        if used == width:
            gaps = np.concatenate([gaps, np.zeros_like(gaps)], axis=2)
            sizes, ascents, descents = gaps.reshape(3, -1)
            width *= 2
        cum = np.cumsum(gaps[0, :, :used], axis=1)
        cls = (u[:, None] >= cum).sum(axis=1)
        at = rows * width + cls
        size = sizes[at]
        offset = u - cum.reshape(-1)[rows * used + cls] + size
        a, d = ascents[at], descents[at]
        ascent = offset < a
        ascents[at] = a + ~ascent
        descents[at] = d + (ascent | (offset >= a + d))
        inner = cls > 0
        sizes[at] = size + np.where(inner, k, 1)
        opened = rows[~inner]
        blocks[opened] += 1
        sizes[opened * width + blocks[opened]] = k - 1
    asc = gaps[1].sum(axis=1)
    desc = gaps[2].sum(axis=1)
    first = gaps[0, :, 1] + 1
    largest = gaps[0, :, 1:].max(axis=1) + 1
    return np.stack(
        [asc, desc, k * n + 1 - asc - desc, blocks, first, largest], axis=1
    ).astype(np.float64)


# the steps of a chunk that the engine drew per call before it stepped runs
ENGINE_STEP_CHUNK = 2048


def urn_engine_chunk(urn_of, lag: int, n: int, k: int, count: int, rng):
    """``count`` rows of the urn ``urn_of(k)`` at order n, which is n - lag
    draws.  The column-major state keeps the drawn colours as cumulative
    counts, so the drawn colour is the number of them at or below the draw."""
    urn = urn_of(k)
    drawn = len(urn.deltas)
    cumulate = np.eye(len(urn.initial), dtype=np.int64)
    cumulate[:drawn, :drawn] = np.tri(drawn, dtype=np.int64)
    deltas = cumulate @ np.array(urn.deltas, dtype=np.int64).T
    state = np.repeat((cumulate @ urn.initial)[:, None], count, axis=1)
    cum = state[:drawn]
    start, growth = sum(urn.initial[:drawn]), sum(urn.deltas[0][:drawn])
    steps = n - lag
    for lo in range(0, steps, ENGINE_STEP_CHUNK):
        totals = start + growth * np.arange(lo, min(lo + ENGINE_STEP_CHUNK, steps))
        draws = rng.integers(0, totals[:, None], size=(len(totals), harness.REPLICATE_CHUNK))
        for u in draws[:, :count]:
            state += np.take(deltas, (u >= cum).sum(axis=0), axis=1)
        # free this block before the next is drawn: u is a view that keeps it
        del draws, u
    state[:drawn] = np.diff(cum, axis=0, prepend=0)
    if urn.readout is not None:
        state = np.array(urn.readout, dtype=np.int64) @ state
    return state.T.astype(np.float64)


def simulate_by_steps(spec, steps: int, seed=None, record_path: bool = False):
    """``urns.simulate`` with one scalar integer draw per step: the final
    state and the path (or None)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = as_generator(seed)
    drawn = len(spec.deltas)
    counts = list(spec.initial)
    path = [tuple(counts)] if record_path else None
    for _ in range(steps):
        total = sum(counts[:drawn])
        if total <= 0:
            raise RuntimeError("urn ran out of balls")
        u = int(rng.integers(0, total))
        color = 0
        acc = counts[0]
        while u >= acc:
            color += 1
            acc += counts[color]
        for j, change in enumerate(spec.deltas[color]):
            counts[j] += change
        if counts[color] < 0:
            raise RuntimeError("replacement produced a negative count")
        if path is not None:
            path.append(tuple(counts))
    return tuple(counts), None if path is None else tuple(path)


def stirling_stats(perm) -> tuple[float, ...]:
    """A ``stirling_perm`` row of one word: statistic profile and blocks."""
    profile = perms.stat_profile(perm)
    blocks = perms.block_decomposition(perm)
    return (
        float(profile.ascents),
        float(profile.descents),
        float(profile.plateaux),
        float(blocks.count),
        float(blocks.sizes_by_label[0]),
        float(blocks.sizes_descending[0]),
    )


def ary_tree_stats(tree) -> tuple[float, ...]:
    """An ``ary_tree`` row of one tree: free slots by slot, left-right nodes, leaves."""
    st = trees.ary_stats(tree)
    return tuple(float(v) for v in st.exterior_by_slot) + (
        float(st.left_right),
        float(st.leaves),
    )


def plane_tree_stats(tree) -> tuple[float, ...]:
    """A ``plane_tree`` row of one plane shape: leaves and root degree."""
    degrees = tree.degrees()
    return (float(degrees.count(0)), float(degrees[0]))


def sample_by_growth(mult, rng):
    """A uniform generalized Stirling permutation grown run by run, one draw per label."""
    grower = perms.PermutationGrower(lambda i: mult[i - 1], rng)
    grower.grow_to(len(mult))
    return grower.permutation()


def stirling_row(n: int, k: int, rng) -> tuple[float, ...]:
    """One ``stirling_perm`` row from a word grown run by run."""
    return stirling_stats(sample_by_growth((k,) * n, rng))


def ary_row(n: int, k: int, rng) -> tuple[float, ...]:
    """One ``ary_tree`` row from a grown (k+1)-ary increasing tree."""
    return ary_tree_stats(trees.grow_ary_tree(k + 1, n, rng))


def plane_row(n: int, k: int, rng) -> tuple[float, ...]:
    """One ``plane_tree`` row from a grown k-plane recursive tree."""
    return plane_tree_stats(trees.grow_plane_tree(trees.k_plane_family(k), n, rng))


def rows(row_kernel):
    """Chunk kernel that grows its rows one after another from the chunk's stream."""
    return lambda n, k, count, rng: np.array([row_kernel(n, k, rng) for _ in range(count)])


# generator name -> the row-by-row chunk kernel its harness kernel replaced
ROW_KERNELS = {
    "stirling_perm": rows(stirling_row),
    "ary_tree": rows(ary_row),
    "plane_tree": rows(plane_row),
}
# generator name -> an independent reference kernel for distribution tests
REFERENCE_KERNELS = {**ROW_KERNELS, "urn_a": urn_a_chunk}
