"""Polya urn models tied to Stirling permutation statistics.

Six urn tables of one type, :class:`UrnSpec`, all driven by a single
simulator and by :func:`transition_distribution`:

* ``symmetric_urn(q)``: draw a ball, discard it, add one ball of every
  colour.  From all ones, the ``q = k+1`` colour counts after n-1 draws have
  the joint law of the exterior slot counts of a random (k+1)-ary increasing
  tree of order n, so of the ascents, descents and plateaux of a random
  k-Stirling permutation.  The harness steps it as ``urn_a``.
* ``fixed_addition_urn(s)``: draw, discard, add the fixed vector ``s``.
* ``triangular_block_urn(k)``: colours (black, white); a black draw adds k
  black, a white draw adds k-1 black and 1 white.  Starting from (k-1, 2)
  the white count minus one is distributed like the number of blocks of a
  random k-Stirling permutation.
* ``polya_urn(k, w, b)``: classical two-colour urn, k extra balls of the
  drawn colour.  Nested copies of it drive the label-ordered block sizes.
* ``ary_tree_urn(k)``: the free slots of a (k+1)-ary increasing tree by
  slot, parent leaf or not and parent left-right or not, read out as the
  exteriors by slot, the left-right nodes and the leaves.
* ``plane_tree_urn(k)``: the nodes of a k-plane recursive tree by weight
  class, read out as the leaves and the root degree.

The two tree tables carry tally columns that are never drawn and read their
statistics out of the state; the harness steps them as ``ary_tree`` and
``plane_tree``.

Every block-law sampler draws each nested urn level from its beta-binomial
marginal: ``nested_block_urns`` lists the levels of one permutation,
``sample_block_size_stats`` folds those of many, and the harness reads urn
B (the level count) and urn C (the first level) off the same levels.

``fixed_addition_covariance`` returns the exact covariance matrix of the
Gaussian limit of a fixed-addition urn together with its per-step centering
rates, as rationals.  It is the one formula for every such limit: urn A is
the case ``s = (1,)*q`` (``urn_a_covariance``), and the (ascents, descents,
plateaux) limit of :func:`stirlperm.distributions.tnormal_covariance` is
``s = (1, 1, k-1)``, since inserting ``v^k`` into a gap removes that gap
and adds one ascent, one descent and ``k-1`` plateaux.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Iterator, Sequence

from ._rng import as_generator

if TYPE_CHECKING:
    import numpy as np

KIND_SYMMETRIC = "symmetricA"
KIND_FIXED = "fixedAddition"
KIND_TRIANGULAR = "triangularB"
KIND_POLYA = "polyaC"
KIND_ARY_TREE = "aryTreeSlots"
KIND_PLANE_TREE = "planeTreeWeights"

# simulate draws the uniforms of this many steps per call
SIMULATE_BLOCK = 4096


@dataclass(frozen=True)
class UrnSpec:
    """An urn model: colour names, initial counts and the replacement rule.

    The state is the drawn colours, one per replacement row of ``deltas``,
    then tally columns that are never drawn.  ``deltas[c]`` is the net
    change applied to the whole state when colour ``c`` is drawn (any
    discard of the drawn ball is already folded in), and every drawn colour
    adds the same number of balls.  ``readout`` maps the state to the
    ``colors`` columns; ``None`` reads the state as is.
    """

    kind: str
    colors: tuple[str, ...]
    initial: tuple[int, ...]
    deltas: tuple[tuple[int, ...], ...]
    readout: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        drawn, width = len(self.deltas), len(self.initial)
        if drawn < 2:
            raise ValueError("an urn needs at least two colours")
        if drawn > width:
            raise ValueError("every replacement row must draw a state column")
        if len(self.colors) != (width if self.readout is None else len(self.readout)):
            raise ValueError("colours must name the read-out columns")
        if any(len(row) != width for row in self.deltas + (self.readout or ())):
            raise ValueError("replacement and readout rows need one entry per state column")
        if any(c < 0 for c in self.initial) or sum(self.initial[:drawn]) < 1:
            raise ValueError("initial counts must be non-negative and not all zero")
        if len({sum(row[:drawn]) for row in self.deltas}) != 1:
            raise ValueError("every drawn colour must add the same number of balls")


def symmetric_urn(q: int, initial: Sequence[int] | None = None) -> UrnSpec:
    """Draw-and-discard urn that adds one ball of each of ``q`` colours."""
    if q < 2:
        raise ValueError("q must be >= 2")
    urn = fixed_addition_urn((1,) * q, (1,) * q if initial is None else initial)
    return replace(urn, kind=KIND_SYMMETRIC)


def ary_tree_urn(k: int) -> UrnSpec:
    """Free-slot classes of a (k+1)-ary increasing tree; order n is n-1 draws.

    A free (j+1)-slot whose parent is (not) a leaf and is (not) left-right
    is in class ``4j + 2*leaf + lr``; the tally counts left-right nodes.  A
    leaf parent's other slots move to the non-leaf class; the new node
    brings k+1 leaf slots and is left-right iff its parent is and the slot
    is an extreme one.  Read out the exteriors, leftRight and the leaves.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = k + 1
    classes = range(4 * d)
    deltas = []
    for c in classes:
        j, leaf, lr = c >> 2, c >> 1 & 1, c & 1
        new_lr = lr * (j in (0, d - 1))
        row = [0] * (4 * d) + [new_lr]
        row[c & ~2] -= 1
        for s in range(0, 4 * d, 4):
            row[s + 2 + lr] -= leaf
            row[s + lr] += leaf
            row[s + 2 + new_lr] += 1
        deltas.append(tuple(row))
    readout = [tuple(int(c >> 2 == j) for c in classes) + (0,) for j in range(d)]
    readout += [(0,) * (4 * d) + (1,), tuple(int(c in (2, 3)) for c in classes) + (0,)]
    initial = tuple(int(c & 3 == 3) for c in classes) + (1,)
    colors = tuple(f"exterior{j}" for j in range(1, d + 1)) + ("leftRight", "leaves")
    return UrnSpec(KIND_ARY_TREE, colors, initial, tuple(deltas), tuple(readout))


def plane_tree_urn(k: int) -> UrnSpec:
    """Weight classes of a k-plane recursive tree, whose node of degree d
    has weight 1 + (k-1)d; order n is n-1 draws.  The classes are the root
    while a leaf, the root once it is not, the non-root leaves and the other
    nodes, then the root degree is tallied.  A chosen leaf becomes a node of
    weight k, and the new node is a leaf."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = ((-1, k, 1, 0, 1), (0, k - 1, 1, 0, 1), (0, 0, 0, k, 0), (0, 0, 1, k - 1, 0))
    readout = ((1, 0, 1, 0, 0), (0, 0, 0, 0, 1))
    return UrnSpec(KIND_PLANE_TREE, ("leaves", "rootDegree"), (1, 0, 0, 0, 0), rows, readout)


def fixed_addition_urn(s: Sequence[int], initial: Sequence[int]) -> UrnSpec:
    """Draw-and-discard urn that adds the fixed vector ``s`` each step."""
    s = tuple(int(x) for x in s)
    if any(x < 0 for x in s) or sum(s) < 2:
        raise ValueError("need s_i >= 0 and sum(s) >= 2")
    q = len(s)
    deltas = tuple(
        tuple(s[j] - (1 if j == c else 0) for j in range(q)) for c in range(q)
    )
    return UrnSpec(KIND_FIXED, tuple(f"color{j+1}" for j in range(q)), tuple(initial), deltas)


def triangular_block_urn(k: int) -> UrnSpec:
    """Two-colour triangular urn for the block count, colours (black, white).

    Starts at time 1 with k-1 black and 2 white balls (total k+1); after
    ``n-1`` draws the total is kn+1 and ``white - 1`` has the law of the
    number of blocks of a random k-Stirling permutation of order n.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return UrnSpec(
        KIND_TRIANGULAR,
        ("black", "white"),
        (k - 1, 2),
        ((k, 0), (k - 1, 1)),
    )


def polya_urn(k: int, init_white: int, init_black: int) -> UrnSpec:
    """Classical two-colour Polya urn adding ``k`` balls of the drawn colour."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return UrnSpec(KIND_POLYA, ("white", "black"), (init_white, init_black), ((k, 0), (0, k)))


@dataclass(frozen=True)
class UrnTrajectory:
    spec: UrnSpec
    steps: int
    counts: tuple[int, ...]
    seed: int | None
    path: tuple[tuple[int, ...], ...] | None = None

    def to_json_dict(self) -> dict:
        # counts and path keep the raw state; read it out to the colours in
        # Python ints, since a count may pass 2**63 on the last draw
        rows = self.spec.readout

        def read(state: tuple[int, ...]) -> list[int]:
            return list(state) if rows is None else [sum(map(mul, r, state)) for r in rows]

        out = {
            "kind": self.spec.kind,
            "colors": list(self.spec.colors),
            "steps": self.steps,
            "counts": read(self.counts),
            "seed": self.seed,
        }
        if self.path is not None:
            out["path"] = [read(state) for state in self.path]
        return out


def simulate(spec: UrnSpec, steps: int, seed=None, record_path: bool = False) -> UrnTrajectory:
    """Run the urn ``steps`` draws from its initial state.

    Each draw picks a ball of a drawn colour uniformly (one integer uniform
    on their current total) and applies the replacement row of its colour;
    tally columns change only through those rows.  Every row adds the same
    number of balls, so the totals are known in advance and the uniforms
    are drawn in blocks of up to :data:`SIMULATE_BLOCK` steps, equal to one
    scalar draw per step.  A Generator passed as ``seed`` may therefore
    have advanced up to one block past a step that raises.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = as_generator(seed)
    drawn = len(spec.deltas)
    counts = list(spec.initial)
    path = [tuple(counts)] if record_path else None
    start, growth = sum(counts[:drawn]), sum(spec.deltas[0][:drawn])
    for lo in range(0, steps, SIMULATE_BLOCK):
        totals = [start + growth * t for t in range(lo, min(lo + SIMULATE_BLOCK, steps))]
        # a block ends before the first total that one scalar draw refuses
        fits = next((i for i, total in enumerate(totals) if not 0 < total <= 2**63), len(totals))
        for u in rng.integers(0, totals[:fits]).tolist() if fits else ():
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
        if fits < len(totals):
            if totals[fits] <= 0:
                raise RuntimeError("urn ran out of balls")
            # past numpy's int64 bound: raise its ValueError, as a scalar draw did
            rng.integers(0, totals[fits])
    return UrnTrajectory(
        spec,
        steps,
        tuple(counts),
        seed if isinstance(seed, int) else None,
        tuple(path) if path is not None else None,
    )


def transition_distribution(
    spec: UrnSpec, counts: Sequence[int]
) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Exact one-step transition law of the simulator from the given state."""
    counts = tuple(counts)
    total = sum(counts[: len(spec.deltas)])
    if total <= 0:
        raise ValueError("counts must contain at least one ball")
    out = []
    for c, delta in enumerate(spec.deltas):
        if counts[c] == 0:
            continue
        nxt = tuple(x + change for x, change in zip(counts, delta))
        out.append((nxt, Fraction(counts[c], total)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Gaussian limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UrnGaussianLimit:
    """Covariance matrix of ``(N_n - centering*n)/sqrt(n)`` in the limit,
    with the per-step centering rates, all exact."""

    covariance: tuple[tuple[Fraction, ...], ...]
    centering: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "covariance": [[str(x) for x in row] for row in self.covariance],
            "covarianceFloat": [[float(x) for x in row] for row in self.covariance],
            "centering": [str(x) for x in self.centering],
            "centeringFloat": [float(x) for x in self.centering],
        }


def urn_a_covariance(q: int) -> UrnGaussianLimit:
    """Limit of the symmetric draw-and-discard urn with ``q >= 2`` colours:
    the fixed-addition urn with ``s = (1,)*q``, so covariance ``(q-1)(q
    delta_ij - 1) / (q^2 (q+1))`` and centering ``(q-1)/q``.

    >>> urn_a_covariance(3).covariance[0][:2]
    (Fraction(1, 9), Fraction(-1, 18))
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    # past the largest tuple index
    if q >= 2**63:
        raise ValueError("q must be < 2**63")
    return fixed_addition_covariance((1,) * q)


def fixed_addition_covariance(s: Sequence[int]) -> UrnGaussianLimit:
    """Limit of the fixed-addition urn: with ``S = sum(s)``, covariance
    ``(S-1)(s_i S delta_ij - s_i s_j) / ((S+1) S^2)`` and centering
    ``s_i (S-1)/S``."""
    s = tuple(int(x) for x in s)
    total = sum(s)
    if any(x < 0 for x in s) or total < 2:
        raise ValueError("need s_i >= 0 and sum(s) >= 2")
    den = (total + 1) * total * total
    cov = tuple(
        tuple(
            Fraction((total - 1) * (si * total * (i == j) - si * sj), den)
            for j, sj in enumerate(s)
        )
        for i, si in enumerate(s)
    )
    centering = tuple(Fraction(x * (total - 1), total) for x in s)
    return UrnGaussianLimit(cov, centering)


# ---------------------------------------------------------------------------
# nested block urns
# ---------------------------------------------------------------------------


def nested_block_urns(k: int, n: int, seed=None) -> tuple[int, ...]:
    """Label-ordered block sizes of a random k-Stirling permutation of order
    n, read off the nested Polya urn levels of one replicate."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(int(size[0]) for _, size in _block_levels(k, n, 1, as_generator(seed)))


def _block_levels(k: int, n: int, replicates: int, rng) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Label-ordered block sizes of ``replicates`` random k-Stirling
    permutations of order n, one nested Polya urn level at a time.

    With ``N_1 = n`` labels at level 1, level ``m`` draws ``p_m ~
    Beta((k-1)/k, (m+1)/k)`` (``p_m = 0`` for k = 1) and ``J_m ~
    Binomial(N_m - 1, p_m)`` for the replicates that still hold labels, and
    yields their row indices with the size ``k (J_m + 1)`` of block ``m``;
    then ``N_{m+1} = N_m - 1 - J_m``.  Every sampler of a block law reads
    these levels, so one stream gives the same blocks to all of them.
    """
    import numpy as np

    # a block holds up to kn symbols, counted in int64
    if k * n >= 2**63:
        raise ValueError("k * n must be < 2**63")
    rows = np.arange(replicates)
    remaining = np.full(replicates, n, dtype=np.int64)
    level = 1
    while rows.size:
        p = 0.0 if k == 1 else rng.beta((k - 1) / k, (level + 1) / k, size=rows.size)
        j = rng.binomial(remaining - 1, p)
        yield rows, k * (j + 1)
        remaining -= 1 + j
        keep = remaining > 0
        rows, remaining = rows[keep], remaining[keep]
        level += 1


def sample_block_size_stats(k: int, n: int, replicates: int, rng=None) -> np.ndarray:
    """Vectorised sampler of (first block size, largest block size, block
    count) over many replicates, exact in law: it folds the beta-binomial
    marginals of the nested Polya urns, level by level."""
    import numpy as np

    if k < 2:
        raise ValueError("the beta-binomial chain needs k >= 2")
    if n < 1 or replicates < 1:
        raise ValueError("need n >= 1 and replicates >= 1")
    res = np.zeros((replicates, 3), dtype=np.float64)
    levels = _block_levels(k, n, replicates, as_generator(rng))
    _, first = next(levels)
    res[:, 0] = res[:, 1] = first
    res[:, 2] = 1
    for rows, size in levels:
        res[rows, 1] = np.maximum(res[rows, 1], size)
        res[rows, 2] += 1
    return res
