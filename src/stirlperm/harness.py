"""Monte Carlo harness: seeded replicate generators, threaded experiment
runs, and comparison of empirical summaries against exact or limit values.

Determinism contract: an experiment is a preallocated replicate-by-statistic
matrix filled in fixed chunks of :data:`REPLICATE_CHUNK` rows, each drawn
from its own stream.  Every generator's kernel fills a run of up to
:data:`RUN_CHUNKS` consecutive chunks, and a run's rows are its chunks' rows
in order, so the matrix is byte-identical for any thread count.

``urn_a``, ``ary_tree``, ``plane_tree`` and ``stirling_perm`` at k = 1 (urn
A on two colours) step :class:`stirlperm.urns.UrnSpec` tables, the type the
``urn`` command simulates; at k > 1 ``stirling_perm`` is an urn over gap
classes.  These kernels grow all rows of a chunk together: each step picks a
class by one integer uniform below the total and changes the class counts by
a fixed rule, which is exact in law.  Each step draws a full chunk width of
integers and row i uses the i-th, so a row is the same whatever the number of
rows in its chunk.  The three urn-table generators step a whole run as one
array; every other kernel fills its run chunk by chunk, and ``stirling_perm``
at k = 1 steps urn A one chunk at a time.  An urn table is built once per
process for each urn and k.

At k > 1 the ``stirling_perm`` kernel keeps each row's cumulative class gap
counts: column j counts the gaps of the classes below j.  The classes not
yet opened are already in place after the last open one, each holding its
k-1 pending plateaux, so they lie above the total and a boundary draw opens
the next one with no write of its own.  A step's class is one below the
first column above the draw (a comparison and an ``argmax``), and the step
adds the class's growth to that column and every later one; there is no
cumulative sum per step.  The table is widened by a fixed slack only when
the block count could reach its edge.  One 1024-row chunk at k = 2 takes
0.50 s at n = 2000 and 4.1 s at n = 8000 (1.5 and 11.4 s with a cumulative
sum per step; shared 2-core host).  A step still reads every open class,
so the cost grows like n times the block count, about n^1.5 at k = 2.

The block-law generators ``urn_b``, ``urn_c_block`` and ``block_sizes`` all
read the nested Polya urn levels of :mod:`stirlperm.urns` rather than
stepping their urns draw by draw, so with one seed their rows agree: urn B's
white minus one is the block count, urn C's white plus one the first block.

``scipy.stats`` is imported inside the three goodness-of-fit helpers at the
end of this module, not at its top: no CLI path calls them, and loading it
costs several times the rest of a CLI cold start in both time and memory.
This module itself, and numpy with it, is imported on first use: by the
``experiment`` command, or by reading it or one of its public names from
the package.  The exact commands load neither; ``sample`` and ``urn`` load
numpy when they first draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from . import distributions as _dist
from ._rng import as_generator  # noqa: F401  (bench/run.py records its bit generator)
from ._rng import chunk_stream
from .urns import UrnSpec, _block_levels, ary_tree_urn, plane_tree_urn, sample_block_size_stats
from .urns import symmetric_urn, urn_a_covariance

REPLICATE_CHUNK = 1024
# the balanced-urn engine draws this many steps of a chunk (4 MiB) per call
STEP_CHUNK = 512
# and steps at most this many chunks as one run (a 16 MiB draw block)
RUN_CHUNKS = 4
# the stirling_perm kernel widens its class table by this many columns
_STIRLING_SLACK = 16
STICK_DEPTH = 3
MAX_REPLICATES = 10_000_000
MAX_ORDER = 100_000_000


# ---------------------------------------------------------------------------
# generator kernels
# ---------------------------------------------------------------------------


def _engine_table(urn: UrnSpec) -> tuple[np.ndarray, np.ndarray, bool]:
    """The matrix that cumulates the drawn colours of a state, the
    replacement columns so cumulated, and whether each column c is
    ``base + [c > j]`` in row j, so that a step can compare and add."""
    drawn, width = len(urn.deltas), len(urn.initial)
    cumulate = np.eye(width, dtype=np.int64)
    cumulate[:drawn, :drawn] = np.tri(drawn, dtype=np.int64)
    deltas = cumulate @ np.array(urn.deltas, dtype=np.int64).T
    later = np.arange(drawn) > np.arange(width)[:, None]
    return cumulate, deltas, np.array_equal(deltas, deltas[:, :1] + later)


@lru_cache(maxsize=32)
def _urn_table(urn_of: Callable[[int], UrnSpec], k: int) -> tuple[UrnSpec, tuple]:
    """The urn ``urn_of(k)`` and its engine table, built once per process
    for each urn function and k; the table's arrays are read-only."""
    urn = urn_of(k)
    table = _engine_table(urn)
    for array in table[:2]:
        array.flags.writeable = False
    return urn, table


def _urn_rows(urn_of: Callable[[int], UrnSpec], lag: int, n: int, k: int, counts, rngs):
    """The rows of a run of consecutive chunks of the urn ``urn_of(k)`` at
    order n, which is n - lag draws: chunk c holds ``counts[c]`` rows and
    draws from ``rngs[c]``, a full chunk width per step as if it ran alone,
    and the run steps all of its rows as one array.

    The column-major state keeps the drawn colours as cumulative counts, so
    the drawn colour is the number of them at or below the draw.  When
    every cumulative replacement column c is ``base + [c > j]`` in row j
    (every fixed-addition urn), those comparisons are the step itself:
    add them, then add ``base``.  Any other table adds its column c.
    """
    urn, (cumulate, deltas, compare_and_add) = _urn_table(urn_of, k)
    drawn = len(urn.deltas)
    base = deltas[:, :1]
    edges = np.cumsum((0, *counts))
    rows = edges[-1]
    state = np.repeat((cumulate @ urn.initial)[:, None], rows, axis=1)
    cum = state[:drawn]
    hit = np.empty((drawn - 1, rows), dtype=bool)
    start, growth = sum(urn.initial[:drawn]), sum(urn.deltas[0][:drawn])
    steps = n - lag
    for lo in range(0, steps, STEP_CHUNK):
        totals = start + growth * np.arange(lo, min(lo + STEP_CHUNK, steps))
        draws = np.empty((len(totals), rows), dtype=np.int64)
        for rng, a, b in zip(rngs, edges, edges[1:]):
            block = rng.integers(0, totals[:, None], size=(len(totals), REPLICATE_CHUNK))
            draws[:, a:b] = block[:, : b - a]
            # free each chunk's block before the next is drawn
            del block
        if compare_and_add:
            for u in draws:
                np.greater_equal(u, cum[:-1], out=hit)
                cum[:-1] += hit
                state += base
        else:
            for u in draws:
                state += np.take(deltas, (u >= cum).sum(axis=0), axis=1)
        # free this block before the next is drawn: u is a view that keeps it
        del draws, u
    state[:drawn] = np.diff(cum, axis=0, prepend=0)
    if urn.readout is not None:
        state = np.array(urn.readout, dtype=np.int64) @ state
    return state.T.astype(np.float64)


def _urn_b_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    """Triangular two-color urn after n-1 draws.  White minus one has the law
    of the block count of a random k-Stirling permutation of order n, so it
    is read off as the number of nested urn levels; black fills the total
    kn+1.  At k = 1 every label is a block of its own, so the count is n:
    the level chain would take one numpy step per label and draw nothing
    (``binomial(m, 0)`` leaves the generator as it is)."""
    if k == 1:
        blocks = np.full(count, n, dtype=np.int64)
    else:
        blocks = np.zeros(count, dtype=np.int64)
        for rows, _ in _block_levels(k, n, count, rng):
            blocks[rows] += 1
    white = blocks + 1
    return np.stack([k * n + 1 - white, white], axis=1).astype(np.float64)


def _urn_c_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    """Two-color Polya urn (k balls of the drawn color) after n-1 draws.

    White counts the gaps strictly inside the first block, so white plus one
    is the first block of a random k-Stirling permutation of order n, read
    off the first nested urn level; black fills the total kn+1, and
    firstFraction is the first block over the word length kn.
    """
    _, first = next(_block_levels(k, n, count, rng))
    white = first - 1
    return np.stack([white, k * n + 1 - white, first / (k * n)], axis=1)


def _block_sizes_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    return sample_block_size_stats(k, n, count, rng)


def _stick_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    return _dist._stick_breaking_rows(k, STICK_DEPTH, count, rng)


def _up_down_urn(k: int) -> UrnSpec:
    """Urn A on two colours, the ascents and descents of ``stirling_perm`` at k = 1."""
    return symmetric_urn(2)


def _stirling_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    """Gap-class urn of a random k-Stirling permutation of order n.

    Inserting the run ``v^k`` into a gap of type t (ascent, descent or
    plateau) replaces it by one ascent, k-1 plateaux and one descent, so only
    the class of the gap matters.  Class 0 holds the boundary gaps between
    blocks and at the borders (ascents and descents only); class b >= 1 holds
    the gaps inside block b, in the order the blocks were opened.  A boundary
    gap opens a new block of k-1 inner plateaux; an inner gap grows its block
    by k.  One uniform gap per row picks the class by the class gap counts and
    the type by its offset inside the class: ascents first, then descents,
    then plateaux.

    Column j of ``cum`` counts the gaps of the classes below j, so row r's
    class is one below the first column above its draw, and the step adds
    the class's growth to that column and every later one.  The classes not
    yet opened hold their k-1 plateaux already: they lie above the total, so
    no draw reaches them, and a boundary draw opens the next one as it is.
    The table is widened, by a fixed slack, only once the block count
    could have reached it.
    """
    if k == 1:
        # every gap is an ascent or a descent and every label opens a block
        # of one, so (ascents, descents) is urn A on two colours
        updown = _urn_rows(_up_down_urn, 1, n, k, (count,), (rng,))
        return np.column_stack([updown, np.zeros(count), np.full(count, n), np.ones((count, 2))])
    # no count passes k(2n + slack + 3), and int32 halves the memory that a
    # step streams through
    dtype = np.int32 if k * (2 * n + _STIRLING_SLACK + 3) < 2**31 else np.int64
    rows = np.arange(count)

    def widened(table, more):
        """``table`` with ``more`` classes not yet opened after its last,
        and the views a step reads: the cumulative counts, the three flat
        tables, the flat index of every row's class 0 minus one, and what a
        draw in class j - 1 adds to column j and every later one."""
        new = np.zeros((3, count, more), dtype=dtype)
        new[0] = table[0, :, -1:] + (k - 1) * np.arange(1, more + 1, dtype=dtype)
        table = np.concatenate([table, new], axis=2)
        width = table.shape[2]
        growth = np.full(width, k, dtype=dtype)
        growth[1] = 1
        return table, table[0], table.reshape(3, -1), rows * width - 1, growth

    # table[0, r, j] counts the gaps of row r's classes below j, and
    # table[1 (2), r, j] the ascents (ascents plus descents) of its class j.
    # The border gaps are class 0's ascent and descent, class 1 holds label
    # 1's k-1 plateaux, and every later column is a class not yet opened
    start = np.array([[[0, 2]], [[1, 0]], [[2, 0]]], dtype=dtype)
    width = min(n + 2, _STIRLING_SLACK)
    table, cum, (flat_cum, flat_ascents, flat_ends), first, growth = widened(
        np.repeat(start, count, axis=1), width - 2
    )
    # class 0 has one gap per block and one more, so no row has more than
    # cum[:, 1].max() - 1 blocks.  The table holds every row's total while
    # width >= blocks + 2; room counts the steps that may open a block
    # before that maximum is read again
    room = width - 3
    for t in range(1, n):
        if room == 0:
            room = width - 1 - int(cum[:, 1].max())
            if room == 0:
                table, cum, (flat_cum, flat_ascents, flat_ends), first, growth = widened(
                    table, _STIRLING_SLACK
                )
                width += _STIRLING_SLACK
                room = _STIRLING_SLACK
        u = rng.integers(0, k * t + 1, size=REPLICATE_CHUNK)[:count].astype(dtype, copy=False)
        above = cum > u[:, None]
        col = above.argmax(axis=1)
        at = first + col
        offset = u - flat_cum[at]
        a, e = flat_ascents[at], flat_ends[at]
        flat_ascents[at] = a + (offset >= a)
        flat_ends[at] = e + 1 + (offset >= e)
        cum += above * growth[col][:, None]
        room -= 1
    cum, ascents, ends = table
    asc = ascents.sum(axis=1)
    desc = ends.sum(axis=1) - asc
    sizes = np.diff(cum[:, 1:], axis=1)
    return np.stack(
        [asc, desc, k * n + 1 - asc - desc, cum[:, 1] - 1, sizes[:, 0] + 1, sizes.max(axis=1) + 1],
        axis=1,
    ).astype(np.float64)


def _chunk_by_chunk(chunk_kernel: Callable, n: int, k: int, counts, rngs) -> np.ndarray:
    """The rows of a run filled one chunk at a time by
    ``chunk_kernel(n, k, count, rng)``."""
    return np.concatenate([chunk_kernel(n, k, count, rng) for count, rng in zip(counts, rngs)])


@dataclass(frozen=True)
class GeneratorDef:
    min_k: int
    columns: Callable[[int], tuple[str, ...]]  # k -> column names
    # (n, k, counts, rngs) -> the float64 rows of a run of consecutive chunks,
    # chunk c holding counts[c] rows drawn from rngs[c]
    kernel: Callable
    # whether the kernel keeps its counts (gaps, balls, labels) in int64:
    # none passes k(2n + _STIRLING_SLACK + 3), the bound of _stirling_chunk's
    # table, and the other kernels' stay under kn + 2
    int64_counts: bool = True


def _urn_generator(min_k: int, urn_of: Callable[[int], UrnSpec], lag: int) -> GeneratorDef:
    """A generator that steps the urn ``urn_of(k)`` and names its columns after its colours."""
    return GeneratorDef(
        min_k, lambda k: _urn_table(urn_of, k)[0].colors, partial(_urn_rows, urn_of, lag)
    )


GENERATORS: dict[str, GeneratorDef] = {
    "urn_a": _urn_generator(1, lambda k: symmetric_urn(k + 1), 0),
    "urn_b": GeneratorDef(1, lambda k: ("black", "white"), partial(_chunk_by_chunk, _urn_b_chunk)),
    "urn_c_block": GeneratorDef(
        1, lambda k: ("white", "black", "firstFraction"), partial(_chunk_by_chunk, _urn_c_chunk)
    ),
    "block_sizes": GeneratorDef(
        2, lambda k: ("first", "largest", "count"), partial(_chunk_by_chunk, _block_sizes_chunk)
    ),
    "stick_breaking": GeneratorDef(
        2,
        lambda k: tuple(f"component{m}" for m in range(1, STICK_DEPTH + 1)) + ("remainder",),
        partial(_chunk_by_chunk, _stick_chunk),
        int64_counts=False,
    ),
    "stirling_perm": GeneratorDef(
        1,
        lambda k: ("ascents", "descents", "plateaux", "blocks", "firstBlock", "largestBlock"),
        partial(_chunk_by_chunk, _stirling_chunk),
    ),
    "ary_tree": _urn_generator(1, ary_tree_urn, 1),
    "plane_tree": _urn_generator(2, plane_tree_urn, 1),
}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, hashable description of one Monte Carlo experiment.

    >>> ExperimentSpec(generator="urn_b", n=3, k=2, replicates=4).all_columns
    ('black', 'white')
    """

    generator: str
    n: int
    k: int
    replicates: int
    statistics: Optional[tuple[str, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        gen = GENERATORS[self.generator]
        if self.n < 1 or self.n > MAX_ORDER:
            raise ValueError(f"n must be in [1, {MAX_ORDER}]")
        if self.k < gen.min_k:
            raise ValueError(f"generator {self.generator!r} needs k >= {gen.min_k}")
        if gen.int64_counts and self.k * (2 * self.n + _STIRLING_SLACK + 3) >= 2**63:
            raise ValueError(
                f"generator {self.generator!r} needs k * (2n + {_STIRLING_SLACK + 3}) < 2**63"
            )
        # the covariance of the result needs two rows (ddof=1)
        if not 2 <= self.replicates <= MAX_REPLICATES:
            raise ValueError(f"replicates must be in [2, {MAX_REPLICATES}]")
        # numpy's own message for a negative seed names neither the field nor the spec
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.statistics is not None:
            object.__setattr__(self, "statistics", tuple(self.statistics))
            if not self.statistics:
                raise ValueError("statistics must name at least one column")
            available = set(self.all_columns)
            for i, name in enumerate(self.statistics):
                if name not in available:
                    raise ValueError(f"generator {self.generator!r} has no statistic {name!r}")
                if name in self.statistics[:i]:
                    raise ValueError(f"statistic {name!r} is selected twice")

    @property
    def all_columns(self) -> tuple[str, ...]:
        return GENERATORS[self.generator].columns(self.k)

    @property
    def selected_columns(self) -> tuple[str, ...]:
        return self.statistics if self.statistics is not None else self.all_columns

    def to_json_dict(self) -> dict:
        return {
            "generator": self.generator,
            "n": self.n,
            "k": self.k,
            "replicates": self.replicates,
            "statistics": list(self.selected_columns),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    columns: tuple[str, ...]
    matrix: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.columns.index(name)]

    def means(self) -> np.ndarray:
        return self.matrix.mean(axis=0)

    def covariance(self) -> np.ndarray:
        return np.cov(self.matrix, rowvar=False, ddof=1).reshape(
            (len(self.columns), len(self.columns))
        )

    def to_json_dict(self) -> dict:
        means = self.means()
        cov = self.covariance()
        return {
            "spec": self.spec.to_json_dict(),
            "columns": list(self.columns),
            "means": [float(v) for v in means],
            "covariance": [[float(v) for v in row] for row in cov],
        }


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """Fill the replicate matrix for ``spec``.

    The result is independent of ``threads``: chunk boundaries and their
    random streams are fixed by the spec alone.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    gen = GENERATORS[spec.generator]
    full = spec.all_columns
    out = np.empty((spec.replicates, len(full)), dtype=np.float64)
    edges = [*range(0, spec.replicates, REPLICATE_CHUNK), spec.replicates]
    chunks = len(edges) - 1
    # the chunks go in runs, as many as threads and of at most RUN_CHUNKS each
    parts = max(min(threads, chunks), -(-chunks // RUN_CHUNKS))
    runs = [range(run[0], run[-1] + 1) for run in np.array_split(np.arange(chunks), parts)]

    def fill(run: range) -> None:
        counts = [edges[c + 1] - edges[c] for c in run]
        rngs = [chunk_stream(spec.seed, c) for c in run]
        out[edges[run.start] : edges[run.stop]] = gen.kernel(spec.n, spec.k, counts, rngs)

    # at the benchmark's sizes only the urn engine overlaps on two threads:
    # its block draws, integers with one bound per row, hold the GIL, but
    # its steps over a run's rows overlap (urn_a, n = 1214, k = 2, 4096
    # rows, best of 15 in each of 5 processes: one run of 4 chunks 61-72 ms,
    # median 62; two runs of 2 on 2 threads 46-69 ms, median 55).  The block
    # laws do not overlap: most of their time is in the beta and binomial
    # draws of their levels (72.9 of 101.7 ms for 4 chunks at n = 1000,
    # k = 2), and numpy 2.4 holds the GIL in both (two threads of 2000 draws
    # of 1024 values each: beta 431 ms serial against 446 ms threaded,
    # binomial 310 against 313 ms).  In process at k = 2 and 4096 rows, 20
    # alternating runs at 1 and 2 threads in each of 3 processes on a shared
    # 2-core host gave medians of 61-79 against 58-76 ms for urn_b at
    # n = 1000 (2 threads faster in 12-15 runs of 20), 168-171 against
    # 163-176 ms for block_sizes at n = 4000 (faster in 6-9) and 125-136
    # against 105-113 ms for urn_a at n = 1000 (faster in 13-17).  A block
    # law loses nothing by filling its chunks in runs (urn_b, n = 1000,
    # k = 2, 4096 rows, 2 threads, best of 15 in each of 5 processes: 4
    # one-chunk tasks 29.9-42.1 ms, median 30.3; 2 runs of 2 chunks
    # 28.7-31.0 ms, median 28.9).  Over 5 alternating 15 s benchmark pairs
    # on a shared 2-core host a serial fill cut mc_chunk ops/s from 28.5 to
    # 26.6 (op_p90_s +11%) and gained 4.7% on mc_replicate
    if threads == 1 or len(runs) == 1:
        for run in runs:
            fill(run)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, runs))

    selected = spec.selected_columns
    if selected == full:
        matrix = out
    else:
        # one C-ordered copy; out[:, idx] is Fortran-ordered, which changes
        # the last bits of the column means
        matrix = out.take([full.index(name) for name in selected], axis=1)
    return ExperimentResult(spec, selected, matrix)


# ---------------------------------------------------------------------------
# empirical vs exact comparison
# ---------------------------------------------------------------------------


def jackknife_covariance(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance (ddof=1) and delete-one jackknife standard errors.

    The deleted-replicate covariance is affine in the deviation products, so
    the jackknife runs in one pass instead of refitting R times.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError("need a 2-d matrix with at least 3 rows")
    rows, dim = x.shape
    dev = x - x.mean(axis=0)
    cov = dev.T @ dev / (rows - 1)
    se = np.empty((dim, dim))
    factor = math.sqrt(rows / (rows - 1)) / (rows - 2)
    for i in range(dim):
        for j in range(i, dim):
            products = dev[:, i] * dev[:, j]
            spread = float(np.linalg.norm(products - products.mean()))
            se[i, j] = se[j, i] = factor * spread
    return cov, se


@dataclass(frozen=True)
class TheoryTarget:
    """Exact or limit values for a normalized subset of statistics.

    Columns are first centered per column and divided by the common scale;
    ``means``/``covariance`` then refer to the normalized matrix.
    """

    name: str
    columns: tuple[str, ...]
    center: tuple[float, ...]
    scale: float
    means: Optional[tuple[float, ...]] = None
    covariance: Optional[tuple[tuple[float, ...], ...]] = None


@dataclass(frozen=True)
class ComparisonEntry:
    name: str
    observed: float
    expected: float
    se: float
    z: float
    ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonReport:
    theory: str
    se_multiplier: float
    replicates: int
    entries: tuple[ComparisonEntry, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def max_abs_z(self) -> float:
        return max((abs(entry.z) for entry in self.entries), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "theory": self.theory,
            "seMultiplier": self.se_multiplier,
            "replicates": self.replicates,
            "ok": self.ok,
            "entries": [entry.to_json_dict() for entry in self.entries],
        }


def _z_entry(name: str, observed: float, expected: float, se: float, limit: float):
    if se > 0:
        z = (observed - expected) / se
    else:
        z = 0.0 if observed == expected else math.inf
    return ComparisonEntry(name, observed, expected, se, z, abs(z) <= limit)


def compare(
    result: ExperimentResult, theory: TheoryTarget, se_multiplier: float = 4.0
) -> ComparisonReport:
    """Z-score every mean and covariance entry the theory specifies.

    Mean entries use the sample standard error, floored at the rounding of
    a float mean; covariance entries the delete-one jackknife one.
    """
    if not 0 < se_multiplier < math.inf:
        raise ValueError(
            f"theory {theory.name!r} needs a positive finite se multiplier, got {se_multiplier}"
        )
    missing = [name for name in theory.columns if name not in result.columns]
    if missing:
        raise ValueError(
            f"theory {theory.name!r} needs columns {missing} that the result "
            f"lacks (it has {list(result.columns)})"
        )
    rows = result.matrix.shape[0]
    if theory.covariance is not None and rows < 3:
        msg = f"theory {theory.name!r} compares covariances, which needs 3 replicates, got {rows}"
        raise ValueError(msg)
    idx = [result.columns.index(name) for name in theory.columns]
    x = (result.matrix[:, idx] - np.asarray(theory.center)) / theory.scale
    entries: list[ComparisonEntry] = []
    if theory.means is not None:
        sample_se = x.std(axis=0, ddof=1) / math.sqrt(rows)
        # a float mean of `rows` values can be off by about log2(rows)
        # roundings, which a constant column's sample se does not cover
        rounding = rows.bit_length() * math.ulp(1.0)
        for pos, name in enumerate(theory.columns):
            observed, expected = float(x[:, pos].mean()), float(theory.means[pos])
            se = max(float(sample_se[pos]), rounding * max(abs(observed), abs(expected)))
            entries.append(_z_entry(f"mean[{name}]", observed, expected, se, se_multiplier))
    if theory.covariance is not None:
        cov, se = jackknife_covariance(x)
        for i, ci in enumerate(theory.columns):
            for j in range(i, len(theory.columns)):
                entries.append(
                    _z_entry(
                        f"cov[{ci},{theory.columns[j]}]",
                        float(cov[i, j]),
                        float(theory.covariance[i][j]),
                        float(se[i, j]),
                        se_multiplier,
                    )
                )
    return ComparisonReport(theory.name, se_multiplier, rows, tuple(entries))


# ---------------------------------------------------------------------------
# theory builders
# ---------------------------------------------------------------------------


def _theory_urn_a(spec: ExperimentSpec) -> TheoryTarget:
    q = spec.k + 1
    exact_mean = 1.0 + spec.n * (q - 1) / q
    scale = math.sqrt(spec.n)
    cov = urn_a_covariance(q).covariance
    return TheoryTarget(
        name="urn_a_gaussian",
        columns=symmetric_urn(q).colors,
        center=(exact_mean,) * q,
        scale=scale,
        means=(0.0,) * q,
        covariance=tuple(tuple(float(v) for v in row) for row in cov),
    )


def _theory_urn_b(spec: ExperimentSpec) -> TheoryTarget:
    """Mean and variance of the block count S_n from its first two binomial
    moments in floating point, O(1) at any n.  At k = 1 every label opens a
    block: S_n = n with variance exactly 0, which the float moments, of
    order n^2, would miss by their rounding."""
    n, k = spec.n, spec.k
    if k == 1:
        mean_s, var_s = float(n), 0.0
    else:
        mean_s = _dist.block_binomial_moment_float(n, k, 1) - 1.0
        m2 = _dist.block_binomial_moment_float(n, k, 2)
        # E binom(S+2, 2) = (E S^2 + 3 E S + 2) / 2
        var_s = 2.0 * m2 - 3.0 * mean_s - 2.0 - mean_s * mean_s
    total = k * n + 1
    return TheoryTarget(
        name="urn_b_blocks",
        columns=("black", "white"),
        center=(0.0, 0.0),
        scale=1.0,
        means=(total - (mean_s + 1.0), mean_s + 1.0),
        covariance=((var_s, -var_s), (-var_s, var_s)),
    )


def _theory_first_block(spec: ExperimentSpec) -> TheoryTarget:
    """The exact mean ((k-1)n + 2)/((k+1)n) of firstFraction: the first
    block is k(J + 1) for the first nested urn level J ~ BetaBinomial(n-1,
    (k-1)/k, 2/k), so firstFraction is (J + 1)/n."""
    n, k = spec.n, spec.k
    return TheoryTarget(
        name="first_block_mean",
        columns=("firstFraction",),
        center=(0.0,),
        scale=1.0,
        means=(((k - 1) * n + 2) / ((k + 1) * n),),
    )


def _theory_stick_breaking(spec: ExperimentSpec) -> TheoryTarget:
    """The mean (k-1)/(k+1) of the first stick-breaking component, the
    limit of the first block's share of the word."""
    k = spec.k
    return TheoryTarget(
        name="stick_breaking_mean",
        columns=("component1",),
        center=(0.0,),
        scale=1.0,
        means=((k - 1) / (k + 1),),
    )


THEORIES: dict[str, Callable[[ExperimentSpec], TheoryTarget]] = {
    "urn_a_gaussian": _theory_urn_a,
    "urn_b_blocks": _theory_urn_b,
    "first_block_mean": _theory_first_block,
    "stick_breaking_mean": _theory_stick_breaking,
}


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def chi_square_gof(counts, probabilities) -> tuple[float, float]:
    """Chi-square test of observed counts against exact cell probabilities."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray([float(p) for p in probabilities])
    if counts.shape != probs.shape:
        raise ValueError("counts and probabilities must align")
    if not math.isclose(float(probs.sum()), 1.0, rel_tol=0, abs_tol=1e-12):
        raise ValueError("probabilities must sum to one")
    expected = probs * counts.sum()
    keep = probs > 0
    if np.any(~keep) and np.any(counts[~keep] > 0):
        return math.inf, 0.0
    from scipy import stats

    stat, pvalue = stats.chisquare(counts[keep], expected[keep])
    return float(stat), float(pvalue)


def chi_square_two_sample(counts_a, counts_b) -> tuple[float, float]:
    """Chi-square homogeneity test of two histograms over the same cells."""
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("histograms must align")
    keep = (a + b) > 0
    table = np.vstack([a[keep], b[keep]])
    from scipy import stats

    stat, pvalue, _, _ = stats.chi2_contingency(table)
    return float(stat), float(pvalue)


def ks_two_sample(sample_a, sample_b) -> tuple[float, float]:
    """Two-sample Kolmogorov--Smirnov test."""
    from scipy import stats

    res = stats.ks_2samp(np.asarray(sample_a), np.asarray(sample_b))
    return float(res.statistic), float(res.pvalue)
