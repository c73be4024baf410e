"""Monte Carlo harness: seeded replicate generators, threaded experiment
runs, and comparison of empirical summaries against exact or limit values.

Determinism contract: an experiment is a preallocated replicate-by-statistic
matrix filled in fixed chunks of :data:`REPLICATE_CHUNK` rows.  Every
generator is a chunk kernel that draws from one stream per chunk (the
per-row generators ``stirling_perm``, ``ary_tree`` and ``plane_tree`` grow
their rows one after another from it), so the matrix is byte-identical for
any thread count.

The block-law generators ``urn_b``, ``urn_c_block`` and ``block_sizes`` all
read the nested Polya urn levels of :mod:`stirlperm.urns` rather than
stepping their urns draw by draw, so with one seed their rows agree: urn B's
white minus one is the block count, urn C's white plus one the first block.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy import stats as _scipy_stats

from . import distributions as _dist
from . import perms as _perms
from . import trees as _trees
from ._rng import as_generator  # noqa: F401  (bench/run.py records its bit generator)
from ._rng import chunk_stream
from .urns import _block_levels, sample_block_size_stats, urn_a_covariance

REPLICATE_CHUNK = 1024
# uniform draws for the urn_a step loop are batched this many steps at a time
STEP_CHUNK = 8192
STICK_DEPTH = 3
MAX_REPLICATES = 10_000_000
MAX_ORDER = 100_000_000


# ---------------------------------------------------------------------------
# generator kernels
# ---------------------------------------------------------------------------


def _urn_a_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    """Symmetric urn on k+1 colors, n draws from the all-ones state.

    each draw adds one ball of every color other than the drawn one, so the
    counts match the exterior slot counts of a random (k+1)-ary increasing
    tree of order n+1.
    """
    q = k + 1
    counts = np.ones((count, q), dtype=np.int64)
    rows = np.arange(count)
    total = q
    done = 0
    while done < n:
        block = min(STEP_CHUNK, n - done)
        u = rng.random((block, count))
        for t in range(block):
            cum = np.cumsum(counts, axis=1)
            drawn = (u[t][:, None] * total >= cum).sum(axis=1)
            counts += 1
            counts[rows, drawn] -= 1
            total += q - 1
        done += block
    return counts.astype(np.float64)


def _urn_b_chunk(n: int, k: int, count: int, rng) -> np.ndarray:
    """Triangular two-color urn after n-1 draws.  White minus one has the law
    of the block count of a random k-Stirling permutation of order n, so it
    is read off as the number of nested urn levels; black fills the total
    kn+1."""
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


def _stirling_row(n: int, k: int, rng) -> tuple[float, ...]:
    grower = _perms.k_stirling_grower(k, rng)
    grower.grow_to(n)
    perm = grower.permutation()
    profile = _perms.stat_profile(perm)
    blocks = _perms.block_decomposition(perm)
    return (
        float(profile.ascents),
        float(profile.descents),
        float(profile.plateaux),
        float(blocks.count),
        float(blocks.sizes_by_label[0]),
        float(blocks.sizes_descending[0]),
    )


def _ary_row(n: int, k: int, rng) -> tuple[float, ...]:
    tree = _trees.grow_ary_tree(k + 1, n, rng)
    st = _trees.ary_stats(tree)
    return tuple(float(v) for v in st.exterior_by_slot) + (
        float(st.left_right),
        float(st.leaves),
    )


def _plane_row(n: int, k: int, rng) -> tuple[float, ...]:
    degrees = _trees.grow_plane_tree(_trees.k_plane_family(k), n, rng).degrees()
    return (float(degrees.count(0)), float(degrees[0]))


def _rows(row_kernel: Callable) -> Callable:
    """Chunk kernel that grows its rows one after another from the chunk's stream."""
    return lambda n, k, count, rng: np.array([row_kernel(n, k, rng) for _ in range(count)])


@dataclass(frozen=True)
class GeneratorDef:
    min_k: int
    columns: Callable[[int, int], tuple[str, ...]]
    kernel: Callable  # (n, k, count, rng) -> count-by-columns array


GENERATORS: dict[str, GeneratorDef] = {
    "urn_a": GeneratorDef(
        1, lambda n, k: tuple(f"color{j}" for j in range(1, k + 2)), _urn_a_chunk
    ),
    "urn_b": GeneratorDef(1, lambda n, k: ("black", "white"), _urn_b_chunk),
    "urn_c_block": GeneratorDef(
        1, lambda n, k: ("white", "black", "firstFraction"), _urn_c_chunk
    ),
    "block_sizes": GeneratorDef(
        2, lambda n, k: ("first", "largest", "count"), _block_sizes_chunk
    ),
    "stick_breaking": GeneratorDef(
        2,
        lambda n, k: tuple(f"component{m}" for m in range(1, STICK_DEPTH + 1))
        + ("remainder",),
        _stick_chunk,
    ),
    "stirling_perm": GeneratorDef(
        1,
        lambda n, k: (
            "ascents",
            "descents",
            "plateaux",
            "blocks",
            "firstBlock",
            "largestBlock",
        ),
        _rows(_stirling_row),
    ),
    "ary_tree": GeneratorDef(
        1,
        lambda n, k: tuple(f"exterior{j}" for j in range(1, k + 2))
        + ("leftRight", "leaves"),
        _rows(_ary_row),
    ),
    "plane_tree": GeneratorDef(2, lambda n, k: ("leaves", "rootDegree"), _rows(_plane_row)),
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
        # the covariance of the result needs two rows (ddof=1)
        if not 2 <= self.replicates <= MAX_REPLICATES:
            raise ValueError(f"replicates must be in [2, {MAX_REPLICATES}]")
        if self.statistics is not None:
            object.__setattr__(self, "statistics", tuple(self.statistics))
            available = set(self.all_columns)
            for name in self.statistics:
                if name not in available:
                    raise ValueError(
                        f"generator {self.generator!r} has no statistic {name!r}"
                    )

    @property
    def all_columns(self) -> tuple[str, ...]:
        return GENERATORS[self.generator].columns(self.n, self.k)

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
    bounds = [
        (lo, min(lo + REPLICATE_CHUNK, spec.replicates))
        for lo in range(0, spec.replicates, REPLICATE_CHUNK)
    ]

    def fill(index: int) -> None:
        lo, hi = bounds[index]
        out[lo:hi] = gen.kernel(spec.n, spec.k, hi - lo, chunk_stream(spec.seed, index))

    # The pool stays because numpy releases the GIL inside the urn kernels'
    # array steps: on 2 cores, 8192 replicates of urn_a (n=2000), urn_b and
    # block_sizes (n=20000) ran 1.15x, 1.25x and 1.19x faster at threads=2
    # (medians of 7 alternating runs).
    if threads == 1 or len(bounds) == 1:
        for index in range(len(bounds)):
            fill(index)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(len(bounds))))

    selected = spec.selected_columns
    if selected == full:
        matrix = out
    else:
        matrix = out[:, [full.index(name) for name in selected]].copy()
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
        return {
            "name": self.name,
            "observed": self.observed,
            "expected": self.expected,
            "se": self.se,
            "z": self.z,
            "ok": self.ok,
        }


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

    Mean entries use the sample standard error; covariance entries use the
    delete-one jackknife standard error.
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
        sds = x.std(axis=0, ddof=1)
        for pos, name in enumerate(theory.columns):
            entries.append(
                _z_entry(
                    f"mean[{name}]",
                    float(x[:, pos].mean()),
                    float(theory.means[pos]),
                    float(sds[pos]) / math.sqrt(rows),
                    se_multiplier,
                )
            )
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
        columns=tuple(f"color{j}" for j in range(1, q + 1)),
        center=(exact_mean,) * q,
        scale=scale,
        means=(0.0,) * q,
        covariance=tuple(tuple(float(v) for v in row) for row in cov),
    )


def _theory_urn_b(spec: ExperimentSpec) -> TheoryTarget:
    n, k = spec.n, spec.k
    mean_s = float(_dist.block_count_mean(n, k))
    m2 = float(_dist.block_binomial_moment(n, k, 2))
    # E binom(S+2, 2) = (E S^2 + 3 E S + 2) / 2
    second = 2.0 * m2 - 3.0 * mean_s - 2.0
    var_s = second - mean_s * mean_s
    total = k * n + 1
    return TheoryTarget(
        name="urn_b_blocks",
        columns=("black", "white"),
        center=(0.0, 0.0),
        scale=1.0,
        means=(total - (mean_s + 1.0), mean_s + 1.0),
        covariance=((var_s, -var_s), (-var_s, var_s)),
    )


def _theory_first_fraction(name: str, column: str, spec: ExperimentSpec) -> TheoryTarget:
    """The mean (k-1)/(k+1) of one first-fraction column: the first block's
    share of the word in the limit, and the first stick-breaking component."""
    k = spec.k
    return TheoryTarget(
        name=name,
        columns=(column,),
        center=(0.0,),
        scale=1.0,
        means=((k - 1) / (k + 1),),
    )


THEORIES: dict[str, Callable[[ExperimentSpec], TheoryTarget]] = {
    "urn_a_gaussian": _theory_urn_a,
    "urn_b_blocks": _theory_urn_b,
    "first_block_mean": partial(_theory_first_fraction, "first_block_mean", "firstFraction"),
    "stick_breaking_mean": partial(_theory_first_fraction, "stick_breaking_mean", "component1"),
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
    stat, pvalue = _scipy_stats.chisquare(counts[keep], expected[keep])
    return float(stat), float(pvalue)


def chi_square_two_sample(counts_a, counts_b) -> tuple[float, float]:
    """Chi-square homogeneity test of two histograms over the same cells."""
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("histograms must align")
    keep = (a + b) > 0
    table = np.vstack([a[keep], b[keep]])
    stat, pvalue, _, _ = _scipy_stats.chi2_contingency(table)
    return float(stat), float(pvalue)


def ks_two_sample(sample_a, sample_b) -> tuple[float, float]:
    """Two-sample Kolmogorov--Smirnov test."""
    res = _scipy_stats.ks_2samp(np.asarray(sample_a), np.asarray(sample_b))
    return float(res.statistic), float(res.pvalue)
