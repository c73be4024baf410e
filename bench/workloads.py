"""The operations each workload sends to ``stirlperm.cli.main``, with the
check that every output must pass.

A workload is a fixed list of operation templates.  One *cycle* draws
every template once, with sizes jittered around fixed ladders and seeds
taken from the workload seed and the cycle number, and shuffles them.
Runs are made of whole cycles, so the mix of operations, and with it every
percentile, is the same in every run and for every seed.  The number of
operations that pass in a cycle is odd and near a number ending in 5
(15, 27, 35, 55): then the median and the 90th percentile of a run fall
inside the latencies of one template, not on the edge between two.

Which layer metric should move which end-to-end metric:

=============  ===========================================================
mc_chunk       harness.run_experiment.self_s (urn kernels), urns.*,
               harness.theory.busy_s and distributions.block_binomial_moment
               -> ops_per_s, op_p50_s, op_p90_s.  perms, trees and
               bijections stay idle.  Closed forms for urn_b/urn_c
               (ROADMAP 2) gain here; a process pool (ROADMAP 1) costs.
mc_replicate   rng.streams, perms.grower/validate/stat_profile/
               block_decomposition, trees.grow_*, trees.tree_validate,
               harness.thread_speedup -> ops_per_s, op_p90_s.  Pure Python
               and bound by the interpreter lock.
exact          distributions.block_count_pmf -> op_p90_s;
               perms.enumerate.*, perms.count -> ops_per_s, peak_rss_mb;
               bijections.verify_stat_transfer.self_s, cli.main.self_s.
               harness and urns stay idle.
codec          bijections.<codec>.busy_s/.failed, trees.tree_validate,
               perms.validate -> ops_per_s, passed_frac; cli.main.self_s.
=============  ===========================================================
"""

from __future__ import annotations

import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# Every Monte Carlo operation runs with this many threads: nproc of the
# 2-core machine the benchmark was defined on.
THREADS = 2
# Output checks of Monte Carlo means.  A hundred runs of the benchmark make
# tens of thousands of comparisons, so 4 standard errors would raise a
# false alarm about once per hundred runs; 6 keeps that below one in 10^5.
SE_LIMIT = 6.0


class CheckFailed(Exception):
    """An operation's output does not match its known value."""


@dataclass
class Op:
    """One CLI call and the check of its JSON output against ``expected``.

    ``save`` names a payload key whose value is written as JSON to a path,
    the input of the next operation of the same unit.
    """

    argv: list[str]
    check: Callable[[dict, object], None]
    expected: object
    save: Optional[tuple[str, Path]] = None

    @property
    def is_experiment(self) -> bool:
        return self.argv[0] == "experiment"


# A unit is a list of operations run back to back; when one fails, the
# rest of its unit is not attempted.
Unit = list


# ---------------------------------------------------------------------------
# output parsing and checks
# ---------------------------------------------------------------------------


def _big_int(text: str) -> int:
    # int() refuses more than 4300 digits; a fixed CLI may print such counts
    value = 0
    for lo in range(0, len(text.lstrip("-")), 4000):
        chunk = text.lstrip("-")[lo : lo + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


@contextmanager
def deep_json():
    """Let the benchmark's own JSON handling follow deeply nested trees.

    Only the benchmark's parsing of an output, and its writing of the next
    input, run under the raised limit; operations never do.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 60_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def parse_output(text: str) -> dict:
    with deep_json():
        return json.loads(text, parse_int=_big_int)


def _fail(message: str) -> None:
    raise CheckFailed(message)


def _close(observed: float, expected: float, rel: float) -> bool:
    return abs(observed - expected) <= rel * max(1.0, abs(expected))


def check_comparison(payload: dict, expected) -> None:
    if payload["comparison"]["ok"] is not expected["ok"]:
        _fail(f"comparison ok={payload['comparison']['ok']}")


def check_column_means(payload: dict, expected) -> None:
    """Each listed column mean lies within SE_LIMIT standard errors of its
    exact value."""
    replicates = payload["spec"]["replicates"]
    for name, value in expected.items():
        i = payload["columns"].index(name)
        observed = payload["means"][i]
        se = math.sqrt(max(payload["covariance"][i][i], 0.0) / replicates)
        if abs(observed - value) > SE_LIMIT * se + 1e-9 * max(1.0, abs(value)):
            _fail(f"mean of {name} is {observed}, expected {value} (se {se})")


def check_urn_total(payload: dict, expected) -> None:
    total = sum(payload["trajectory"]["counts"])
    if total != expected:
        _fail(f"urn holds {total} balls, expected {expected}")


def check_block_total(payload: dict, expected) -> None:
    total = sum(payload["blockSizes"])
    if total != expected:
        _fail(f"block sizes add up to {total}, expected {expected}")


def _word_of(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if "," in text else [int(c) for c in text]


def is_stirling(word: list[int], mult: tuple[int, ...]) -> bool:
    """Multiset and nesting property, checked from the definition."""
    n = len(mult)
    counts = [0] * (n + 1)
    for x in word:
        if not 1 <= x <= n:
            return False
        counts[x] += 1
    if tuple(counts[1:]) != tuple(mult):
        return False
    seen = [0] * (n + 1)
    stack: list[int] = []
    for x in word:
        if seen[x] == 0 and stack and x < stack[-1]:
            return False
        if seen[x] and stack[-1] != x:
            return False
        if seen[x] == 0:
            stack.append(x)
        seen[x] += 1
        if seen[x] == mult[x - 1]:
            stack.pop()
    return not stack


def check_sample(payload: dict, expected) -> None:
    words = payload["words"]
    if len(words) != expected["count"]:
        _fail(f"{len(words)} words, expected {expected['count']}")
    mult = tuple(expected["multiplicities"])
    for text in words:
        if not is_stirling(_word_of(text), mult):
            _fail(f"sampled word {text[:40]} is not a Stirling permutation of {mult[:3]}...")


def check_pmf(payload: dict, expected) -> None:
    rows = payload["pmf"]
    total = sum(Fraction(r["numerator"], r["denominator"]) for r in rows)
    if len(rows) != expected["size"] or total != expected["total"]:
        _fail(f"pmf has {len(rows)} rows summing to {total}")


def check_moments(payload: dict, expected) -> None:
    moments = payload["binomialMoments"]
    if moments[0]["value"] != expected["r0"]:
        _fail(f"E binom(S, 0) = {moments[0]['value']}")
    if not _close(payload["mean"]["float"], expected["mean"], 1e-9):
        _fail(f"mean {payload['mean']['float']}, expected {expected['mean']}")


def check_limit_moments(payload: dict, expected) -> None:
    for entry, value in zip(payload["limitMoments"], expected, strict=True):
        if not _close(entry["value"], value, 1e-9):
            _fail(f"limit moment {entry['r']} is {entry['value']}, expected {value}")


def check_means(payload: dict, expected) -> None:
    for key, value in expected.items():
        if Fraction(payload["means"][key]) != value:
            _fail(f"mean of {key} is {payload['means'][key]}, expected {value}")


def check_density(payload: dict, expected) -> None:
    for point, value in zip(payload["density"], expected):
        if abs(point["value"] - value) > 1e-9 + point["errorEstimate"]:
            _fail(f"density at {point['x']} is {point['value']}, expected {value}")


def check_covariance(payload: dict, expected) -> None:
    # ascents + descents + plateaux is fixed, so each row sums to zero
    matrix = [[Fraction(v) for v in row] for row in payload["covariance"]]
    for row in matrix:
        if sum(row) != expected["row_sum"]:
            _fail(f"covariance row {row} does not sum to {expected['row_sum']}")


def check_count(payload: dict, expected) -> None:
    count = payload["count"]
    if isinstance(count, str):
        count = _big_int(count)
    if count != expected:
        _fail("count differs from the product formula")


def check_enumerate(payload: dict, expected) -> None:
    if payload["count"] != expected or len(payload["words"]) != expected:
        _fail(f"enumerated {payload['count']} words, expected {expected}")


def check_verify(payload: dict, expected) -> None:
    if payload["ok"] is not expected["ok"] or payload["aryExamined"] != expected["ary"]:
        _fail(f"verify ok={payload['ok']} examined {payload['aryExamined']}")


def _sequence_nodes(items: list) -> int:
    count = 0
    stack = list(items)
    while stack:
        node = stack.pop()
        count += 1
        for bundle in node["bundles"]:
            stack.extend(bundle)
    return count


def check_decoded(payload: dict, expected) -> None:
    """A decode whose output feeds the next operation has the right size."""
    if "sequence" in payload:
        nodes = _sequence_nodes(payload["sequence"])
    else:
        body = payload.get("tree") or payload["ftree"]
        nodes = len(body["parent"])
    if nodes != expected:
        _fail(f"decoded {nodes} nodes, expected {expected}")


def check_round_trip(key: str) -> Callable[[dict, object], None]:
    def check(payload: dict, expected) -> None:
        if payload[key] != expected:
            _fail(f"round trip changed the {key}")

    return check


# ---------------------------------------------------------------------------
# exact values used by the checks
# ---------------------------------------------------------------------------


def stirling_count(mult) -> int:
    total, acc = 1, 0
    for m in mult[:-1]:
        acc += m
        total *= acc + 1
    return total


def block_count_mean(n: int, k: int) -> float:
    """E S_n = binom(n-1+2/k, n) / binom(n-1+1/k, n) - 1, through log-gamma."""
    return math.exp(
        math.lgamma(n + 2 / k) + math.lgamma(1 / k) - math.lgamma(n + 1 / k) - math.lgamma(2 / k)
    ) - 1


def zeta_moment(k: int, r: int) -> float:
    """E zeta^r = Gamma(r+2) Gamma(1+1/k) / Gamma(1+(r+1)/k); for k = 2 the
    limit is Rayleigh with E zeta = sqrt(pi), E zeta^2 = 4."""
    return math.exp(math.lgamma(r + 2) + math.lgamma(1 + 1 / k) - math.lgamma(1 + (r + 1) / k))


def exterior_mean(n: int, k: int) -> float:
    return (k * n + 1) / (k + 1)


def ary_leaves_mean(n: int, arity: int) -> float:
    # a uniform free slot belongs to a leaf with probability arity*L/free
    leaves = 1.0
    for order in range(1, n):
        free = arity + (order - 1) * (arity - 1)
        leaves += 1 - arity * leaves / free
    return leaves


def plane_means(n: int, k: int) -> tuple[float, float]:
    """Exact E leaves and E root degree of the k-plane growth, where a node
    of degree d is chosen with weight 1 + (k-1) d."""
    leaves, root = 1.0, 0.0
    b = k - 1
    for order in range(1, n):
        total = order + b * (order - 1)
        leaves += 1 - leaves / total
        root += (1 + b * root) / total
    return leaves, root


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------


def _jitter(rng: random.Random, base: int, spread: float = 0.03, low: int = 1) -> int:
    return max(low, round(base * rng.uniform(1 - spread, 1 + spread)))


def _experiment(generator, n, k, replicates, seed, *extra) -> list[str]:
    return [
        "experiment", "--generator", generator, "--n", str(n), "--k", str(k),
        "--replicates", str(replicates), "--seed", str(seed), "--threads", str(THREADS),
        *extra,
    ]


def _compare(generator, theory, n, k, replicates, seed) -> Op:
    argv = _experiment(generator, n, k, replicates, seed, "--compare", theory,
                       "--se-multiplier", str(SE_LIMIT))
    return Op(argv, check_comparison, {"ok": True})


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self, stirlperm) -> None:
        """Write the files the operations read; most workloads need none."""

    def cycle(self, index: int) -> list[Unit]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        units = self.units(rng)
        rng.shuffle(units)
        return units

    def units(self, rng: random.Random) -> list[Unit]:
        raise NotImplementedError


class McChunk(Workload):
    """Vectorised generators (one random stream per 1024-row chunk) and
    single urn trajectories."""

    name = "mc_chunk"

    def units(self, rng):
        reps = 256 if self.tiny else 4096
        size = (lambda n: max(20, n // 50)) if self.tiny else (lambda n: n)
        ops = []
        for gen, theory, n, k in (
            ("urn_a", "urn_a_gaussian", 500, 2),
            ("urn_a", "urn_a_gaussian", 1000, 2),
            ("urn_a", "urn_a_gaussian", 1200, 2),
            ("urn_a", "urn_a_gaussian", 800, 3),
            ("urn_b", "urn_b_blocks", 1000, 2),
            ("urn_b", "urn_b_blocks", 1600, 2),
            ("urn_b", "urn_b_blocks", 1500, 3),
            # three alike, where the median of the cycle falls
            ("urn_c_block", "first_block_mean", 1000, 2),
            ("urn_c_block", "first_block_mean", 1000, 2),
            ("urn_c_block", "first_block_mean", 1000, 2),
            ("urn_c_block", "first_block_mean", 1500, 2),
            ("urn_c_block", "first_block_mean", 2000, 3),
            ("stick_breaking", "stick_breaking_mean", 500, 2),
            ("stick_breaking", "stick_breaking_mean", 2000, 2),
            ("stick_breaking", "stick_breaking_mean", 8000, 3),
        ):
            ops.append(_compare(gen, theory, _jitter(rng, size(n)), k, reps, _seed(rng)))
        for n, k in ((2000, 2), (4000, 2), (8000, 3)):
            n = _jitter(rng, size(n))
            ops.append(Op(_experiment("block_sizes", n, k, reps, _seed(rng)),
                          check_column_means, {"count": block_count_mean(n, k)}))
        for model, steps, k in (("a", 4000, 2), ("b", 6000, 2), ("c", 6000, 3), ("a", 3000, 3),
                                ("b", 4000, 3), ("c", 3000, 2)):
            steps = _jitter(rng, size(steps))
            # all three urns start with k+1 balls and add k per draw
            ops.append(Op(["urn", "--model", model, "--k", str(k), "--steps", str(steps),
                           "--seed", str(_seed(rng))],
                          check_urn_total, k + 1 + k * steps))
        for n, k in ((1000, 2), (3000, 2), (6000, 3)):
            n = _jitter(rng, size(n))
            ops.append(Op(["urn", "--model", "nested", "--k", str(k), "--n", str(n),
                           "--seed", str(_seed(rng))], check_block_total, k * n))
        return [[op] for op in ops]


class McReplicate(Workload):
    """Generators that grow one word or tree per replicate, each from its
    own random stream."""

    name = "mc_replicate"

    def units(self, rng):
        scale = 8 if self.tiny else 1
        ops = []
        for n, k, reps in ((100, 2, 128), (200, 2, 96), (400, 3, 48), (10, 2, 2048)):
            n, reps = _jitter(rng, n // scale, low=5), reps // scale
            expected = {"ascents": exterior_mean(n, k), "descents": exterior_mean(n, k),
                        "plateaux": (k - 1) * exterior_mean(n, k),
                        "blocks": block_count_mean(n, k)}
            ops.append(Op(_experiment("stirling_perm", n, k, reps, _seed(rng)),
                          check_column_means, expected))
        for n, k, reps in ((100, 2, 128), (250, 2, 64), (400, 3, 48), (10, 2, 2048)):
            n, reps = _jitter(rng, n // scale, low=5), reps // scale
            expected = {f"exterior{j}": exterior_mean(n, k) for j in range(1, k + 2)}
            expected["leftRight"] = block_count_mean(n, k)
            expected["leaves"] = ary_leaves_mean(n, k + 1)
            ops.append(Op(_experiment("ary_tree", n, k, reps, _seed(rng)),
                          check_column_means, expected))
        for n, k, reps in ((100, 2, 64), (250, 2, 32), (500, 3, 16)):
            n, reps = _jitter(rng, n // scale, low=5), max(8, reps // scale)
            leaves, root = plane_means(n, k)
            ops.append(Op(_experiment("plane_tree", n, k, reps, _seed(rng)),
                          check_column_means, {"leaves": leaves, "rootDegree": root}))
        for n, k, bundled, count in ((300, 2, False, 64), (200, 1, True, 64),
                                     (1000, 3, False, 16), (500, 2, True, 16)):
            n = _jitter(rng, n // scale, low=5)
            count = count // scale
            mult = (k,) + (k + 2,) * (n - 1) if bundled else (k,) * n
            argv = ["sample", "--n", str(n), "--k", str(k), "--seed", str(_seed(rng)),
                    "--count", str(count)] + (["--bundled"] if bundled else [])
            ops.append(Op(argv, check_sample, {"count": count, "multiplicities": mult}))
        return [[op] for op in ops]


class Exact(Workload):
    """Rational-arithmetic laws, counting, exhaustive enumeration and the
    statistic-transfer verification."""

    name = "exact"

    def units(self, rng):
        tiny = self.tiny
        ops = []
        for n, k in ((20, 2), (12, 3)) if tiny else ((20, 2), (40, 2), (60, 3), (78, 2)):
            n = _jitter(rng, n, low=2)
            ops.append(Op(["pmf", "--n", str(n), "--k", str(k)], check_pmf,
                          {"total": Fraction(1), "size": n}))
        ladder = ((60, 2, 2),) if tiny else ((100, 4, 3), (300, 2, 4), (1000, 3, 3), (2000, 2, 4))
        for n, k, r in ladder:
            n = _jitter(rng, n)
            ops.append(Op(["moments", "--n", str(n), "--k", str(k), "--r", str(r)],
                          check_moments, {"r0": "1", "mean": block_count_mean(n, k)}))
        for k in (2, 3):
            ops.append(Op(["moments", "--k", str(k), "--r", "4", "--limit"], check_limit_moments,
                          [zeta_moment(k, r) for r in range(1, 5)]))
        for k in (2, 3, 4, 5):
            n = rng.randrange(5, 500)
            ext = Fraction(k * n + 1, k + 1)
            ops.append(Op(["means", "--n", str(n), "--k", str(k)], check_means,
                          {"ascents": ext, "descents": ext, "plateaux": (k - 1) * ext}))
        for _ in range(3):
            xs = sorted(round(rng.uniform(0.1, 4.0), 3) for _ in range(3))
            argv = ["density", "--k", "2"] + [a for x in xs for a in ("--x", str(x))]
            ops.append(Op(argv, check_density, [x / 2 * math.exp(-x * x / 4) for x in xs]))
        for k in (2, 3):
            ops.append(Op(["covariance", "--which", "tnormal", "--k", str(k)],
                          check_covariance, {"row_sum": Fraction(0)}))
        # orders from 1500 up at k=2 print counts of more than 4300 digits
        for n, k in ((12, 2), (50, 4), (300, 2), (800, 3), (1400, 2), (1600, 2), (2500, 2)):
            n = n if n >= 1400 else _jitter(rng, n)
            ops.append(Op(["count", "--n", str(n), "--k", str(k)], check_count,
                          stirling_count((k,) * n)))
        for k in (1, 2):
            n = rng.randrange(20, 80)
            ops.append(Op(["count", "--n", str(n), "--k", str(k), "--bundled"], check_count,
                          stirling_count((k,) + (k + 2,) * (n - 1))))
        mult = tuple(rng.randint(1, 6) for _ in range(rng.randrange(5, 60)))
        ops.append(Op(["count", "--multiplicities", ",".join(map(str, mult))], check_count,
                      stirling_count(mult)))
        enumerations = [(["--n", "4", "--k", "3"], (3,) * 4), (["--n", "4", "--k", "2"], (2,) * 4),
                        (["--n", "5", "--k", "1", "--bundled"], (1,) + (3,) * 4)]
        enumerations += [(["--n", "5", "--k", "2"], (2,) * 5)] if tiny else [
            (["--n", "6", "--k", "2"], (2,) * 6), (["--n", "7", "--k", "2"], (2,) * 7)]
        # a shuffled fixed multiset keeps the number of words within 432..2772
        mult = rng.sample((1, 2, 2, 3, 3), 5)
        enumerations.append((["--multiplicities", ",".join(map(str, mult))], mult))
        for args, mult in enumerations:
            ops.append(Op(["enumerate", *args], check_enumerate, stirling_count(mult)))
        for n, k in ((4, 2),) if tiny else ((5, 2), (4, 3)):
            ops.append(Op(["verify", "--n", str(n), "--k", str(k)], check_verify,
                          {"ok": True, "ary": stirling_count((k,) * n)}))
        return [[op] for op in ops]


def _text(word) -> str:
    return ",".join(map(str, word))


class Codec(Workload):
    """Word -> tree -> word (ary, bundled) and tree -> encoding -> tree (seq,
    ftree) round trips on random and degenerate inputs written at set-up."""

    name = "codec"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self._inputs: Optional[list[tuple[str, str, str, Path, dict]]] = None
        self._lone: Optional[tuple[str, int]] = None

    def setup(self, stirlperm) -> None:
        """Draw the inputs from the workload seed and write the tree files."""
        perms, trees, bij = stirlperm.perms, stirlperm.trees, stirlperm.bijections
        rng = random.Random(f"{self.name}/{self.seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        scale = 10 if self.tiny else 1
        inputs = []
        for n, k in ((2000, 2), (2500, 3), (3000, 3), (5000, 3), (10000, 2), (20000, 2)):
            n = _jitter(rng, n // scale)
            word = perms.sample_k_stirling(n, k, _seed(rng)).word
            inputs.append(("kstirling", f"random{n}k{k}", (word, k)))
        for n, k in ((2000, 1), (3000, 2), (5000, 2), (10000, 1), (20000, 1)):
            n = _jitter(rng, n // scale)
            word = perms.sample_bundled(n, k, _seed(rng)).word
            inputs.append(("bundled", f"random{n}k{k}", (word, k)))
        # one word is only decoded, to make 55 passing operations a cycle
        n = _jitter(rng, 2000 // scale)
        self._lone = (_text(perms.sample_bundled(n, 3, _seed(rng)).word), n)
        # degenerate shapes stay full size: they are where recursion fails
        n = _jitter(rng, 2100)
        inputs.append(("kstirling", "chain", (tuple(range(1, n + 1)) + tuple(range(n, 0, -1)), 2)))
        n = _jitter(rng, 5000)
        inputs.append(("kstirling", "flat", (tuple(x for x in range(1, n + 1) for _ in range(2)), 2)))
        n = 2 * _jitter(rng, 1500)  # spine in the middle slot, a leaf in slot 1 of each
        parent = [0] + [(v - 1) if v % 2 == 0 else (v - 2) for v in range(2, n + 1)]
        slot = [0] + [1 if v % 2 == 0 else 2 for v in range(2, n + 1)]
        cat = bij.encode_ary_tree(trees.AryIncreasingTree(3, parent, slot)).word
        inputs.append(("kstirling", "caterpillar", (cat, 2)))
        n = _jitter(rng, 2100)
        chain = trees.BundledIncreasingTree(2, range(n), [0] + [1] * (n - 1), [0] + [1] * (n - 1))
        inputs.append(("bundled", "chain", (bij.encode_bundled_tree(chain).word, 1)))
        n = _jitter(rng, 3000)
        star = trees.BundledIncreasingTree(2, [0] + [1] * (n - 1), [0] + [1] * (n - 1), range(n))
        inputs.append(("bundled", "star", (bij.encode_bundled_tree(star).word, 1)))

        self._inputs = []
        for family, label, (word, k) in inputs:
            perm = stirlperm.GenStirlingPerm.from_word(word)
            if family == "kstirling":
                tree = bij.decode_ary_tree(perm).to_json_dict()
            else:
                tree = bij.decode_bundled_tree(perm).to_json_dict()
            path = self.workdir / f"{family}-{label}.json"
            path.write_text(json.dumps(tree))
            self._inputs.append((family, label, _text(word), path, tree))

    def units(self, rng):
        if self._inputs is None:
            raise RuntimeError("Codec.setup must run first")
        text, n = self._lone
        units = [[Op(["decode", "--bijection", "bundled", text], check_decoded, n)]]
        for family, label, text, path, tree in self._inputs:
            n = len(tree["parent"])
            out = self.workdir / f"{family}-{label}.out.json"
            if family == "kstirling":
                word_bij, tree_bij, key = "ary", "seq", "sequence"
            else:
                word_bij, tree_bij, key = "bundled", "ftree", "ftree"
            units.append([
                Op(["decode", "--bijection", word_bij, text], check_decoded, n,
                   save=("tree", out)),
                Op(["encode", "--bijection", word_bij, "--input", str(out)],
                   check_round_trip("word"), text),
            ])
            seq_out = self.workdir / f"{family}-{label}.{tree_bij}.json"
            if tree_bij == "seq":
                first = Op(["decode", "--bijection", "seq", "--input", str(path)],
                           check_decoded, n, save=(key, seq_out))
                second = Op(["encode", "--bijection", "seq", "--input", str(seq_out)],
                            check_round_trip("tree"), tree)
            else:
                first = Op(["encode", "--bijection", "ftree", "--input", str(path)],
                           check_decoded, n, save=(key, seq_out))
                second = Op(["decode", "--bijection", "ftree", "--input", str(seq_out)],
                            check_round_trip("tree"), tree)
            units.append([first, second])
        return units


WORKLOADS = {cls.name: cls for cls in (McChunk, McReplicate, Exact, Codec)}
