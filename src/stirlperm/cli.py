"""Command line interface.

Output is JSON by default (stable key order, ``schemaVersion`` 1) or CSV
with ``--csv``.  Exit codes: 0 success, 1 invalid input or domain error,
2 a verification or comparison found a counterexample, 64 usage error.
Commands that draw randomness require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import bijections as _bij
from . import distributions as _dist
from . import perms as _perms
from . import trees as _trees
from . import urns as _urns

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_USAGE = 64

# the names of harness.GENERATORS and harness.THEORIES, sorted (a test checks
# them against the harness).  numpy and the harness are imported by the
# commands that draw (sample, urn, experiment) when they first run, so
# building the parser and the exact commands load neither
GENERATORS = (
    "ary_tree", "block_sizes", "plane_tree", "stick_breaking", "stirling_perm",
    "urn_a", "urn_b", "urn_c_block",
)
THEORIES = ("first_block_mean", "stick_breaking_mean", "urn_a_gaussian", "urn_b_blocks")

_DOMAIN_ERRORS = (
    ValueError,
    _perms.InvalidPermutationError,
    _perms.EnumerationCapError,
    _trees.InvalidTreeError,
    _dist.ConvergenceError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=1)
def _symbol_texts(order: int) -> tuple[tuple[str, ...], int]:
    """The text of each label 0..order inside a word of that order, and how
    many leading characters to cut from the joined texts: one digit each up
    to order 9 (the rule of ``compact``), else a comma and the label, with
    the first comma cut.  A run of words of one order builds it once."""
    labels = tuple(map(str, range(order + 1)))
    if order <= 9:
        return labels, 0
    return tuple("," + label for label in labels), 1


def _word_text(perm: _perms.GenStirlingPerm) -> str:
    symbols, cut = _symbol_texts(perm.order)
    return "".join([symbols[x] for x in perm.word])[cut:]


def _primed(items: Iterable) -> Iterator:
    """``items`` with its first item already drawn, so that an error of the
    first draw (an exceeded cap, a word too large for memory) is raised
    here, before anything is written, and not while the output streams."""
    items = iter(items)
    for first in items:
        return itertools.chain((first,), items)
    return items


def _int_list(text: str, option: str) -> tuple[int, ...]:
    try:
        # one rule for an int field, the word parser's
        return _perms._int_fields(text.split(","), text)
    except ValueError:
        raise ValueError(f"{option} must be comma separated integers, got {text!r}") from None


def _multiplicities_for(args) -> tuple[int, ...]:
    if args.multiplicities is not None:
        if args.n is not None or args.bundled:
            raise ValueError("--multiplicities cannot be combined with --n or --bundled")
        return _int_list(args.multiplicities, "--multiplicities")
    if args.n is None:
        raise ValueError("provide --n/--k or --multiplicities")
    if args.bundled:
        return _perms.bundled_multiplicities(args.n, args.k)
    return _perms.uniform_multiplicities(args.n, args.k)


def _load_json_input(path: str) -> dict | list:
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read --input {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"--input {path} is not JSON: {exc}") from exc
    except RecursionError as exc:
        # json's reader recurses once per nested list or object
        raise ValueError(f"--input {path} nests too deeply for json to read") from exc


# ---------------------------------------------------------------------------
# handlers: each returns (payload, csv table or None, exit code)
# ---------------------------------------------------------------------------


def _cmd_count(args):
    mult = _multiplicities_for(args)
    count = _perms.count_generalized(mult)
    family = "bundled" if args.bundled else ("kStirling" if args.multiplicities is None else "generalized")
    payload = {
        "multiplicities": list(mult),
        "family": family,
        "count": count,
    }
    if args.multiplicities is None:
        payload["n"] = args.n
        payload["k"] = args.k
    rows = (("family", "count"), [(family, count)])
    return payload, rows, EXIT_OK


def _cmd_enumerate(args):
    mult = _multiplicities_for(args)
    _require(args.cap >= 0, "--cap must be >= 0")
    # the words of enumerate_generalized as _word_text writes them, with no
    # permutation object: the search joins the texts of the labels
    symbols, cut = _symbol_texts(len(mult))
    runs = _perms._enumerate_runs(mult, args.cap, symbols)
    texts = ([(prefix + rest)[cut:] for rest in endings] for prefix, endings in runs)
    words = _primed(itertools.chain.from_iterable(texts))
    count = _perms.count_generalized(mult)
    payload = {"multiplicities": list(mult), "count": count, "words": words}
    rows = (("word",), ((w,) for w in words))
    return payload, rows, EXIT_OK


def _cmd_sample(args):
    from ._rng import replicate_stream

    _require(args.count >= 0, "--count must be >= 0")
    # n and k are checked once, in the multiset, so also at --count 0; the
    # first word is still drawn before anything is written (see _primed)
    family = _perms.bundled_multiplicities if args.bundled else _perms.uniform_multiplicities
    mult = family(args.n, args.k)
    words = _primed(
        _word_text(_perms.sample_generalized(mult, replicate_stream(args.seed, index)))
        for index in range(args.count)
    )
    payload = {
        "n": args.n,
        "k": args.k,
        "family": "bundled" if args.bundled else "kStirling",
        "seed": args.seed,
        "words": words,
    }
    rows = (("word",), ((w,) for w in words))
    return payload, rows, EXIT_OK


def _cmd_stats(args):
    perm = _perms.GenStirlingPerm.parse(args.word)
    profile = _perms.stat_profile(perm)
    flat = profile.to_json_dict()
    payload = {"word": _word_text(perm), "statistics": flat}
    rows = (
        ("statistic", "value"),
        [(key, json.dumps(value)) for key, value in flat.items()],
    )
    return payload, rows, EXIT_OK


def _cmd_blocks(args):
    perm = _perms.GenStirlingPerm.parse(args.word)
    decomposition = _perms.block_decomposition(perm)
    payload = {"word": _word_text(perm), "blocks": decomposition.to_json_dict()}
    rows = (
        ("label", "start", "stop", "size"),
        [(b.label, b.start, b.stop, b.size) for b in decomposition.blocks_by_label],
    )
    return payload, rows, EXIT_OK


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _cmd_encode(args):
    _require(args.input is not None, "--input is required for encode")
    data = _load_json_input(args.input)
    if args.bijection == "ary":
        tree = _trees.AryIncreasingTree.from_json_dict(data)
        perm = _bij.encode_ary_tree(tree)
        payload = {"bijection": "ary", "word": _word_text(perm)}
    elif args.bijection == "bundled":
        tree = _trees.BundledIncreasingTree.from_json_dict(data)
        perm = _bij.encode_bundled_tree(tree)
        payload = {"bijection": "bundled", "word": _word_text(perm)}
    elif args.bijection == "ftree":
        tree = _trees.BundledIncreasingTree.from_json_dict(data)
        ftree = _bij.f_tree_from_bundled(tree)
        payload = {"bijection": "ftree", "ftree": ftree.to_json_dict()}
    else:  # seq
        items = data.get("sequence") if isinstance(data, dict) else data
        _require(isinstance(items, list), "expected a JSON list of trees, or one under 'sequence'")
        # the dicts are read in place, without BundledNode objects
        tree = _bij.seq_to_ary_tree(items)
        payload = {"bijection": "seq", "tree": tree.to_json_dict()}
    return payload, None, EXIT_OK


def _cmd_decode(args):
    if args.bijection == "ary":
        _require(args.word is not None, "a word argument is required")
        perm = _perms.GenStirlingPerm.parse(args.word)
        tree = _bij.decode_ary_tree(perm)
        payload = {"bijection": "ary", "tree": tree.to_json_dict()}
    elif args.bijection == "bundled":
        _require(args.word is not None, "a word argument is required")
        perm = _perms.GenStirlingPerm.parse(args.word)
        tree = _bij.decode_bundled_tree(perm)
        payload = {"bijection": "bundled", "tree": tree.to_json_dict()}
    elif args.bijection == "ftree":
        _require(args.input is not None, "--input is required for this bijection")
        ftree = _bij.FIncreasingTree.from_json_dict(_load_json_input(args.input))
        tree = _bij.bundled_from_f_tree(ftree)
        payload = {"bijection": "ftree", "tree": tree.to_json_dict()}
    else:  # seq
        _require(args.input is not None, "--input is required for this bijection")
        tree = _trees.AryIncreasingTree.from_json_dict(_load_json_input(args.input))
        seq = _bij.ary_tree_to_seq(tree)
        payload = {
            "bijection": "seq",
            "sequence": [node.to_json_dict() for node in seq],
        }
    return payload, None, EXIT_OK


def _cmd_urn(args):
    if args.model == "nested":
        sizes = _urns.nested_block_urns(args.k, args.n, args.seed)
        payload = {
            "model": "nested",
            "k": args.k,
            "n": args.n,
            "seed": args.seed,
            "blockSizes": list(sizes),
        }
        rows = (("index", "size"), list(enumerate(sizes, start=1)))
        return payload, rows, EXIT_OK
    # symmetric_urn names its own parameter q = k + 1; every model starts
    # with k + 1 balls, and numpy draws on the total as an int64
    _require(args.k >= 1, "k must be >= 1")
    _require(args.k + 1 < 2**63, "k must be < 2**63 - 1")
    if args.model == "a":
        spec = _urns.symmetric_urn(args.k + 1)
    elif args.model == "b":
        spec = _urns.triangular_block_urn(args.k)
    else:
        spec = _urns.polya_urn(args.k, args.k - 1, 2)
    trajectory = _urns.simulate(spec, args.steps, args.seed, record_path=args.path)
    payload = {"model": args.model, "trajectory": trajectory.to_json_dict()}
    rows = (
        ("color", "count"),
        list(zip(spec.colors, payload["trajectory"]["counts"])),
    )
    return payload, rows, EXIT_OK


def _cmd_pmf(args):
    table = _dist.block_count_pmf(args.n, args.k)
    data = table.to_rows()
    payload = {
        "n": args.n,
        "k": args.k,
        "pmf": [
            {"m": m, "numerator": num, "denominator": den, "value": val}
            for m, num, den, val in data
        ],
    }
    rows = (("m", "numerator", "denominator", "value"), data)
    return payload, rows, EXIT_OK


def _cmd_moments(args):
    _require(args.r >= 0, "--r must be >= 0")
    if args.limit:
        _require(args.r >= 1, "--r must be >= 1 with --limit")
        values = [
            {"r": r, "value": _dist.zeta_moment(args.k, r)}
            for r in range(1, args.r + 1)
        ]
        payload = {"k": args.k, "limitMoments": values}
        rows = (("r", "value"), [(v["r"], v["value"]) for v in values])
        return payload, rows, EXIT_OK
    values = []
    for r in range(args.r + 1):
        moment = _dist.block_binomial_moment(args.n, args.k, r)
        values.append({"r": r, "value": str(moment), "float": float(moment)})
    mean = _dist.block_count_mean(args.n, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "binomialMoments": values,
        "mean": {"value": str(mean), "float": float(mean)},
    }
    rows = (("r", "value", "float"), [(v["r"], v["value"], v["float"]) for v in values])
    return payload, rows, EXIT_OK


def _cmd_density(args):
    points = []
    for x in args.x:
        value, err = _dist.zeta_density(args.k, x, term_cap=args.term_cap)
        points.append({"x": x, "value": value, "errorEstimate": err})
    payload = {"k": args.k, "density": points}
    rows = (
        ("x", "value", "errorEstimate"),
        [(p["x"], p["value"], p["errorEstimate"]) for p in points],
    )
    return payload, rows, EXIT_OK


def _cmd_means(args):
    profile = _dist.mean_profile(args.n, args.k)
    payload = {"means": profile.to_json_dict()}
    rows = (
        ("statistic", "value"),
        [
            ("ascents", str(profile.ascents_mean)),
            ("descents", str(profile.descents_mean)),
            ("plateaux", str(profile.plateaux_mean)),
            ("jAscent", str(profile.j_ascent_mean)),
            ("jPlateau", str(profile.j_plateau_mean)),
        ],
    )
    return payload, rows, EXIT_OK


def _cmd_covariance(args):
    if args.which == "urnA":
        limit = _urns.urn_a_covariance(args.q)
        payload = {"which": "urnA", "q": args.q, "limit": limit.to_json_dict()}
        matrix = limit.covariance
    elif args.which == "fixed":
        s = _int_list(args.s, "--s")
        limit = _urns.fixed_addition_covariance(s)
        payload = {"which": "fixed", "s": list(s), "limit": limit.to_json_dict()}
        matrix = limit.covariance
    else:
        matrix = _dist.tnormal_covariance(args.k)
        payload = {
            "which": "tnormal",
            "k": args.k,
            "order": ["ascents", "descents", "plateaux"],
            "covariance": [[str(v) for v in row] for row in matrix],
            "covarianceFloat": [[float(v) for v in row] for row in matrix],
        }
    rows = (
        ("i", "j", "value"),
        [
            (i, j, str(value))
            for i, row in enumerate(matrix)
            for j, value in enumerate(row)
        ],
    )
    return payload, rows, EXIT_OK


def _cmd_verify(args):
    report = _bij.verify_stat_transfer(args.n, args.k, include_bundled=not args.no_bundled)
    payload = report.to_json_dict()
    rows = (
        ("n", "k", "aryExamined", "bundledExamined", "counterexamples", "ok"),
        [
            (
                report.n,
                report.k,
                report.ary_examined,
                report.bundled_examined,
                len(report.counterexamples),
                report.ok,
            )
        ],
    )
    return payload, rows, (EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE)


def _cmd_experiment(args):
    from . import harness

    statistics = None if args.statistics is None else tuple(args.statistics.split(","))
    spec = harness.ExperimentSpec(
        generator=args.generator,
        n=args.n,
        k=args.k,
        replicates=args.replicates,
        statistics=statistics,
        seed=args.seed,
    )
    result = harness.run_experiment(spec, threads=args.threads)
    payload = result.to_json_dict()
    exit_code = EXIT_OK
    if args.compare is not None:
        theory = harness.THEORIES[args.compare](spec)
        report = harness.compare(result, theory, se_multiplier=args.se_multiplier)
        payload["comparison"] = report.to_json_dict()
        if not report.ok:
            exit_code = EXIT_COUNTEREXAMPLE
    columns = result.columns
    rows_list = [("mean", name, "", mean) for name, mean in zip(columns, payload["means"])]
    rows_list += [
        ("cov", ci, cj, value)
        for ci, row in zip(columns, payload["covariance"])
        for cj, value in zip(columns, row)
    ]
    rows = (("kind", "i", "j", "value"), rows_list)
    return payload, rows, exit_code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_family_options(sub, n_required: bool = False) -> None:
    sub.add_argument("--n", type=int, default=None, required=n_required, help="order (number of labels)")
    sub.add_argument("--k", type=int, default=2, help="multiplicity parameter")
    sub.add_argument("--bundled", action="store_true", help="use the bundled family")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stirlperm", description=__doc__)
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("count", help="count permutations of a family")
    _add_family_options(sub)
    sub.add_argument("--multiplicities", help="explicit comma separated multiplicities")
    sub.set_defaults(handler=_cmd_count)

    sub = commands.add_parser("enumerate", help="list all permutations of a family")
    _add_family_options(sub)
    sub.add_argument("--multiplicities", help="explicit comma separated multiplicities")
    sub.add_argument("--cap", type=int, default=_perms.DEFAULT_ENUMERATION_CAP)
    sub.set_defaults(handler=_cmd_enumerate)

    sub = commands.add_parser("sample", help="sample uniform random permutations")
    _add_family_options(sub, n_required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--count", type=int, default=1)
    sub.set_defaults(handler=_cmd_sample)

    sub = commands.add_parser("stats", help="ascent, descent and plateau statistics of a word")
    sub.add_argument("word")
    sub.set_defaults(handler=_cmd_stats)

    sub = commands.add_parser("blocks", help="block decomposition of a word")
    sub.add_argument("word")
    sub.set_defaults(handler=_cmd_blocks)

    sub = commands.add_parser("encode", help="apply a bijection in the tree-to-word direction")
    sub.add_argument("--bijection", choices=("ary", "bundled", "seq", "ftree"), required=True)
    sub.add_argument("--input", help="JSON input path, or - for stdin")
    sub.set_defaults(handler=_cmd_encode)

    sub = commands.add_parser("decode", help="apply a bijection in the word-to-tree direction")
    sub.add_argument("--bijection", choices=("ary", "bundled", "seq", "ftree"), required=True)
    sub.add_argument("word", nargs="?")
    sub.add_argument("--input", help="JSON input path, or - for stdin")
    sub.set_defaults(handler=_cmd_decode)

    sub = commands.add_parser("urn", help="simulate an urn model")
    sub.add_argument("--model", choices=("a", "b", "c", "nested"), required=True)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--steps", type=int, default=0, help="number of draws (models a, b, c)")
    sub.add_argument("--n", type=int, default=1, help="order (model nested)")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--path", action="store_true", help="record the whole trajectory")
    sub.set_defaults(handler=_cmd_urn)

    sub = commands.add_parser("pmf", help="exact distribution of the block count")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=2)
    sub.set_defaults(handler=_cmd_pmf)

    sub = commands.add_parser("moments", help="block count moments, exact or in the limit")
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--r", type=int, default=2, help="highest moment order")
    sub.add_argument("--limit", action="store_true", help="moments of the scaled limit law")
    sub.set_defaults(handler=_cmd_moments)

    sub = commands.add_parser("density", help="density of the scaled block count limit")
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--x", type=float, action="append", required=True)
    sub.add_argument("--term-cap", type=int, default=500)
    sub.set_defaults(handler=_cmd_density)

    sub = commands.add_parser("means", help="exact means of the word statistics")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=2)
    sub.set_defaults(handler=_cmd_means)

    sub = commands.add_parser("covariance", help="exact Gaussian limit covariances")
    sub.add_argument("--which", choices=("urnA", "fixed", "tnormal"), required=True)
    sub.add_argument("--q", type=int, default=3, help="colors (urnA)")
    sub.add_argument("--s", default="1,1", help="addition vector (fixed)")
    sub.add_argument("--k", type=int, default=2, help="multiplicity (tnormal)")
    sub.set_defaults(handler=_cmd_covariance)

    sub = commands.add_parser("verify", help="exhaustively check the statistic transfer")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--no-bundled", action="store_true")
    sub.set_defaults(handler=_cmd_verify)

    sub = commands.add_parser("experiment", help="run a seeded Monte Carlo experiment")
    sub.add_argument("--generator", choices=GENERATORS, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--replicates", type=int, required=True)
    sub.add_argument("--statistics", help="comma separated subset of the generator columns")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--compare", choices=THEORIES, default=None)
    sub.add_argument("--se-multiplier", type=float, default=4.0)
    sub.set_defaults(handler=_cmd_experiment)

    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, rows)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(f"{prefix}[{index}]", item, rows)
    else:
        rows.append((prefix, value))


# rows or items of an iterator per write of a streamed output
_BATCH = 4096


def _batches(items: Iterable) -> Iterator[list]:
    items = iter(items)
    while batch := list(itertools.islice(items, _BATCH)):
        yield batch


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# the JSON text of a value of exactly this type; subclasses are looked up
# with isinstance, in json's order
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _subclass_text(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    """The quoted text of a dict key: as in json, an int, float, bool or
    None key is the string of its value's text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + _SCALAR_TEXT.get(type(key), _subclass_text)(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _joined(items: list, separator: str) -> Optional[str]:
    """The items' texts joined by ``separator`` when all of them have one
    scalar type, else None."""
    text = _SCALAR_TEXT.get(type(items[0]))
    if text is None or (len(items) > 1 and len(set(map(type, items))) > 1):
        return None
    return separator.join(map(text, items))


_LIST, _DICT, _STREAM = range(3)


def _write_json(value, out) -> None:
    """Write ``value`` to ``out`` as the text of ``json.dumps(value, indent=2)``
    and a line break.

    The value is walked with a stack, so any depth is written, and a list
    of items of one scalar type is joined at once.  An iterator is written
    as a list, in batches of ``_BATCH`` items, each as it is drawn.  All
    else is built in full and written once, so that an unserialisable object
    (``TypeError``), a circular reference or an int past the interpreter's
    int-to-str digit limit (``ValueError``) raises before anything is
    written, as ``json.dumps`` does.
    """
    parts: list[str] = []
    append = parts.append
    # the line break and indent of each depth; a container builds its
    # opening and separator from them when it opens, and its closing is the
    # outer one and a bracket, so the text shares one string per depth
    levels = ["\n"]
    open_ids: set[int] = set()
    # a frame per open container: (items, kind, separator, closing, id),
    # whose closing is a tuple of strings; a stream's frame is a list
    # [items of its batch, kind, separator, closing, None, batches, head of
    # its next batch], whose closing is ("[]",) until a batch is drawn
    stack: list = []
    prefix = ""
    end = object()
    while True:
        text = _SCALAR_TEXT.get(type(value))
        if text is not None:
            append(prefix + text(value))
        else:
            depth = len(stack)
            if depth + 1 == len(levels):
                levels.append(levels[depth] + "  ")
            inner = levels[depth + 1]
            if isinstance(value, (list, tuple, dict)):
                is_dict = isinstance(value, dict)
                if not value:
                    append(prefix + ("{}" if is_dict else "[]"))
                elif id(value) in open_ids:
                    raise ValueError("Circular reference detected")
                elif is_dict:
                    open_ids.add(id(value))
                    items = iter(value.items())
                    stack.append((items, _DICT, "," + inner, (levels[depth], "}"), id(value)))
                    key, value = next(items)
                    key = encode_basestring_ascii(key) if type(key) is str else _key_text(key)
                    prefix += "{" + inner + key + ": "
                    continue
                elif type(value[0]) in _SCALAR_TEXT and (text := _joined(value, "," + inner)):
                    append(prefix + "[" + inner + text + levels[depth] + "]")
                else:
                    open_ids.add(id(value))
                    items = iter(value)
                    stack.append((items, _LIST, "," + inner, (levels[depth], "]"), id(value)))
                    value = next(items)
                    prefix += "[" + inner
                    continue
            elif isinstance(value, Iterator):
                append(prefix)
                stack.append(
                    [iter(()), _STREAM, "," + inner, ("[]",), None, _batches(value), "[" + inner]
                )
            else:
                append(prefix + _subclass_text(value))
        # the value is written: find the next one
        while stack:
            frame = stack[-1]
            item = next(frame[0], end)
            if item is not end:
                if frame[1] is _DICT:
                    key, value = item
                    key = encode_basestring_ascii(key) if type(key) is str else _key_text(key)
                    prefix = frame[2] + key + ": "
                else:
                    value, prefix = item, frame[2]
                break
            if frame[1] is _STREAM:
                out.write("".join(parts))
                parts.clear()
                batch = next(frame[5], None)
                if batch is not None:
                    separator, head = frame[2], frame[6]
                    frame[3], frame[6] = (levels[len(stack) - 1], "]"), separator
                    if (text := _joined(batch, separator)) is None:
                        frame[0] = items = iter(batch)
                        value, prefix = next(items), head
                        break
                    append(head + text)
                    continue
            stack.pop()
            parts += frame[3]
            open_ids.discard(frame[4])
        else:
            break
    append("\n")
    out.write("".join(parts))


def _render(payload: dict, table, as_csv: bool, out) -> None:
    """Write the payload as indented JSON, or its table as CSV, to ``out``.

    Rows, and any iterator in the payload, are written in batches as they
    are drawn; the bytes are those of ``json.dumps(payload, indent=2)`` and
    of the ``csv`` writer with every iterator a list.
    """
    if not as_csv:
        _write_json(payload, out)
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if table is not None:
        header, rows = table
    else:
        flat: list = []
        _flatten("", payload, flat)
        header, rows = ("key", "value"), flat
    writer.writerow(header)
    for batch in _batches(rows):
        writer.writerows(batch)
        out.write(buffer.getvalue())
        buffer.seek(0)
        buffer.truncate()
    out.write(buffer.getvalue())


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process.  Parsing leaves a parser as it was (an
    appended option starts a new list), and what ``build_parser`` reads is
    fixed, so a run of ``main`` calls builds it once."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused from parsing to the last byte
    written, and turned on again at the end only if it was on at the start.
    A command creates no reference cycles (a test checks every command),
    so the collector would find nothing; it would only walk the command's
    large acyclic graphs (the parsed ``--input``, the node forms, the
    payload) over and over while they live.  Reference counting still frees
    everything.  The pause is process-wide: another thread runs without the
    collector until ``main`` returns.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        try:
            # sample, urn and experiment take a seed; numpy's own message for
            # a negative one does not name the option
            _require(getattr(args, "seed", 0) >= 0, "--seed must be >= 0")
            payload, table, exit_code = args.handler(args)
        except _DOMAIN_ERRORS as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INVALID
        payload = {"schemaVersion": 1, "command": args.command, **payload}
        _render(payload, table, args.csv, sys.stdout)
        return exit_code
    finally:
        if collecting:
            gc.enable()


def cli() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as ``| head`` does); point stdout
        # at devnull so that the interpreter's last flush does not raise too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INVALID
    raise SystemExit(code)


if __name__ == "__main__":
    cli()
