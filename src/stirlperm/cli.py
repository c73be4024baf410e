"""Command line interface.

Output is JSON by default (stable key order, ``schemaVersion`` 1) or CSV
with ``--csv``.  Exit codes: 0 success, 1 invalid input or domain error,
2 a verification or comparison found a counterexample, 64 usage error.
Commands that draw randomness require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import bijections as _bij
from . import distributions as _dist
from . import harness as _harness
from . import perms as _perms
from . import trees as _trees
from . import urns as _urns
from ._rng import replicate_stream

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_USAGE = 64

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


def _word_text(perm: _perms.GenStirlingPerm) -> str:
    if perm.order <= 9:
        return perm.compact()
    return ",".join(map(str, perm.word))


def _int_list(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
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
    words = [_word_text(p) for p in _perms.enumerate_generalized(mult, cap=args.cap)]
    payload = {"multiplicities": list(mult), "count": len(words), "words": words}
    rows = (("word",), [(w,) for w in words])
    return payload, rows, EXIT_OK


def _cmd_sample(args):
    _require(args.count >= 0, "--count must be >= 0")
    words = []
    for index in range(args.count):
        seed = replicate_stream(args.seed, index)
        if args.bundled:
            perm = _perms.sample_bundled(args.n, args.k, seed)
        else:
            perm = _perms.sample_k_stirling(args.n, args.k, seed)
        words.append(_word_text(perm))
    payload = {
        "n": args.n,
        "k": args.k,
        "family": "bundled" if args.bundled else "kStirling",
        "seed": args.seed,
        "words": words,
    }
    rows = (("word",), [(w,) for w in words])
    return payload, rows, EXIT_OK


def _cmd_stats(args):
    perm = _perms.GenStirlingPerm.parse(args.word)
    profile = _perms.stat_profile(perm)
    payload = {"word": _word_text(perm), "statistics": profile.to_json_dict()}
    flat = profile.to_json_dict()
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
        seq = [_bij.BundledNode.from_json_dict(item) for item in items]
        tree = _bij.seq_to_ary_tree(seq)
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
    # symmetric_urn names its own parameter q = k + 1
    _require(args.k >= 1, "k must be >= 1")
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
    statistics = None if args.statistics is None else tuple(args.statistics.split(","))
    spec = _harness.ExperimentSpec(
        generator=args.generator,
        n=args.n,
        k=args.k,
        replicates=args.replicates,
        statistics=statistics,
        seed=args.seed,
    )
    result = _harness.run_experiment(spec, threads=args.threads)
    payload = result.to_json_dict()
    exit_code = EXIT_OK
    if args.compare is not None:
        theory = _harness.THEORIES[args.compare](spec)
        report = _harness.compare(result, theory, se_multiplier=args.se_multiplier)
        payload["comparison"] = report.to_json_dict()
        if not report.ok:
            exit_code = EXIT_COUNTEREXAMPLE
    means = result.means()
    cov = result.covariance()
    rows_list = [("mean", name, "", float(means[i])) for i, name in enumerate(result.columns)]
    rows_list += [
        ("cov", ci, cj, float(cov[i, j]))
        for i, ci in enumerate(result.columns)
        for j, cj in enumerate(result.columns)
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
    sub.add_argument("--generator", choices=sorted(_harness.GENERATORS), required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--replicates", type=int, required=True)
    sub.add_argument("--statistics", help="comma separated subset of the generator columns")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--compare", choices=sorted(_harness.THEORIES), default=None)
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


def _render(payload: dict, table, as_csv: bool) -> str:
    if not as_csv:
        return json.dumps(payload, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if table is not None:
        header, rows = table
    else:
        flat: list = []
        _flatten("", payload, flat)
        header, rows = ("key", "value"), flat
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # sample, urn and experiment take a seed; numpy's own message for a
        # negative one does not name the option
        _require(getattr(args, "seed", 0) >= 0, "--seed must be >= 0")
        payload, table, exit_code = args.handler(args)
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    payload = {"schemaVersion": 1, "command": args.command, **payload}
    sys.stdout.write(_render(payload, table, args.csv))
    return exit_code


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
