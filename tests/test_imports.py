"""What importing the package costs: the public names, and ``scipy.stats``
staying unloaded until a goodness-of-fit helper runs."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stirlperm
from stirlperm import cli, harness

# the generator that the guard runs under each --compare theory
COMPARE_GENERATORS = {
    "urn_a_gaussian": "urn_a",
    "urn_b_blocks": "urn_b",
    "first_block_mean": "urn_c_block",
    "stick_breaking_mean": "stick_breaking",
}

# Runs in a fresh interpreter: argv[1] is the source directory, argv[2] a
# scratch directory, argv[3] the JSON {theory: generator} map.  Prints one
# JSON object: per CLI call, its exit code and whether scipy.stats is loaded.
GUARD_SCRIPT = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
scratch = sys.argv[2]
compare = json.loads(sys.argv[3])

report = {"calls": []}
import stirlperm
from stirlperm import cli
report["after_import"] = "scipy.stats" in sys.modules

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    report["calls"].append([list(argv), code, "scipy.stats" in sys.modules])
    return out.getvalue()

def save(name, payload):
    path = os.path.join(scratch, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path

run("count", "--n", "4", "--k", "2")
run("enumerate", "--n", "3", "--k", "2")
run("sample", "--n", "6", "--k", "2", "--seed", "1", "--count", "2")
run("stats", "112233321")
run("blocks", "112233321")
run("pmf", "--n", "5", "--k", "2")
run("moments", "--n", "5", "--k", "2", "--r", "2")
run("moments", "--k", "2", "--r", "2", "--limit")
run("means", "--n", "5", "--k", "2")
run("density", "--k", "2", "--x", "0.5")
for which in ("urnA", "fixed", "tnormal"):
    run("covariance", "--which", which)
for model in ("a", "b", "c"):
    run("urn", "--model", model, "--k", "2", "--steps", "20", "--seed", "1")
run("urn", "--model", "nested", "--k", "2", "--n", "20", "--seed", "1")
run("verify", "--n", "3", "--k", "2")
ary = json.loads(run("decode", "--bijection", "ary", "1221"))["tree"]
run("encode", "--bijection", "ary", "--input", save("ary.json", ary))
bundled = json.loads(run("decode", "--bijection", "bundled", "3331222"))["tree"]
run("encode", "--bijection", "bundled", "--input", save("bundled.json", bundled))
ftree = json.loads(run("encode", "--bijection", "ftree", "--input", save("b.json", bundled)))
run("decode", "--bijection", "ftree", "--input", save("ftree.json", ftree["ftree"]))
seq = json.loads(run("decode", "--bijection", "seq", "--input", save("a.json", ary)))
run("encode", "--bijection", "seq", "--input", save("seq.json", seq["sequence"]))
for theory, generator in sorted(compare.items()):
    run("experiment", "--generator", generator, "--n", "20", "--k", "2",
        "--replicates", "64", "--seed", "3", "--compare", theory)

from stirlperm import chi_square_gof
report["gof"] = chi_square_gof([30, 70], [0.3, 0.7])
report["after_gof"] = "scipy.stats" in sys.modules
print(json.dumps(report))
"""


def test_cli_never_loads_scipy_stats(tmp_path):
    assert set(COMPARE_GENERATORS) == set(harness.THEORIES)
    src = Path(stirlperm.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT, str(src), str(tmp_path), json.dumps(COMPARE_GENERATORS)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] is False
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert {argv[0] for argv, _, _ in report["calls"]} == set(subparsers.choices)
    for argv, code, loaded in report["calls"]:
        assert code == 0, argv
        assert loaded is False, argv
    # the deferred import works: the helper runs and has loaded scipy.stats
    assert report["gof"] == [0.0, 1.0]
    assert report["after_gof"] is True


def test_public_names_are_unchanged():
    assert stirlperm.__all__ == [
        "AryIncreasingTree", "BlockDecomposition", "BundledIncreasingTree", "BundledNode",
        "ComparisonReport", "ConvergenceError", "DegreeWeightFamily", "EnumerationCapError",
        "ExperimentResult", "ExperimentSpec", "FIncreasingTree", "GenStirlingPerm",
        "InvalidPermutationError", "InvalidTreeError", "MeanProfile", "PmfTable", "StatProfile",
        "StatTransferReport", "StickBreakingSample", "UrnGaussianLimit", "UrnSpec",
        "UrnTrajectory", "ary_family", "ary_stats", "ary_tree_to_seq", "bijections",
        "block_binomial_moment", "block_count_mean", "block_count_pmf", "block_decomposition",
        "block_spans", "bundled_family", "bundled_from_f_tree", "bundled_multiplicities",
        "bundled_stats", "chi_square_gof", "chi_square_two_sample", "compare", "count_bundled",
        "count_generalized", "count_k_stirling", "decode_ary_tree", "decode_bundled_tree",
        "distributions", "encode_ary_tree", "encode_bundled_tree", "enumerate_ary_trees",
        "enumerate_bundled", "enumerate_bundled_trees", "enumerate_generalized",
        "enumerate_k_stirling", "f_tree_from_bundled", "fixed_addition_covariance",
        "fixed_addition_urn", "grow_ary_tree", "grow_bundled_tree", "grow_plane_tree",
        "grow_random", "harness", "jackknife_covariance", "k_plane_family", "ks_two_sample",
        "martingale_scaling", "mean_profile", "nested_block_urns", "perms",
        "plane_recursive_family", "polya_urn", "rational_binomial", "recursive_family",
        "run_experiment", "sample_block_size_stats", "sample_bundled", "sample_generalized",
        "sample_k_stirling", "seq_to_ary_tree", "simulate", "stat_profile",
        "stick_breaking_sample", "symmetric_urn", "tnormal_covariance",
        "transition_distribution", "tree_weight", "trees", "triangular_block_urn",
        "uniform_multiplicities", "urn_a_covariance", "urns", "validate_word",
        "verify_stat_transfer", "zeta_density", "zeta_moment",
    ]
    for name in ("chi_square_gof", "chi_square_two_sample", "ks_two_sample"):
        assert getattr(stirlperm, name) is getattr(harness, name)
