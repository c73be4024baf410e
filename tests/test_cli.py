"""End-to-end CLI tests through ``main(argv)``: JSON envelope, CSV mode,
exit codes, file round trips, output determinism."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import pytest

from stirlperm import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schemaVersion"] == 1
    return payload


# ---------------------------------------------------------------------------
# counting and enumeration
# ---------------------------------------------------------------------------


def test_count_k_stirling(capsys):
    payload = run_json(capsys, "count", "--n", "4", "--k", "2")
    assert payload["command"] == "count"
    assert payload["count"] == 105
    assert payload["multiplicities"] == [2, 2, 2, 2]


def test_count_bundled_and_explicit(capsys):
    bundled = run_json(capsys, "count", "--n", "3", "--k", "1", "--bundled")
    assert bundled["count"] == 10
    explicit = run_json(capsys, "count", "--multiplicities", "2,1")
    assert explicit["count"] == 3
    assert explicit["family"] == "generalized"


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "--csv", "count", "--n", "2", "--k", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "count"]
    assert rows[1] == ["kStirling", "3"]


def test_enumerate_words(capsys):
    payload = run_json(capsys, "enumerate", "--n", "2", "--k", "2")
    assert payload["words"] == ["1122", "1221", "2211"]
    assert payload["count"] == 3


@pytest.mark.parametrize(
    "argv,sha1",
    [
        (("enumerate", "--n", "6", "--k", "2"), "15ea3852697addfb87ee803dbc9041339e9d74cc"),
        (("enumerate", "--n", "5", "--k", "1", "--bundled"),
         "da6ff6e3bf8b7ca18a7b551a8b10aad6b821dfca"),
        (("enumerate", "--multiplicities", "1,3,2,2,3"),
         "293a6691bcf808cf463e4be348db52409f510549"),
        (("enumerate", "--n", "0", "--k", "2"), "e2f41009e652774a9e9c4710fd3130a7de816272"),
        (("--csv", "enumerate", "--n", "4", "--k", "3"),
         "f47878e09b0e0473e810edfdd3f1802f3df19402"),
    ],
    ids=["k2-n6", "bundled-k1-n5", "generalized", "order-zero", "csv-k3-n4"],
)
def test_enumerate_stdout_frozen(capsys, argv, sha1):
    """Byte-identical to the output of the gap-insertion-and-sort enumerator."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_enumerate_cap_exceeded(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "8", "--k", "2", "--cap", "10")
    assert code == 1
    assert out == ""
    assert err.strip() != ""


# ---------------------------------------------------------------------------
# sampling, statistics, blocks
# ---------------------------------------------------------------------------


def test_sample_is_deterministic(capsys):
    args = ("sample", "--n", "5", "--k", "2", "--seed", "17", "--count", "3")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    words = json.loads(out_a)["words"]
    assert len(words) == 3 and len(set(words)) > 1


@pytest.mark.parametrize(
    "argv,named",
    [
        (("sample", "--n", "-3", "--seed", "1"), "n must be >= 0"),
        (("sample", "--n", "2", "--seed", "1", "--count", "-2"), "--count"),
        (("moments", "--r", "-1"), "--r"),
        (("moments", "--r", "-1", "--limit"), "--r"),
        (("moments", "--r", "0", "--limit"), "--r must be >= 1 with --limit"),
        (("density", "--k", "2", "--x", "1000"), "x=1000.0"),
        (("moments", "--k", "2", "--r", "400", "--limit"), "E zeta^268 at k=2"),
        (("sample", "--n", "2", "--seed", "-1"), "--seed"),
        (("urn", "--model", "a", "--steps", "3", "--seed", "-1"), "--seed"),
        (("experiment", "--generator", "urn_b", "--n", "3", "--replicates", "4",
          "--seed", "-1"), "--seed"),
        (("count", "--multiplicities", ""), "--multiplicities must be comma separated integers, got ''"),
        (("count", "--multiplicities", "1,,2"), "got '1,,2'"),
        (("enumerate", "--multiplicities", "1,x"), "got '1,x'"),
        (("count", "--multiplicities", "2,1", "--n", "5"), "--multiplicities cannot be combined"),
        (("count", "--multiplicities", "2,1", "--bundled"), "with --n or --bundled"),
        (("enumerate", "--multiplicities", "2,1", "--n", "2", "--bundled"),
         "--multiplicities cannot be combined with --n or --bundled"),
        (("urn", "--model", "a", "--k", "0", "--steps", "3", "--seed", "1"), "k must be >= 1"),
        (("urn", "--model", "b", "--k", "0", "--steps", "3", "--seed", "1"), "k must be >= 1"),
        (("urn", "--model", "nested", "--k", "0", "--n", "3", "--seed", "1"), "k must be >= 1"),
        (("urn", "--model", "nested", "--k", "2", "--n", "0", "--seed", "1"), "n must be >= 1"),
        (("density", "--x", "nan"), "x must be finite, got nan"),
        (("density", "--x", "inf"), "x must be finite, got inf"),
        (("verify", "--n", "3", "--k", "0"), "k must be >= 1"),
        (("verify", "--n", "0"), "n must be >= 1"),
        (("covariance", "--which", "fixed", "--s", "1,x"),
         "--s must be comma separated integers, got '1,x'"),
        (("experiment", "--generator", "urn_b", "--n", "3", "--replicates", "4",
          "--seed", "1", "--statistics", ""), "has no statistic ''"),
        (("experiment", "--generator", "urn_a", "--n", "3", "--k", "2", "--replicates", "4",
          "--seed", "1", "--statistics", "color1,color1"), "statistic 'color1' is selected twice"),
    ],
    ids=["sample-negative-n", "sample-negative-count", "moments-negative-r",
         "moments-limit-negative-r", "moments-limit-zero-r", "density-beyond-float-range",
         "moments-limit-beyond-float-range", "sample-negative-seed", "urn-negative-seed",
         "experiment-negative-seed", "count-empty-multiplicities",
         "count-empty-multiplicity", "enumerate-non-integer-multiplicity",
         "count-multiplicities-with-n", "count-multiplicities-with-bundled",
         "enumerate-multiplicities-with-n-and-bundled", "urn-a-zero-k", "urn-b-zero-k",
         "urn-nested-zero-k", "urn-nested-zero-n",
         "density-nan", "density-inf", "verify-zero-k", "verify-zero-n",
         "covariance-non-integer-s", "experiment-empty-statistics",
         "experiment-repeated-statistic"],
)
def test_out_of_range_argument_is_one_error_line(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_sample_word_does_not_depend_on_count(capsys):
    """Word r comes from its own stream, so a longer run only appends words."""
    for bundled in ((), ("--bundled",)):
        base = ("sample", "--n", "9", "--k", "2", "--seed", "5", *bundled)
        runs = [run_json(capsys, *base, "--count", str(c))["words"] for c in (1, 3, 8)]
        assert len(runs[-1]) == 8 and len(set(runs[-1])) > 1
        for words in runs:
            assert words == runs[-1][: len(words)]


def test_sample_order_zero_is_one_empty_word(capsys):
    payload = run_json(capsys, "sample", "--n", "0", "--seed", "1")
    assert payload["words"] == [""]


def test_stats_worked_example(capsys):
    payload = run_json(capsys, "stats", "112233321")
    stats = payload["statistics"]
    assert (stats["ascents"], stats["descents"], stats["plateaux"]) == (3, 3, 4)


def test_stats_rejects_invalid_word(capsys):
    code, out, err = run_cli(capsys, "stats", "212")
    assert code == 1
    assert "not" in err.lower() or "invalid" in err.lower() or err.strip()


def test_blocks_worked_example(capsys):
    payload = run_json(capsys, "blocks", "112233321445554666")
    blocks = payload["blocks"]
    assert blocks["sizesByLabel"] == [9, 6, 3]


# ---------------------------------------------------------------------------
# bijections through files
# ---------------------------------------------------------------------------


def test_ary_decode_encode_roundtrip(capsys, tmp_path):
    decoded = run_json(capsys, "decode", "--bijection", "ary", "1221")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(decoded["tree"]))
    encoded = run_json(capsys, "encode", "--bijection", "ary", "--input", str(tree_file))
    assert encoded["word"] == "1221"


def test_bundled_decode_encode_roundtrip(capsys, tmp_path):
    decoded = run_json(capsys, "decode", "--bijection", "bundled", "2221")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(decoded["tree"]))
    encoded = run_json(
        capsys, "encode", "--bijection", "bundled", "--input", str(tree_file)
    )
    assert encoded["word"] == "2221"


def test_seq_roundtrip_through_files(capsys, tmp_path):
    decoded = run_json(capsys, "decode", "--bijection", "ary", "1122")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(decoded["tree"]))
    seq = run_json(capsys, "decode", "--bijection", "seq", "--input", str(tree_file))
    seq_file = tmp_path / "seq.json"
    seq_file.write_text(json.dumps(seq["sequence"]))
    back = run_json(capsys, "encode", "--bijection", "seq", "--input", str(seq_file))
    assert back["tree"] == decoded["tree"]


def test_ftree_roundtrip_through_files(capsys, tmp_path):
    decoded = run_json(capsys, "decode", "--bijection", "bundled", "2221333")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(decoded["tree"]))
    ftree = run_json(capsys, "encode", "--bijection", "ftree", "--input", str(tree_file))
    ftree_file = tmp_path / "ftree.json"
    ftree_file.write_text(json.dumps(ftree["ftree"]))
    back = run_json(capsys, "decode", "--bijection", "ftree", "--input", str(ftree_file))
    assert back["tree"] == decoded["tree"]


def test_encode_requires_input(capsys):
    code, _, err = run_cli(capsys, "encode", "--bijection", "ary")
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize(
    "argv,text,named",
    [
        (("encode", "--bijection", "ary"), '{"parent": [0], "slot": [0]}', "'arity'"),
        (("encode", "--bijection", "seq"), '{"foo": 1}', "'sequence'"),
        (("encode", "--bijection", "seq"), '[{"label": 1}]', "'bundles'"),
        (("decode", "--bijection", "seq"), "[1, 2]", "'arity', 'parent', 'slot'"),
        (("decode", "--bijection", "ftree"), "{", "is not JSON"),
        (("encode", "--bijection", "bundled"), None, "input.json"),  # no such file
        (("encode", "--bijection", "ary"), '{"arity": 3, "parent": 5, "slot": [0]}', "'parent'"),
        (("encode", "--bijection", "ary"), '{"arity": 3, "parent": [0, 1.7], "slot": [0, 1]}',
         "'parent'"),
        (("encode", "--bijection", "ary"), '{"arity": true, "parent": [0], "slot": [0]}',
         "'arity'"),
        (("encode", "--bijection", "seq"), '[{"label": 1, "bundles": 5}]', "'bundles'"),
        (("encode", "--bijection", "seq"), '[{"label": 1, "bundles": [5]}]', "'bundles'"),
        (("encode", "--bijection", "bundled"),
         '{"bundleCount": 2, "parent": [0], "bundle": [0], "posInBundle": [false]}',
         "'posInBundle'"),
        (("decode", "--bijection", "ftree"), '{"rootSlotCount": "2", "parent": [0], "slot": [0]}',
         "'rootSlotCount'"),
    ],
    ids=["ary-no-arity", "seq-no-sequence", "seq-no-bundles", "seq-of-ints", "not-json",
         "missing-file", "ary-int-parent", "ary-float-parent", "ary-bool-arity",
         "seq-int-bundles", "seq-bundle-of-int", "bundled-bool-pos", "ftree-str-root-slots"],
)
def test_malformed_input_is_one_error_line(capsys, tmp_path, argv, text, named):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


# ---------------------------------------------------------------------------
# urns
# ---------------------------------------------------------------------------


def test_urn_b_with_path(capsys):
    payload = run_json(
        capsys, "urn", "--model", "b", "--k", "2", "--steps", "5", "--seed", "3",
        "--path",
    )
    trajectory = payload["trajectory"]
    assert len(trajectory["path"]) == 6
    assert trajectory["counts"] == trajectory["path"][-1]


def test_urn_nested_sizes(capsys):
    payload = run_json(
        capsys, "urn", "--model", "nested", "--k", "2", "--n", "4", "--seed", "5"
    )
    assert sum(payload["blockSizes"]) == 8


@pytest.mark.parametrize(
    "argv,sha1",
    [
        (("urn", "--model", "a", "--k", "1", "--steps", "30", "--seed", "3", "--path"),
         "f69c8e7b1af4816ad27366cfaf1be64871cde5dd"),
        (("urn", "--model", "a", "--k", "3", "--steps", "60", "--seed", "5", "--path"),
         "a0326f3ee6b633e7ef6153bae91c8f31606477f3"),
        (("--csv", "urn", "--model", "a", "--k", "2", "--steps", "200", "--seed", "7"),
         "9b97d47e786fb0047f7f3022763165d3f74e7eae"),
        (("urn", "--model", "b", "--k", "2", "--steps", "40", "--seed", "11", "--path"),
         "283406edd688c08c2c09bd38ba52e40874d0dbb0"),
        (("--csv", "urn", "--model", "b", "--k", "3", "--steps", "200", "--seed", "13"),
         "94a1113979ca382929d02f4c8450e22d0f7a663a"),
        (("urn", "--model", "c", "--k", "3", "--steps", "40", "--seed", "17", "--path"),
         "25b1517155c3dc5981f5aba9bdd515c1d50b2efd"),
        (("--csv", "urn", "--model", "c", "--k", "1", "--steps", "60", "--seed", "19"),
         "96cb76615660519db9a9df21ef131e416b806ffc"),
    ],
    ids=["a-k1-path", "a-k3-path", "csv-a-k2", "b-k2-path", "csv-b-k3", "c-k3-path", "csv-c-k1"],
)
def test_urn_stdout_frozen(capsys, argv, sha1):
    """The simulator draws one integer per step, so a seed fixes every byte."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


# ---------------------------------------------------------------------------
# distribution commands
# ---------------------------------------------------------------------------


def test_pmf_anchor(capsys):
    payload = run_json(capsys, "pmf", "--n", "2", "--k", "2")
    cells = {cell["m"]: cell for cell in payload["pmf"]}
    assert cells[1]["numerator"] == 1 and cells[1]["denominator"] == 3
    assert cells[2]["numerator"] == 2 and cells[2]["denominator"] == 3


def test_moments_exact(capsys):
    payload = run_json(capsys, "moments", "--n", "2", "--k", "2", "--r", "1")
    values = {v["r"]: v["value"] for v in payload["binomialMoments"]}
    assert values[0] == "1"
    assert values[1] == "8/3"
    assert payload["mean"]["value"] == "5/3"


def test_moments_limit(capsys):
    payload = run_json(capsys, "moments", "--k", "2", "--r", "2", "--limit")
    values = {v["r"]: v["value"] for v in payload["limitMoments"]}
    assert values[2] == pytest.approx(4.0)


def test_density_values(capsys):
    payload = run_json(capsys, "density", "--k", "2", "--x", "1.0", "--x", "2.0")
    points = payload["density"]
    assert [p["x"] for p in points] == [1.0, 2.0]
    assert points[0]["value"] == pytest.approx(0.5 * math.exp(-0.25), rel=1e-9)


def test_means_output(capsys):
    payload = run_json(capsys, "means", "--n", "3", "--k", "2")
    assert payload["means"]["ascents"] == "7/3"


def test_covariance_tnormal(capsys):
    payload = run_json(capsys, "covariance", "--which", "tnormal", "--k", "2")
    assert payload["covariance"][0][0] == "1/9"
    assert payload["covarianceFloat"][0][1] == pytest.approx(-1 / 18)


def test_covariance_urn_a(capsys):
    payload = run_json(capsys, "covariance", "--which", "urnA", "--q", "3")
    assert payload["q"] == 3


def test_covariance_fixed(capsys):
    payload = run_json(capsys, "covariance", "--which", "fixed", "--s", "1,1")
    assert payload["s"] == [1, 1]


# ---------------------------------------------------------------------------
# verify and experiment
# ---------------------------------------------------------------------------


def test_verify_small_case(capsys):
    payload = run_json(capsys, "verify", "--n", "3", "--k", "2")
    assert payload["ok"] is True
    assert payload["counterexamples"] == []


def test_experiment_with_comparison(capsys):
    payload = run_json(
        capsys, "experiment", "--generator", "urn_b", "--n", "20", "--k", "2",
        "--replicates", "2048", "--seed", "6", "--compare", "urn_b_blocks",
    )
    assert payload["comparison"]["ok"] is True
    assert payload["spec"]["replicates"] == 2048


def test_experiment_comparison_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "--generator", "urn_b", "--n", "20", "--k", "2",
        "--replicates", "512", "--seed", "6", "--compare", "urn_b_blocks",
        "--se-multiplier", "1e-9",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["comparison"]["ok"] is False


@pytest.mark.parametrize(
    "extra,theory,needed",
    [
        (("--compare", "first_block_mean"), "first_block_mean", "firstFraction"),
        (("--statistics", "white", "--compare", "urn_b_blocks"), "urn_b_blocks", "black"),
        # a covariance comparison needs three replicates
        (("--replicates", "2", "--compare", "urn_b_blocks"), "urn_b_blocks", "3 replicates"),
        (("--compare", "urn_b_blocks", "--se-multiplier", "-1"), "urn_b_blocks", "positive"),
        (("--compare", "urn_b_blocks", "--se-multiplier", "nan"), "urn_b_blocks", "positive"),
    ],
)
def test_experiment_compare_with_missing_columns(capsys, extra, theory, needed):
    code, out, err = run_cli(
        capsys, "experiment", "--generator", "urn_b", "--n", "5", "--k", "2",
        "--replicates", "16", "--seed", "1", *extra,
    )
    assert code == 1
    assert out == ""
    assert theory in err and needed in err


@pytest.mark.parametrize(
    "argv,sha1",
    [
        (("experiment", "--generator", "urn_a", "--n", "1", "--k", "1", "--replicates", "8",
          "--seed", "1"), "7a0cd71a0eb7f9ef40fd9a067112f85d4185bb37"),
        (("experiment", "--generator", "urn_a", "--n", "9", "--k", "2", "--replicates", "1500",
          "--seed", "2"), "a07778c8b2cb70a8fbb15b8b677af5ab67964b86"),
        (("--csv", "experiment", "--generator", "urn_a", "--n", "200", "--k", "3",
          "--replicates", "300", "--seed", "3"), "ad71cac91441b96f8af41fb1389693a876911267"),
        (("experiment", "--generator", "urn_a", "--n", "200", "--k", "2", "--replicates", "2000",
          "--seed", "4", "--compare", "urn_a_gaussian"),
         "f474acffe3e978c4a9bbafac598f058c8aa53900"),
        (("experiment", "--generator", "ary_tree", "--n", "1", "--k", "1", "--replicates", "8",
          "--seed", "5"), "acc04dfc6385d8a02716fcffa0418d9ae1065271"),
        (("experiment", "--generator", "ary_tree", "--n", "9", "--k", "2", "--replicates",
          "1500", "--seed", "6"), "b1fe058d039d8d3b52fcbe61851276dafacf0419"),
        (("--csv", "experiment", "--generator", "ary_tree", "--n", "200", "--k", "3",
          "--replicates", "300", "--seed", "7"), "a13ad07f782d0747c622d694440d1b4685b9e8be"),
        (("experiment", "--generator", "plane_tree", "--n", "2", "--k", "2", "--replicates", "8",
          "--seed", "8"), "925b4c1745a1f8db8c3bb31fe2f419fcb791611a"),
        (("experiment", "--generator", "plane_tree", "--n", "9", "--k", "3", "--replicates",
          "1500", "--seed", "9"), "322eab3a365644f62beca274077ccbb55d91709e"),
        (("--csv", "experiment", "--generator", "plane_tree", "--n", "200", "--k", "2",
          "--replicates", "300", "--seed", "10"), "71a1c57b852ed95cb5b6cbee5118ac5a936414b6"),
        # 9000 steps cross draw blocks of 2048 and of 8192 steps
        (("experiment", "--generator", "urn_a", "--n", "9000", "--k", "2", "--replicates",
          "1030", "--seed", "18"), "980d9ea17ee830416cb5dbfd55df6dc6f2078b8e"),
    ],
    ids=["urn_a-n1", "urn_a-n9", "csv-urn_a-n200", "urn_a-compare", "ary_tree-n1",
         "ary_tree-n9", "csv-ary_tree-n200", "plane_tree-n2", "plane_tree-n9",
         "csv-plane_tree-n200", "urn_a-n9000"],
)
def test_urn_table_experiment_stdout_frozen(capsys, argv, sha1):
    """The generators stepped from an urn table keep their bytes: same
    draws, same replacement rule, same columns."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize(
    "argv,sha1",
    [
        (("experiment", "--generator", "stirling_perm", "--n", "40", "--k", "1",
          "--replicates", "1500", "--seed", "11"), "4c6471adbb379931d161a99f3d75235f0a551929"),
        (("--csv", "experiment", "--generator", "stirling_perm", "--n", "40", "--k", "1",
          "--replicates", "1500", "--seed", "12"), "9b2bce9df8343d410e59ea8c09b1da9a4fb0df42"),
        (("experiment", "--generator", "stirling_perm", "--n", "30", "--k", "2",
          "--replicates", "1500", "--seed", "13"), "aaf1dd0f7c309aaad1645468fc60fd7862ca47dd"),
        (("--csv", "experiment", "--generator", "stirling_perm", "--n", "30", "--k", "2",
          "--replicates", "1500", "--seed", "14"), "79468875f826a881a28b81596265becaf185082c"),
        (("experiment", "--generator", "stirling_perm", "--n", "20", "--k", "3",
          "--replicates", "1500", "--seed", "15"), "03fda768e90ac7977c7a5fa7de94ffb3255ac1bc"),
        (("--csv", "experiment", "--generator", "stirling_perm", "--n", "20", "--k", "3",
          "--replicates", "1500", "--seed", "16"), "c289776dbe0e952b6da7f03c431a428f1c8a82a1"),
        (("experiment", "--generator", "stirling_perm", "--n", "5000", "--k", "1",
          "--replicates", "1030", "--seed", "17"), "91a6be8977ba652ed817be3eef71d01bb9c740ff"),
    ],
    ids=["k1", "csv-k1", "k2", "csv-k2", "k3", "csv-k3", "k1-n5000"],
)
def test_stirling_perm_experiment_stdout_frozen(capsys, argv, sha1):
    """stirling_perm keeps its bytes at every k, also at k = 1, where it
    steps urn A on the balanced-urn engine."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("n", [3, 7])
def test_compare_passes_a_constant_column(capsys, n):
    """At k = 1 firstFraction is the constant 1/n; its float mean is an ulp
    off, which the se floor absorbs."""
    code, out, _ = run_cli(
        capsys, "experiment", "--generator", "urn_c_block", "--n", str(n), "--k", "1",
        "--replicates", "200000", "--seed", "1", "--compare", "first_block_mean",
    )
    assert code == 0
    (entry,) = json.loads(out)["comparison"]["entries"]
    assert entry["ok"] and entry["observed"] != entry["expected"]


def test_first_block_mean_is_exact_at_small_n(capsys):
    """At n = 10 the mean of firstFraction is 0.4, not its limit 1/3: with
    200000 replicates the limit lies about 100 standard errors away."""
    code, out, _ = run_cli(
        capsys, "experiment", "--generator", "urn_c_block", "--n", "10", "--k", "2",
        "--replicates", "200000", "--seed", "1", "--compare", "first_block_mean",
    )
    assert code == 0
    (entry,) = json.loads(out)["comparison"]["entries"]
    assert entry["expected"] == 0.4 and entry["ok"]


def test_experiment_output_deterministic(capsys):
    args = (
        "experiment", "--generator", "stick_breaking", "--n", "1", "--k", "2",
        "--replicates", "1024", "--seed", "9",
    )
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


def test_experiment_threads_do_not_change_output(capsys):
    base = (
        "experiment", "--generator", "urn_a", "--n", "50", "--k", "2",
        "--replicates", "2048", "--seed", "10",
    )
    _, out_one, _ = run_cli(capsys, *base, "--threads", "1")
    _, out_four, _ = run_cli(capsys, *base, "--threads", "4")
    assert out_one == out_four


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 64


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "sample", "--n", "3")
    assert code == 64


def test_bad_choice_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "urn", "--model", "z", "--seed", "1")
    assert code == 64
