"""End-to-end CLI tests through ``main(argv)``: JSON envelope, CSV mode,
exit codes, file round trips, output determinism."""

from __future__ import annotations

import csv
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
    ],
    ids=["sample-negative-n", "sample-negative-count", "moments-negative-r",
         "moments-limit-negative-r", "moments-limit-zero-r", "density-beyond-float-range"],
)
def test_out_of_range_argument_is_one_error_line(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


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
