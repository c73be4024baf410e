"""End-to-end CLI tests through ``main(argv)``: JSON envelope, CSV mode,
exit codes, file round trips, output determinism."""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stirlperm import bijections, cli, perms


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
        (("enumerate", "--n", "7", "--k", "2"), "5df0b91089801f99e1575286fc847eb560af57c2"),
        (("--csv", "enumerate", "--n", "6", "--k", "2"),
         "baca83b45348784c6a91dc6638fdeaa791f8e457"),
    ],
    ids=["k2-n6", "bundled-k1-n5", "generalized", "order-zero", "csv-k3-n4", "k2-n7",
         "csv-k2-n6"],
)
def test_enumerate_stdout_frozen(capsys, argv, sha1):
    """Byte-identical to the output of the gap-insertion-and-sort enumerator."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


class _ByteCount:
    """A stdout that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)


def test_enumerate_streams_its_words(monkeypatch):
    """135135 words, 2.97 MB of JSON, are written as they are enumerated:
    the peak traced memory stays far below the size of the output."""
    sink = _ByteCount()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "--n", "7", "--k", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.written == 2973132
    assert peak < 4 * 2**20


def test_enumerate_cap_exceeded(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "8", "--k", "2", "--cap", "10")
    assert code == 1
    assert out == ""
    assert err.strip() != ""


def _small_multisets():
    """Every multiset of order 0-6 with entries 1-3 and at most 10**4 words,
    and {1, ..., 9}."""
    for n in range(7):
        for mult in itertools.product((1, 2, 3), repeat=n):
            if perms.count_generalized(mult) <= 10**4:
                yield mult
    yield (1,) * 9


def test_enumerate_writes_the_text_of_each_word(capsys):
    """The words written straight from the search are the texts of the
    enumerated permutations, as JSON and as CSV."""
    for mult in _small_multisets():
        argv = ("enumerate", "--multiplicities", ",".join(map(str, mult))) if mult else (
            "enumerate", "--n", "0")
        expected = list(map(cli._word_text, perms.enumerate_generalized(mult)))
        assert run_json(capsys, *argv)["words"] == expected, mult
        code, out, _ = run_cli(capsys, "--csv", *argv)
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [["word"], *([w] for w in expected)], mult


class _Enough(Exception):
    pass


class _LineSink:
    """A stdout that keeps what is written and raises ``_Enough`` once it
    holds more than ``lines`` lines."""

    def __init__(self, lines: int) -> None:
        self.lines = lines
        self.parts: list[str] = []
        self.count = 0

    def write(self, text: str) -> int:
        self.parts.append(text)
        self.count += text.count("\n")
        if self.count > self.lines:
            raise _Enough
        return len(text)


@pytest.mark.parametrize(
    "mult,runs",
    [((1,) * 10, 2000), ((2,) * 10, 9000), ((1, 3, 1, 2, 1, 1, 2, 1, 1, 1, 1), 2000)],
    ids=str,
)
@pytest.mark.parametrize("as_csv", [False, True], ids=["json", "csv"])
def test_enumerate_writes_comma_joined_words_past_order_nine(monkeypatch, mult, runs, as_csv):
    """From order 10 on a word is its labels joined by commas: the words of
    the first runs of the search are the texts of the enumerated
    permutations.  The runs reach cached endings within the first 20, and
    those of (2,)*10 empty the full cache once, at run 8586.  Every such
    multiset has millions of words, so the output is cut once it holds
    them."""
    cap = perms.count_generalized(mult)
    symbols = [(x,) for x in range(len(mult) + 1)]
    runs = itertools.islice(perms._enumerate_runs(mult, cap, symbols), runs)
    size = sum(len(endings) for _, endings in runs)
    words = perms.enumerate_generalized(mult, cap)
    expected = list(map(cli._word_text, itertools.islice(words, size)))
    sink = _LineSink(size + 20)
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["enumerate", "--multiplicities", ",".join(map(str, mult)), "--cap", str(cap)]
    with pytest.raises(_Enough):
        cli.main(["--csv", *argv] if as_csv else argv)
    lines = "".join(sink.parts).split("\n")
    if as_csv:
        words = [row[0] for row in csv.reader(lines[1 : size + 1])]
    else:
        start = lines.index('  "words": [') + 1
        words = [json.loads(line.rstrip(",")) for line in lines[start : start + size]]
    assert words == expected


def test_enumerate_of_a_long_word_holds_one_prefix(monkeypatch):
    """The command's search holds one text of its path, not one per depth:
    the first words of a 3002-symbol multiset take far less than the 4.5 MB
    of a string per prefix.  The words are written one per batch, so that
    4096 of them do not hide the search's memory."""
    sink = _LineSink(16)
    monkeypatch.setattr(sys, "stdout", sink)
    monkeypatch.setattr(cli, "_BATCH", 1)
    tracemalloc.start()
    try:
        with pytest.raises(_Enough):
            cli.main(["enumerate", "--multiplicities", "3000,1,1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = "".join(sink.parts).split("\n")
    start = lines.index('  "words": [') + 1
    assert json.loads(lines[start].rstrip(",")) == "1" * 3000 + "23"
    assert peak < 2**20


def test_enumerate_builds_no_word_objects(capsys, monkeypatch):
    """``enumerate`` writes each word's text from the search, with no
    permutation object and no ``compact`` call."""
    expected = list(map(cli._word_text, perms.enumerate_k_stirling(5, 2)))

    def refuse(*args, **kwargs):
        raise AssertionError("a word object was built")

    monkeypatch.setattr(perms.GenStirlingPerm, "_trusted", refuse)
    monkeypatch.setattr(perms.GenStirlingPerm, "compact", refuse)
    assert run_json(capsys, "enumerate", "--n", "5", "--k", "2")["words"] == expected


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
    # the sampler does not scan the words it builds, so each printed one is
    # validated here, up to 12000 symbols
    for n, k, bundled in ((5, 2, ()), (3000, 1, ()), (3000, 4, ()), (1000, 3, ("--bundled",))):
        argv = ("sample", "--n", str(n), "--k", str(k), "--seed", "17", "--count", "8", *bundled)
        words = run_json(capsys, *argv)["words"]
        mult = perms.bundled_multiplicities(n, k) if bundled else perms.uniform_multiplicities(n, k)
        assert len(words) == 8
        for text in words:
            word = tuple(map(int, text.split(",") if n > 9 else text))
            assert perms.validate_word(word, mult)


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
        (("stats", "1,,2"), "blank comma field in permutation '1,,2'"),
        (("blocks", ",1,1"), "blank comma field in permutation ',1,1'"),
        (("decode", "--bijection", "ary", "1,1,"), "blank comma field in permutation '1,1,'"),
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
        (("count", "--n", "3", "--k", "0", "--bundled"), "k must be >= 1"),
        (("enumerate", "--n", "3", "--k", "0", "--bundled"), "k must be >= 1"),
        (("sample", "--n", "3", "--k", "0", "--bundled", "--seed", "1"), "k must be >= 1"),
        (("sample", "--n", "-1", "--k", "2", "--seed", "1", "--count", "0"), "n must be >= 0"),
        (("sample", "--n", "3", "--k", "0", "--seed", "1", "--count", "0"), "k must be >= 1"),
        (("sample", "--n", "0", "--k", "2", "--bundled", "--seed", "1", "--count", "0"),
         "n must be >= 1"),
        (("count", "--n", "0", "--bundled"), "n must be >= 1"),
        (("count", "--n", "0", "--k", "0"), "k must be >= 1"),
        (("count", "--n", "0", "--k", "-5"), "k must be >= 1"),
        (("enumerate", "--n", "0", "--k", "0"), "k must be >= 1"),
        (("count", "--n", "-1", "--k", "2"), "n must be >= 0"),
        (("enumerate", "--n", "3", "--k", "2", "--cap", "-1"), "--cap must be >= 0"),
        (("covariance", "--which", "fixed", "--s", "1,x"),
         "--s must be comma separated integers, got '1,x'"),
        (("experiment", "--generator", "urn_b", "--n", "3", "--replicates", "4",
          "--seed", "1", "--statistics", ""), "has no statistic ''"),
        (("experiment", "--generator", "urn_a", "--n", "3", "--k", "2", "--replicates", "4",
          "--seed", "1", "--statistics", "color1,color1"), "statistic 'color1' is selected twice"),
        # numbers past int64 (stick_breaking reads k as a float)
        *((("experiment", "--generator", generator, "--n", "3", "--k", str(10**20),
            "--replicates", "4", "--seed", "1"),
           f"generator {generator!r} needs k * (2n + 19) < 2**63")
          for generator in cli.GENERATORS if generator != "stick_breaking"),
        *((("urn", "--model", model, "--k", str(10**20), "--steps", "3", "--seed", "1"),
           "k must be < 2**63 - 1") for model in "abc"),
        (("urn", "--model", "nested", "--k", str(10**20), "--n", "3", "--seed", "1"),
         "k * n must be < 2**63"),
        (("covariance", "--which", "urnA", "--q", str(10**20)), "q must be < 2**63"),
    ],
    ids=["sample-negative-n", "sample-negative-count", "moments-negative-r",
         "moments-limit-negative-r", "moments-limit-zero-r", "density-beyond-float-range",
         "moments-limit-beyond-float-range", "sample-negative-seed", "urn-negative-seed",
         "experiment-negative-seed", "stats-blank-comma-field",
         "blocks-leading-comma", "decode-trailing-comma", "count-empty-multiplicities",
         "count-empty-multiplicity", "enumerate-non-integer-multiplicity",
         "count-multiplicities-with-n", "count-multiplicities-with-bundled",
         "enumerate-multiplicities-with-n-and-bundled", "urn-a-zero-k", "urn-b-zero-k",
         "urn-nested-zero-k", "urn-nested-zero-n",
         "density-nan", "density-inf", "verify-zero-k", "verify-zero-n",
         "count-bundled-zero-k", "enumerate-bundled-zero-k", "sample-bundled-zero-k",
         "sample-negative-n-no-words", "sample-zero-k-no-words", "sample-bundled-zero-n-no-words",
         "count-bundled-zero-n", "count-order-zero-zero-k", "count-order-zero-negative-k",
         "enumerate-order-zero-zero-k", "count-negative-n", "enumerate-negative-cap",
         "covariance-non-integer-s", "experiment-empty-statistics",
         "experiment-repeated-statistic",
         *(f"experiment-{g}-huge-k" for g in cli.GENERATORS if g != "stick_breaking"),
         "urn-a-huge-k", "urn-b-huge-k", "urn-c-huge-k", "urn-nested-huge-k",
         "covariance-urn-a-huge-q"],
)
def test_out_of_range_argument_is_one_error_line(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


_HUGE_LABEL = "labels must be at most the word length 2, got 99999999999"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("decode", "--bijection", "ary", "1,99999999999"), _HUGE_LABEL),
        (("decode", "--bijection", "bundled", "1,99999999999"), _HUGE_LABEL),
        (("stats", "1,99999999999"), _HUGE_LABEL),
        (("blocks", "1 99999999999"), _HUGE_LABEL),
        (("decode", "--bijection", "ary", "1,+1"), "invalid literal for int() with base 10: '+1'"),
        (("decode", "--bijection", "ary", "1,1_0"),
         "invalid literal for int() with base 10: '1_0'"),
        (("decode", "--bijection", "ary", "\u0661\u0661"),
         "cannot parse permutation '\u0661\u0661'"),
        (("stats", "\u0661\u0661"), "cannot parse permutation '\u0661\u0661'"),
        (("count", "--multiplicities", "2,+1"),
         "--multiplicities must be comma separated integers, got '2,+1'"),
        (("count", "--multiplicities", "\u0662,1"),
         "--multiplicities must be comma separated integers, got '\u0662,1'"),
        (("covariance", "--which", "fixed", "--s", "1,1_0"),
         "--s must be comma separated integers, got '1,1_0'"),
    ],
    ids=["decode-ary-huge-label", "decode-bundled-huge-label", "stats-huge-label",
         "blocks-huge-label", "decode-plus-sign", "decode-underscore", "decode-arabic-indic",
         "stats-arabic-indic", "count-plus-sign", "count-arabic-indic", "covariance-underscore"],
)
def test_word_and_integer_fields_read_plain_numbers_only(capsys, argv, message):
    """A field is an optional "-" and ASCII digits, and a label above the
    word length is refused before any table is built: one error line."""
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_integer_lists_keep_spaces_around_fields(capsys):
    assert run_json(capsys, "count", "--multiplicities", "2, 1")["count"] == run_json(
        capsys, "count", "--multiplicities", "2,1")["count"]


def test_sample_word_does_not_depend_on_count(capsys):
    """Word r comes from its own stream, so a longer run only appends words."""
    for bundled in ((), ("--bundled",)):
        base = ("sample", "--n", "9", "--k", "2", "--seed", "5", *bundled)
        runs = [run_json(capsys, *base, "--count", str(c))["words"] for c in (1, 3, 8)]
        assert len(runs[-1]) == 8 and len(set(runs[-1])) > 1
        for words in runs:
            assert words == runs[-1][: len(words)]


@pytest.mark.parametrize(
    "argv,sha1",
    [
        (("sample", "--n", "5", "--k", "2", "--seed", "17", "--count", "40"),
         "2cfa5836fc1683c7532b41e0c1960c7ec1d95782"),
        (("--csv", "sample", "--n", "5", "--k", "2", "--seed", "17", "--count", "40"),
         "4a0b281fc7c25b366cd86aa5c9fffd2c70c0ada4"),
        (("sample", "--n", "12", "--k", "1", "--seed", "3", "--count", "7", "--bundled"),
         "27d75713505bc8622e6cdd78f2d8b487ccd3d8df"),
        (("--csv", "sample", "--n", "12", "--k", "1", "--seed", "3", "--count", "7", "--bundled"),
         "1cfb0a47ebc5adf582bd9a70537ee50adc20d72d"),
        (("sample", "--n", "3", "--k", "2", "--seed", "1", "--count", "5000"),
         "2984fc74f19ad8954647a4f5b2f43307c964bf1f"),
        (("--csv", "sample", "--n", "10", "--k", "2", "--seed", "8", "--count", "4097",
          "--bundled"), "25f12eb70b3b8f92f30ba63539bd8ea3e4fa4278"),
        (("sample", "--n", "4", "--k", "3", "--seed", "5", "--count", "0"),
         "7a24df025074136da670a21cd7aef9052939e0d1"),
        (("--csv", "sample", "--n", "4", "--k", "3", "--seed", "5", "--count", "0"),
         "f5f166afc2ee9c9ed13de221d98bc078c762c30c"),
        (("--csv", "sample", "--n", "0", "--k", "2", "--seed", "5", "--count", "2"),
         "66a4070a5f237f5db21b67cd14eddc53e3afb38a"),
    ],
    ids=["k2", "csv-k2", "bundled-order-12", "csv-bundled-order-12", "5000-words",
         "csv-bundled-4097-words", "no-words", "csv-no-words", "csv-order-zero"],
)
def test_sample_stdout_frozen(capsys, argv, sha1):
    """Byte-identical to the output of the list-building writer."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(10, 500), st.integers(1, 3), st.integers(0, 2**32 - 1)),
                min_size=1, max_size=4))
@example([(300, 2, 1), (12, 1, 2), (300, 3, 3)])
def test_word_text_joins_the_labels(draws):
    """The label table gives each symbol's text, also when the order changes
    from one word to the next."""
    for order, k, seed in draws:
        perm = perms.sample_k_stirling(order, k, seed)
        assert cli._word_text(perm) == ",".join(map(str, perm.word))


def test_console_entry_point_exits_quietly_on_a_closed_pipe():
    """The reader closing stdout early (``enumerate ... | head -1``) is exit
    1 and nothing on stderr, not a traceback."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stirlperm.cli", "enumerate", "--n", "7", "--k", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")


def test_sample_order_zero_is_one_empty_word(capsys):
    payload = run_json(capsys, "sample", "--n", "0", "--seed", "1")
    assert payload["words"] == [""]


def test_sample_writes_nothing_when_its_first_draw_fails(capsys):
    """n and k pass the family's rule, but no word of k = 10^19 copies
    fits: the first draw fails with one error line naming the word's length,
    before anything is written."""
    code, out, err = run_cli(capsys, "sample", "--n", "3", "--k", str(10**19), "--seed", "1")
    assert (code, out) == (1, "")
    assert err == f"error: a word of length {3 * 10**19} is too long to build\n"


@contextlib.contextmanager
def counted_calls(function):
    """The calls of the Python function ``function`` made in this thread
    while the block runs, however the caller reached it."""
    code, calls, previous = function.__code__, [], sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def test_sample_checks_its_multiset_once(capsys):
    """A run of words of one multiset builds its gap bounds and runs once,
    not once per word."""
    for bundled in ((), ("--bundled",)):
        with counted_calls(perms.check_multiplicities) as calls:
            words = run_json(capsys, "sample", "--n", "7", "--k", "2", "--seed", "3",
                             "--count", "50", *bundled)["words"]
        assert len(words) == 50
        assert len(calls) <= 1, len(calls)


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


def test_seq_decode_of_a_binary_tree(capsys, tmp_path):
    """A binary tree is the image of a permutation, a sequence of 0-bundle
    nodes."""
    tree = {"arity": 2, "parent": [0, 1, 1], "slot": [0, 1, 2]}
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(tree))
    seq = run_json(capsys, "decode", "--bijection", "seq", "--input", str(tree_file))
    assert seq["sequence"] == [{"label": v, "bundles": []} for v in (2, 1, 3)]
    seq_file = tmp_path / "seq.json"
    seq_file.write_text(json.dumps(seq["sequence"]))
    back = run_json(capsys, "encode", "--bijection", "seq", "--input", str(seq_file))
    assert back["tree"] == tree


def test_seq_encode_builds_no_node_objects(capsys, tmp_path, monkeypatch):
    """``encode --bijection seq`` reads its JSON dicts in place."""
    tree = run_json(capsys, "decode", "--bijection", "ary", "4554331221")["tree"]
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(tree))
    seq = run_json(capsys, "decode", "--bijection", "seq", "--input", str(tree_file))
    seq_file = tmp_path / "seq.json"
    seq_file.write_text(json.dumps(seq["sequence"]))

    def refuse(self, *args, **kwargs):
        raise AssertionError("a BundledNode was built")

    monkeypatch.setattr(bijections.BundledNode, "__init__", refuse)
    back = run_json(capsys, "encode", "--bijection", "seq", "--input", str(seq_file))
    assert back["tree"] == tree


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_nested_past_the_json_reader_is_one_error_line(
    capsys, monkeypatch, tmp_path, source
):
    """A chain of 400 tree levels is 1200 JSON levels, past the recursion
    limit of json's reader."""
    levels = 400
    text = (
        "["
        + "".join('{"label": %d, "bundles": [[' % v for v in range(1, levels))
        + '{"label": %d, "bundles": [[]]}' % levels
        + "]]}" * (levels - 1)
        + "]"
    )
    path = tmp_path / "deep.json"
    path.write_text(text)
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        path = "-"
    code, out, err = run_cli(capsys, "encode", "--bijection", "seq", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --input {path} ") and err.count("\n") == 1


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


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []

    def counted():
        built.append(None)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        run_json(capsys, "count", "--n", "4")
        run_json(capsys, "stats", "1221")
        assert run_cli(capsys, "count", "--no-such-option")[0] == cli.EXIT_USAGE
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_appended_options_do_not_pile_up_across_calls(capsys):
    """Two ``density --x`` calls in a row print what each prints alone."""
    calls = [("density", "--x", "1.0"), ("density", "--x", "2.0", "--x", "0.5")]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    in_a_row = [run_cli(capsys, *argv) for argv in calls]
    assert in_a_row == alone
    assert [len(json.loads(out)["density"]) for _, out, _ in in_a_row] == [1, 2]


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


# sha256 of the stdout of verify, as JSON and as --csv, frozen when every
# tree was built through its validating constructor and statistics were
# read one bundles_of tuple at a time
FROZEN_VERIFY = {
    ("--n", "1", "--k", "1"): (
        "914f7ab44ea4488f797a560f8373ca7f2077f2102530cf5145ef4751a12a0f22",
        "697fc8add4eb828dbed736bc5a03a13db178b7141d417194727488ecab720f57"),
    ("--n", "4", "--k", "2"): (
        "171f50b44fb8a1a65d971717f9ddb2a98d4063994bcb388ce95c7746a5506806",
        "04db76eb7fe00c2d1b1b608147e7f0a8cc14619e083b79be8526c5b5423b57fd"),
    ("--n", "5", "--k", "2"): (
        "394c5bbdd8d7eb21ae530432670b197126a124b7dcb66f667020b0d973c2553a",
        "1d6e899fc5757874844b9bdbe488cd350c53166d2cd6ce55c1fb01d965b03489"),
    ("--n", "4", "--k", "3"): (
        "32c485aaefcfdc31c7c4ef661dc887f7e0f6ea991474a5a9b45dfaf7e5bb034f",
        "10ce5a85e536c927508f1b33c67230bb07b00a74d7175656bf42ae86f03331ca"),
    ("--n", "3", "--k", "4"): (
        "6343a6a5e553167542e0a273b47c769dbf3fba1eef3b962c19a8793651d46122",
        "1948cf80aca5227ffa8115a2a80dd9b1cacdecef26784f0d8ca4beff3c94851c"),
    ("--n", "5", "--k", "1"): (
        "f19d91e68c64332e45a1969e1484ae2b8218bda2d3bc7724e43e90d426bbe01b",
        "5c46fef01bbc99b116108f214c5d604446a9bffef5ad878c6f1364aca94f2c87"),
    ("--n", "4", "--k", "2", "--no-bundled"): (
        "1de64284cd375165098cddc963897e1cc60ccabf529e8fcad841ae9cdd04f273",
        "6681ad41301d794504022c2b3514efbf60d188874b1a4e1ac876d176ca6ecb13"),
}


@pytest.mark.parametrize("args", sorted(FROZEN_VERIFY), ids=" ".join)
def test_verify_stdout_frozen(capsys, args):
    for prefix, sha256 in zip(((), ("--csv",)), FROZEN_VERIFY[args]):
        code, out, err = run_cli(capsys, *prefix, "verify", *args)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == sha256, prefix


def test_experiment_with_comparison(capsys):
    payload = run_json(
        capsys, "experiment", "--generator", "urn_b", "--n", "20", "--k", "2",
        "--replicates", "2048", "--seed", "6", "--compare", "urn_b_blocks",
    )
    assert payload["comparison"]["ok"] is True
    assert payload["spec"]["replicates"] == 2048


def test_urn_b_comparison_at_k_one_and_large_order(capsys):
    """At k = 1 the block count is n with variance exactly 0, which the
    theory must state exactly, or the zero sample variance fails it."""
    payload = run_json(
        capsys, "experiment", "--generator", "urn_b", "--n", "100000", "--k", "1",
        "--replicates", "8", "--seed", "2", "--compare", "urn_b_blocks",
    )
    assert payload["comparison"]["ok"] is True
    assert payload["means"] == [0.0, 100001.0]


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
        # 9000 steps cross draw blocks of 512 steps; these bytes were frozen
        # when the engine drew blocks of 8192 steps
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


@pytest.mark.parametrize(
    "argv,sha1",
    [
        (("experiment", "--generator", "urn_b", "--n", "60", "--k", "2", "--replicates", "1500",
          "--seed", "21"), "84a06492b264e164d76f18f982a65709137a2ae3"),
        (("--csv", "experiment", "--generator", "urn_b", "--n", "200", "--k", "3",
          "--replicates", "300", "--seed", "22"), "a9d787672aa482259d605a2bf25efff39163d305"),
        (("experiment", "--generator", "urn_c_block", "--n", "60", "--k", "2", "--replicates",
          "1500", "--seed", "23"), "008f8fd489620f1324e57cc2afc957a406ec577c"),
        (("--csv", "experiment", "--generator", "urn_c_block", "--n", "200", "--k", "3",
          "--replicates", "300", "--seed", "24"), "4f48ede1667d76b028e7b539143c339420aa0f92"),
        (("experiment", "--generator", "block_sizes", "--n", "60", "--k", "2", "--replicates",
          "1500", "--seed", "25"), "afe0f06e1e7c089e413df99db221399e127c41e2"),
        (("--csv", "experiment", "--generator", "block_sizes", "--n", "200", "--k", "3",
          "--replicates", "300", "--seed", "26"), "6fd4a0e8eb12d6422cfdb130611bf03dbaddb90e"),
        (("experiment", "--generator", "stick_breaking", "--n", "1", "--k", "2", "--replicates",
          "1500", "--seed", "27"), "d610b19d9ffc468176535ae4f06ae575fefe0438"),
        (("--csv", "experiment", "--generator", "stick_breaking", "--n", "1", "--k", "3",
          "--replicates", "300", "--seed", "28"), "c8561ce75f3db8a980af3385838a209d06acadb6"),
        (("experiment", "--generator", "urn_b", "--n", "100", "--k", "2", "--replicates", "2000",
          "--seed", "29", "--compare", "urn_b_blocks"), "f690dd8cd0cdc89917755c4eb144fac0b5de4bad"),
        (("experiment", "--generator", "urn_c_block", "--n", "100", "--k", "2", "--replicates",
          "2000", "--seed", "30", "--compare", "first_block_mean"),
         "a338b77765a1c5f531c8268e16b5dd39912fa87d"),
        (("experiment", "--generator", "stick_breaking", "--n", "1", "--k", "2", "--replicates",
          "2000", "--seed", "31", "--compare", "stick_breaking_mean"),
         "fd82017d5975f4f8ccadaebf368dc63cac7b6ed3"),
        (("experiment", "--generator", "urn_c_block", "--n", "80", "--k", "2", "--replicates",
          "1500", "--seed", "32", "--statistics", "firstFraction,white"),
         "0b9ac963d31a85848e09adc16b74b0b0077a8bbe"),
    ],
    ids=["urn_b", "csv-urn_b", "urn_c_block", "csv-urn_c_block", "block_sizes",
         "csv-block_sizes", "stick_breaking", "csv-stick_breaking", "urn_b-compare",
         "urn_c_block-compare", "stick_breaking-compare", "urn_c_block-statistics"],
)
def test_block_law_experiment_stdout_frozen(capsys, argv, sha1):
    """The generators that read the nested Polya urn levels, and the stick
    breaking limit, keep their bytes: JSON, CSV, comparison and a reordered
    column selection."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize(
    "generator,n,sha1",
    [
        ("urn_b", "40", "a2c141ea3488eebe27a547f49adc257fec6ebcb5"),
        ("urn_c_block", "40", "692246700de2dcabce868f848c7ac4fb0b0ce7d0"),
        ("block_sizes", "40", "7b3dcca6b10e3708120768538d0e76ec169e6b00"),
        ("stick_breaking", "1", "d67c776aacacfc778664d557ce859163699e4557"),
    ],
    ids=["urn_b", "urn_c_block", "block_sizes", "stick_breaking"],
)
def test_block_law_experiment_threads_frozen(capsys, generator, n, sha1, threads):
    """Six chunks, the last of 17 rows, give the same bytes on one thread
    and on three."""
    code, out, _ = run_cli(
        capsys, "experiment", "--generator", generator, "--n", n, "--k", "2",
        "--replicates", str(5 * 1024 + 17), "--seed", "33", "--threads", threads,
    )
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


def test_experiment_builds_its_urn_table_once(capsys):
    """The urn of an urn-table generator is built at most once per process
    and k: its columns, its spec and its kernel share one table."""
    from stirlperm import urns

    for _ in range(2):
        with counted_calls(urns.ary_tree_urn) as calls:
            run_json(capsys, "experiment", "--generator", "ary_tree", "--n", "20", "--k", "5",
                     "--replicates", "64", "--seed", "4", "--threads", "1")
        assert len(calls) <= 1, len(calls)


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


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------


class _Float(float):
    def __repr__(self) -> str:  # json prints float.__repr__, not this
        return "_Float()"


class _Int(int):
    def __repr__(self) -> str:  # json prints int.__repr__, not this
        return "_Int()"


def _written(value) -> str:
    """The writer's text without its closing line break."""
    out = io.StringIO()
    cli._write_json(value, out)
    text = out.getvalue()
    assert text.endswith("\n")
    return text[:-1]


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers().map(_Int), _FLOATS,
    _FLOATS.map(_Float), st.text(),  # text draws non-ASCII and control characters
)
_KEYS = st.one_of(
    st.text(), st.integers(), st.integers().map(_Int), _FLOATS, st.booleans(), st.none()
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=6),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.lists(_FLOATS, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example([math.nan, math.inf, -math.inf, _Float(-math.inf), -0.0, 1e300, [True, 1], _Int(7)])
@example({2: 1, True: [1, True], None: (), -1.5: {}, _Int(3): [], "\u00e9\x00": "\u2603\n"})
def test_writer_is_json_dumps_with_indent_two(value):
    assert _written(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: iter([]),
        lambda: {"words": iter(["1122", "1221"]), "count": 2},
        lambda: {"a": iter(range(10000)), "b": [iter([])]},
        lambda: [iter([{"x": 1}, [], 2.5, None] * 2500), iter(["s"] * 4097)],
    ],
    ids=["empty", "words", "several-batches", "mixed-batches"],
)
def test_writer_streams_an_iterator_as_a_list(make):
    """An iterator anywhere in the value is written as the list of its items,
    in batches of 4096, also when a batch mixes types."""

    def listed(v):
        if isinstance(v, dict):
            return {key: listed(item) for key, item in v.items()}
        if isinstance(v, (list, Iterator)):
            return [listed(item) for item in v]
        return v

    assert _written(make()) == json.dumps(listed(make()), indent=2)


def test_writer_writes_any_depth():
    """json.dumps recurses once per level and fails at about 1000.  The text
    of a D-deep list is about 2 D^2 characters, so the test stops at three
    times the recursion limit (18 MB of text)."""
    depth = 3000
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    opening = "".join("[\n" + "  " * (level + 1) for level in range(depth - 1))
    closing = "".join("\n" + "  " * level + "]" for level in reversed(range(depth - 1)))
    assert _written(value) == opening + "[]" + closing


def test_writer_peak_memory_at_depth():
    """The writer keeps one line-break-and-indent string per depth; a
    3000-deep list (18 MB of text) peaks below 64 MB traced."""
    value: list = []
    for _ in range(2999):
        value = [value]
    sink = _ByteCount()
    tracemalloc.start()
    try:
        cli._write_json(value, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.written == 2 * 2999 * 3001 + 3
    assert peak < 64 * 2**20


_LOOP: list = [1, 2]
_LOOP.append({"back": _LOOP})


@pytest.mark.parametrize(
    "value,error",
    [
        ([1, {"a": object()}], TypeError),
        ({(1, 2): 3}, TypeError),
        (_LOOP, ValueError),
        ({"count": 10**4300}, ValueError),  # 4301 digits, past the int-to-str limit
    ],
    ids=["object", "tuple-key", "circular", "digit-limit"],
)
def test_writer_raises_as_json_dumps_before_writing(value, error):
    with pytest.raises(error) as expected:
        json.dumps(value, indent=2)
    out = io.StringIO()
    with pytest.raises(error) as raised:
        cli._write_json(value, out)
    assert str(raised.value) == str(expected.value)
    assert out.getvalue() == ""


@pytest.fixture
def codec_inputs(capsys, tmp_path):
    """Input files of every tree codec, from fixed words of order 9."""

    def save(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    ary = run_json(capsys, "decode", "--bijection", "ary", "442775528998136631")["tree"]
    bundled = run_json(capsys, "decode", "--bijection", "bundled", "4444257777555228899998823336666311")
    files = {"ary": save("ary.json", ary), "bundled": save("bundled.json", bundled["tree"])}
    ftree = run_json(capsys, "encode", "--bijection", "ftree", "--input", files["bundled"])
    files["ftree"] = save("ftree.json", ftree["ftree"])
    seq = run_json(capsys, "decode", "--bijection", "seq", "--input", files["ary"])
    files["seq"] = save("seq.json", seq["sequence"])
    return files


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "5", "--k", "2"),
        ("enumerate", "--n", "3", "--k", "2"),
        ("sample", "--n", "8", "--k", "2", "--seed", "1", "--count", "3"),
        ("pmf", "--n", "6", "--k", "2"),
        ("moments", "--n", "6", "--k", "2", "--r", "3"),
        ("moments", "--k", "2", "--r", "3", "--limit"),
        ("density", "--k", "2", "--x", "0.5", "--x", "1.5"),
        ("means", "--n", "6", "--k", "2"),
        ("covariance", "--which", "urnA", "--q", "3"),
        ("covariance", "--which", "fixed", "--s", "1,2"),
        ("covariance", "--which", "tnormal", "--k", "2"),
        ("verify", "--n", "3", "--k", "2"),
        ("stats", "442775528998136631"),
        ("blocks", "442775528998136631"),
        ("urn", "--model", "b", "--k", "2", "--steps", "8", "--seed", "3", "--path"),
        ("urn", "--model", "nested", "--k", "2", "--n", "9", "--seed", "3"),
        ("experiment", "--generator", "urn_a", "--n", "20", "--k", "2", "--replicates", "64",
         "--seed", "3", "--compare", "urn_a_gaussian"),
        ("experiment", "--generator", "stirling_perm", "--n", "12", "--k", "2",
         "--replicates", "64", "--seed", "3"),
        ("decode", "--bijection", "ary", "442775528998136631"),
        ("decode", "--bijection", "bundled", "4444257777555228899998823336666311"),
        ("decode", "--bijection", "seq", "--input", "{ary}"),
        ("decode", "--bijection", "ftree", "--input", "{ftree}"),
        ("encode", "--bijection", "ary", "--input", "{ary}"),
        ("encode", "--bijection", "bundled", "--input", "{bundled}"),
        ("encode", "--bijection", "seq", "--input", "{seq}"),
        ("encode", "--bijection", "ftree", "--input", "{bundled}"),
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith(("-", "{")))[:40],
)
def test_stdout_is_indented_json_dumps(capsys, codec_inputs, argv):
    """Every command prints the bytes of ``json.dumps(payload, indent=2)``."""
    code, out, err = run_cli(capsys, *(a.format(**codec_inputs) for a in argv))
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _tree_file(capsys, tmp_path, bijection, *sample_flags) -> str:
    """A tree of order 500 decoded from a fixed sampled word."""
    word = run_json(capsys, "sample", "--n", "500", "--k", "2", "--seed", "7",
                    *sample_flags)["words"][0]
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(run_json(capsys, "decode", "--bijection", bijection, word)["tree"]))
    return str(path)


def _codec_file(capsys, tmp_path, source) -> str:
    """An input file of order 500 for one codec direction, made from a fixed
    sampled word: its ary or bundled tree, or the sequence or F-tree that the
    seq or ftree codec makes of that tree.  ``plane`` is a plane recursive
    tree (one bundle) with the parent array of a sampled binary tree, and
    ``ftree-one-slot`` is a sampled ternary tree hung from a one-slot root."""
    if source in ("ary", "bundled"):
        return _tree_file(capsys, tmp_path, *{"ary": ("ary",),
                                               "bundled": ("bundled", "--bundled")}[source])
    if source in ("seq", "ftree"):
        bijection, key, tree = {"seq": ("seq", "sequence", "ary"),
                                "ftree": ("ftree", "ftree", "bundled")}[source]
        command = "decode" if source == "seq" else "encode"
        path = _codec_file(capsys, tmp_path, tree)
        payload = run_json(capsys, command, "--bijection", bijection, "--input", path)[key]
    else:
        n, k = (500, 1) if source == "plane" else (499, 2)
        word = run_json(capsys, "sample", "--n", str(n), "--k", str(k), "--seed", "7")["words"][0]
        tree = run_json(capsys, "decode", "--bijection", "ary", word)["tree"]
        if source == "plane":
            seen = [0] * (n + 1)
            positions = [0]
            for p in tree["parent"][1:]:
                seen[p] += 1
                positions.append(seen[p])
            payload = {"bundleCount": 1, "parent": tree["parent"],
                       "bundle": [0] + [1] * (n - 1), "posInBundle": positions}
        else:
            payload = {"rootSlotCount": 1,
                       "parent": [0, 1] + [p + 1 for p in tree["parent"][1:]],
                       "slot": [0, 1] + tree["slot"][1:]}
    path = tmp_path / f"{source}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "argv,source,sha1",
    [
        (("decode", "--bijection", "seq"), "ary",
         "07b2440ab37fbb8b60be3bcc91280ed2a5a2a5e0"),
        (("encode", "--bijection", "ftree"), "bundled",
         "ac29a9bcf8f970fec7d1295154f90834dffdbcc9"),
        (("encode", "--bijection", "seq"), "seq",
         "aa0bdf884816f01b5c5e452ad94f7dbb3dc49a6c"),
        (("decode", "--bijection", "ftree"), "ftree",
         "800c11443aaf6cdfbf6f9fabc8fbff7f5d85d009"),
        (("decode", "--bijection", "ftree"), "ftree-one-slot",
         "de0bff9ca1ff705ca2cd6ee9d4890d3ac8a3de55"),
        (("encode", "--bijection", "ftree"), "plane",
         "b1e39b40af1d875e9d45017f3bc93ed73fd82b14"),
    ],
    ids=["decode-seq", "encode-ftree", "encode-seq", "decode-ftree",
         "decode-ftree-one-slot", "encode-ftree-plane"],
)
def test_codec_stdout_frozen(capsys, tmp_path, argv, source, sha1):
    """Nested codec output keeps the bytes json.dumps(indent=2) gave it.  The
    one-slot cases are the paper's special case: ternary increasing trees
    below a one-slot root <-> plane recursive trees."""
    path = _codec_file(capsys, tmp_path, source)
    code, out, _ = run_cli(capsys, *argv, "--input", path)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_output_never_runs_the_pure_python_encoder(capsys, tmp_path, monkeypatch):
    """json.dumps with an indent runs json's per-level generator encoder;
    nested and streamed output must not go back to it."""
    path = _tree_file(capsys, tmp_path, "ary")

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    seq = run_json(capsys, "decode", "--bijection", "seq", "--input", path)
    assert len(seq["sequence"]) >= 1
    words = run_json(capsys, "enumerate", "--n", "3", "--k", "2")["words"]
    assert len(words) == 15


# ---------------------------------------------------------------------------
# the paused collector
# ---------------------------------------------------------------------------


def _main_quietly(argv) -> None:
    """``main(argv)``, with the ValueError that ``count --n 1600`` raises
    while it writes (its count has more digits than int-to-str allows)."""
    try:
        cli.main(argv)
    except ValueError:
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ("decode", "--bijection", "ary", "442775528998136631"),
        ("decode", "--bijection", "bundled", "4444257777555228899998823336666311"),
        ("decode", "--bijection", "seq", "--input", "{ary}"),
        ("decode", "--bijection", "ftree", "--input", "{ftree}"),
        ("encode", "--bijection", "ary", "--input", "{ary}"),
        ("encode", "--bijection", "bundled", "--input", "{bundled}"),
        ("encode", "--bijection", "seq", "--input", "{seq}"),
        ("encode", "--bijection", "ftree", "--input", "{bundled}"),
        *(("experiment", "--generator", generator, "--n", "12", "--k", "2", "--replicates", "64",
           "--seed", "3", "--threads", "2") for generator in cli.GENERATORS),
        ("experiment", "--generator", "urn_a", "--n", "20", "--k", "2", "--replicates", "64",
         "--seed", "3", "--compare", "urn_a_gaussian"),
        ("count", "--n", "5", "--k", "2"),
        ("enumerate", "--n", "4", "--k", "2"),
        ("sample", "--n", "8", "--k", "2", "--seed", "1", "--count", "5"),
        ("--csv", "enumerate", "--n", "4", "--k", "2"),
        ("--csv", "sample", "--n", "8", "--k", "2", "--seed", "1", "--count", "5"),
        ("--csv", "pmf", "--n", "6", "--k", "2"),
        ("--csv", "decode", "--bijection", "ary", "1221"),
        ("moments", "--n", "6", "--k", "2", "--r", "3"),
        ("density", "--k", "2", "--x", "0.5"),
        ("means", "--n", "6", "--k", "2"),
        ("covariance", "--which", "urnA", "--q", "3"),
        ("verify", "--n", "3", "--k", "2"),
        ("stats", "442775528998136631"),
        ("blocks", "442775528998136631"),
        ("urn", "--model", "b", "--k", "2", "--steps", "8", "--seed", "3", "--path"),
        ("urn", "--model", "nested", "--k", "2", "--n", "9", "--seed", "3"),
        ("stats", "1,,2"),
        ("no-such-command",),
        ("count", "--n", "1600", "--k", "2"),
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith("{"))[:60],
)
def test_commands_leave_no_cyclic_garbage(capsys, codec_inputs, argv):
    """``main`` pauses the collector because a command creates no reference
    cycles: once a first run has done the imports and filled the caches, the
    collector finds nothing that a second run left behind."""
    argv = [a.format(**codec_inputs) for a in argv]
    _main_quietly(argv)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _main_quietly(argv)
        capsys.readouterr()
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv,outcome",
    [
        (("count", "--n", "4", "--k", "2"), 0),
        (("stats", "1,,2"), 1),
        (("no-such-command",), 64),
        # to_json_dict recurses once per node of a chain in the last slot
        (("decode", "--bijection", "seq", "--input", "{chain}"), RecursionError),
    ],
    ids=["return", "error-line", "usage", "raises"],
)
def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path, argv, outcome, collecting):
    chain = tmp_path / "chain.json"
    n = 1000
    chain.write_text(json.dumps({"arity": 3, "parent": list(range(n)), "slot": [0] + [2] * (n - 1)}))
    argv = [a.format(chain=chain) for a in argv]
    previous = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert cli.main(argv) == outcome
        else:
            with pytest.raises(outcome):
                cli.main(argv)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if previous else gc.disable)()
    capsys.readouterr()
