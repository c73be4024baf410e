"""The benchmark's trace points name functions that exist, the calls of the
CLI go through them, and the harness attributes of its provenance line
resolve.

``bench/tracer.py`` wraps every entry of its ``TRACE_POINTS`` table when it
is installed, so a traced name that is renamed or deleted in the package
fails here instead of in a benchmark run.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np

import stirlperm
import stirlperm.cli  # noqa: F401  (the tracer also wraps names bound in cli)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = ("_rng", "perms", "trees", "bijections", "urns", "distributions", "harness", "cli")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module.Tracer()


def test_tracer_installs_and_uninstalls_every_trace_point():
    before = {name: dict(vars(getattr(stirlperm, name))) for name in MODULES}
    tracer = _tracer()
    try:
        tracer.install(stirlperm)
        wrapped = stirlperm.bijections.seq_to_ary_tree
    finally:
        tracer.uninstall()
    assert wrapped is not before["bijections"]["seq_to_ary_tree"]
    for name in MODULES:
        after = vars(getattr(stirlperm, name))
        assert all(after[key] is value for key, value in before[name].items())


def test_cli_calls_reach_the_traced_layers():
    """The CLI imports the harness and the replicate streams inside its
    handlers; the calls still go through the installed wrappers, so the
    benchmark's per-layer counts of them do not read 0."""
    tracer = _tracer()
    try:
        tracer.install(stirlperm)
        with contextlib.redirect_stdout(io.StringIO()):
            sampled = stirlperm.cli.main(
                ["sample", "--n", "5", "--k", "2", "--seed", "1", "--count", "3"]
            )
            streams_of_sample = tracer.calls["rng.streams"]
            compared = stirlperm.cli.main(
                ["experiment", "--generator", "urn_a", "--n", "20", "--replicates", "64",
                 "--seed", "2", "--compare", "urn_a_gaussian"]
            )
    finally:
        tracer.uninstall()
    assert (sampled, compared) == (0, 0)
    assert streams_of_sample == 3
    assert tracer.calls["rng.streams"] > streams_of_sample
    assert tracer.calls["harness.run_experiment"] == 1
    assert tracer.calls["harness.theory"] == 1


def test_harness_attributes_read_by_the_benchmark_resolve():
    """``bench/run.py`` reads these for its provenance line."""
    harness = stirlperm.harness
    assert isinstance(harness.as_generator(0), np.random.Generator)
    assert isinstance(harness.REPLICATE_CHUNK, int) and isinstance(harness.STEP_CHUNK, int)
