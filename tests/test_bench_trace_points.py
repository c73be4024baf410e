"""The benchmark's trace points name functions that exist, and the harness
attributes of its provenance line resolve.

``bench/tracer.py`` wraps every entry of its ``TRACE_POINTS`` table when it
is installed, so a traced name that is renamed or deleted in the package
fails here instead of in a benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

import stirlperm
import stirlperm.cli  # noqa: F401  (the tracer also wraps names bound in cli)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = ("_rng", "perms", "trees", "bijections", "urns", "distributions", "harness", "cli")


def test_tracer_installs_and_uninstalls_every_trace_point():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = {name: dict(vars(getattr(stirlperm, name))) for name in MODULES}
    tracer = tracer_module.Tracer()
    try:
        tracer.install(stirlperm)
        wrapped = stirlperm.bijections.seq_to_ary_tree
    finally:
        tracer.uninstall()
    assert wrapped is not before["bijections"]["seq_to_ary_tree"]
    for name in MODULES:
        after = vars(getattr(stirlperm, name))
        assert all(after[key] is value for key, value in before[name].items())


def test_harness_attributes_read_by_the_benchmark_resolve():
    """``bench/run.py`` reads these for its provenance line."""
    harness = stirlperm.harness
    assert isinstance(harness.as_generator(0), np.random.Generator)
    assert isinstance(harness.REPLICATE_CHUNK, int) and isinstance(harness.STEP_CHUNK, int)
