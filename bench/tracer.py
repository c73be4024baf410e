"""Spans around calls into stirlperm, installed from the benchmark's own code.

:class:`Tracer` replaces module attributes (and the few class attributes
that every construction goes through) with timing wrappers, and puts the
originals back on :meth:`Tracer.uninstall`.  A name bound into another
module with ``from ... import`` is the same function object, so every
binding of a traced function is replaced, not only the defining one.

Each call opens a span with a parent (the innermost open span of its
thread; for a worker thread of ``run_experiment``'s pool, the innermost
open span of the main thread).  A span's self time is its duration minus
the part of it covered by its children; children in other threads can
overlap, so their intervals are merged before they are subtracted.

Spans are folded into per-group totals as they close instead of being
kept: an ``enumerate --n 7`` alone opens about 270 000 of them.
``calls`` and ``busy`` count only the outermost span of a group, so a
group that calls itself (``GenStirlingPerm.__post_init__`` calling
``validate_word``) is not counted twice; ``busy`` adds up over threads.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import Counter
from time import perf_counter

# group -> traced callables, as "module:attribute" or "module:Class.attribute"
TRACE_POINTS: dict[str, tuple[str, ...]] = {
    "rng.streams": ("_rng:replicate_stream", "_rng:chunk_stream"),
    "harness.run_experiment": ("harness:run_experiment",),
    "harness.compare": ("harness:compare",),
    "harness.jackknife_covariance": ("harness:jackknife_covariance",),
    "perms.validate": (
        "perms:validate_word",
        "perms:GenStirlingPerm.__post_init__",
        "perms:GenStirlingPerm.parse",
        "perms:GenStirlingPerm.from_word",
    ),
    "perms.grower": (
        "perms:k_stirling_grower",
        "perms:bundled_grower",
        "perms:PermutationGrower.grow_to",
        "perms:PermutationGrower.permutation",
    ),
    "perms.sample": ("perms:sample_k_stirling", "perms:sample_bundled", "perms:sample_generalized"),
    "perms.stat_profile": ("perms:stat_profile",),
    "perms.block_decomposition": ("perms:block_decomposition", "perms:block_spans"),
    "perms.enumerate": (
        "perms:enumerate_generalized",
        "perms:enumerate_k_stirling",
        "perms:enumerate_bundled",
    ),
    "perms.count": ("perms:count_generalized", "perms:count_k_stirling", "perms:count_bundled"),
    "trees.grow_ary_tree": ("trees:grow_ary_tree",),
    "trees.grow_plane_tree": ("trees:grow_plane_tree",),
    "trees.ary_stats": ("trees:ary_stats",),
    "trees.tree_validate": (
        "trees:AryIncreasingTree.__post_init__",
        "trees:AryIncreasingTree.from_json_dict",
        "trees:BundledIncreasingTree.__post_init__",
        "trees:BundledIncreasingTree.from_json_dict",
    ),
    "trees.enumerate": ("trees:enumerate_ary_trees", "trees:enumerate_bundled_trees"),
    **{
        f"bijections.{name}": (f"bijections:{name}",)
        for name in (
            "decode_ary_tree",
            "encode_ary_tree",
            "decode_bundled_tree",
            "encode_bundled_tree",
            "ary_tree_to_seq",
            "seq_to_ary_tree",
            "f_tree_from_bundled",
            "bundled_from_f_tree",
        )
    },
    "bijections.verify_stat_transfer": ("bijections:verify_stat_transfer",),
    "urns.sample_block_size_stats": ("urns:sample_block_size_stats",),
    "urns.simulate": ("urns:simulate",),
    "urns.nested_block_urns": ("urns:nested_block_urns",),
    "urns.urn_a_covariance": ("urns:urn_a_covariance",),
    "distributions.block_count_pmf": ("distributions:block_count_pmf",),
    "distributions.block_binomial_moment": ("distributions:block_binomial_moment",),
    "distributions.mean_profile": ("distributions:mean_profile",),
    "distributions.zeta_density": ("distributions:zeta_density",),
    "distributions.tnormal_covariance": ("distributions:tnormal_covariance",),
}

# group whose raised exceptions are counted as "<group>.failed"
COUNT_FAILURES = tuple(g for g in TRACE_POINTS if g.startswith("bijections.")
                       and g != "bijections.verify_stat_transfer")

# group -> (counter, amount taken from the call's positional arguments)
COUNTERS = {
    "harness.run_experiment": ("harness.replicates", lambda args: args[0].replicates),
    "trees.grow_ary_tree": ("trees.nodes_grown", lambda args: args[1]),
    "trees.grow_plane_tree": ("trees.nodes_grown", lambda args: args[1]),
}


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Span:
    __slots__ = ("group", "start", "parent", "thread", "outermost", "covered", "foreign")

    def __init__(self, group, start, parent, thread, outermost):
        self.group = group
        self.start = start
        self.parent = parent
        self.thread = thread
        self.outermost = outermost
        self.covered = 0.0  # same-thread children never overlap: a plain sum
        self.foreign = []  # intervals of children in other threads


class Tracer:
    """Per-group ``calls``, ``busy_s`` and ``self_s``, plus named counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()
        self.enabled = False
        self._stacks: dict[int, list[_Span]] = {}
        self._open: dict[int, Counter] = {}
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        # pool workers of run_experiment close spans concurrently
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def open(self, group: str) -> _Span:
        thread = threading.get_ident()
        stack = self._stacks.get(thread)
        if stack is None:
            stack = self._stacks[thread] = []
            self._open[thread] = Counter()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and thread != self._main else None
        depth = self._open[thread]
        span = _Span(group, 0.0, parent, thread, depth[group] == 0)
        depth[group] += 1
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: _Span) -> None:
        end = perf_counter()
        self._stacks[span.thread].pop()
        self._open[span.thread][span.group] -= 1
        duration = end - span.start
        covered = span.covered
        if span.foreign:
            covered += _merged_length(span.foreign)
        with self._lock:
            self.self_time[span.group] += duration - covered
            if span.outermost:
                self.calls[span.group] += 1
                self.busy[span.group] += duration
        parent = span.parent
        if parent is not None:
            if parent.thread == span.thread:
                parent.covered += duration
            else:
                parent.foreign.append((span.start, end))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, group: str):
        counter = COUNTERS.get(group)
        failures = f"{group}.failed" if group in COUNT_FAILURES else None
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so that only the generator's own work
            # is timed and not the consumer's between items
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        yield from inner
                        return
                    span = tracer.open(group)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    tracer.count(f"{group}.items")
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if counter is not None:
                tracer.count(counter[0], counter[1](args))
            span = tracer.open(group)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if failures is not None:
                    tracer.count(failures)
                raise
            finally:
                tracer.close(span)

        return wrapper

    def install(self, package) -> None:
        """Wrap every trace point of ``package`` (the imported ``stirlperm``)."""
        modules = [package] + [
            getattr(package, name)
            for name in ("_rng", "perms", "trees", "bijections", "urns", "distributions",
                         "harness", "cli")
        ]
        for group, points in TRACE_POINTS.items():
            for point in points:
                module_name, _, attr = point.partition(":")
                owner = getattr(package, module_name)
                if "." in attr:
                    cls_name, _, method = attr.partition(".")
                    self._wrap_method(getattr(owner, cls_name), method, group)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(original, group)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, name, value))
                            setattr(module, name, wrapped)
        theories = package.harness.THEORIES
        for name, builder in list(theories.items()):
            self._restore.append((theories, name, builder))
            theories[name] = self._wrap(builder, "harness.theory")
        self.enabled = True

    def _wrap_method(self, cls, method: str, group: str) -> None:
        raw = cls.__dict__[method]
        self._restore.append((cls, method, raw))
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self._wrap(raw.__func__, group)))
        else:
            setattr(cls, method, self._wrap(raw, group))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, name, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._restore.clear()
