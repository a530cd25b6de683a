"""Outside-in layer tracer for the ``lepage`` package.

The tracer wraps module functions and methods at each layer boundary from
outside the package: nothing under ``src/`` knows about it.  A function
that other modules import by name (``from .random_inputs import values_at``)
is patched in every ``lepage`` module that holds it, so a call through any
of those names is seen.  A boundary that cannot be found is reported by
name in :attr:`Tracer.missing` and its metrics read ``-1``, so a rename in
the package shows up instead of silently reading 0 s.

Self time is a span's duration minus the duration of the spans it
encloses, kept on a per-thread stack because chunks run on pool threads.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from collections import defaultdict

# metric -> boundaries ("module:qualname") whose self time it sums
SPANS = {
    "random_inputs.gamma_s": ["lepage.random_inputs:_positive_exponentials"],
    "random_inputs.epsilon_s": ["lepage.random_inputs:EpsilonSpec.sample"],
    "random_inputs.y_s": [
        "lepage.random_inputs:_UnitJumpSampler.take",
        "lepage.random_inputs:_WeightedJumpsSampler.take",
        "lepage.random_inputs:_PoissonSampler.take",
        "lepage.random_inputs:_UserSampler.take",
    ],
    "series.assemble_s": [
        "lepage.series:_chunk_coeffs",
        "lepage.series:_combine_term_events",
    ],
    "series.reduce_s": [
        "lepage.series:sample_marginals",
        "lepage.series:sample_path_stats",
        "lepage.series:sample_weighted_increments",
    ],
    "random_inputs.reduce_s": [
        "lepage.random_inputs:values_at",
        "lepage.random_inputs:interval_increments",
        "lepage.random_inputs:term_sup_norms",
        "lepage.random_inputs:term_value_extremes",
    ],
    "diagnostics.s": [
        "lepage.diagnostics:tightness_functional",
        "lepage.diagnostics:partition_sum",
        "lepage.diagnostics:default_envelopes",
    ],
    "stable_checks.s": [
        "lepage.stable_checks:sum_stability_test",
        "lepage.stable_checks:spectral_estimate",
        "lepage.stable_checks:regular_variation_table",
        "lepage.stable_checks:tail_quantile_bn",
    ],
    "cli.output_s": [
        "lepage.cli:_Writer.emit",
        "lepage.cli:_Writer.emit_text",
        "lepage.cli:_Writer.emit_json",
        "lepage.cli:_Writer.manifest",
    ],
    "paths.serialize_s": [
        "lepage.paths:path_to_csv",
        "lepage.paths:path_to_json",
    ],
}

DRAW_PARTS = ("random_inputs.gamma_s", "random_inputs.epsilon_s", "random_inputs.y_s")
GENERATOR = "lepage.rng:RngStream.generator"
CHUNK_RUNNER = "lepage.parallel:chunk_runner"
PARALLEL = ("parallel.chunks", "parallel.busy_s", "parallel.efficiency",
            "parallel.chunk_max_over_mean")


def _resolve(boundary: str):
    """(owner, attribute name, original) for ``module:qualname``, or None."""
    module_name, qualname = boundary.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Patches the layer boundaries on :meth:`install`; undone by :meth:`remove`."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.draw_events = 0
        self.generators = 0
        self.maps: list[list[float]] = []  # chunk durations of each chunk map
        self.capacity_s = 0.0  # threads x wall time of every chunk map
        self.missing: list[str] = []
        self._missing_metrics: set[str] = set()

    # -- patching ---------------------------------------------------------

    def _patch(self, boundary: str, make_wrapper, metric: str) -> None:
        found = _resolve(boundary)
        if found is None:
            self.missing.append(boundary)
            self._missing_metrics.add(metric)
            return
        owner, name, original = found
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            places = [(owner, name)]
        else:
            # every lepage module that imported the function by name holds it too
            places = [(mod, attr) for mod_name, mod in list(sys.modules.items())
                      if mod_name.split(".")[0] == "lepage" and mod is not None
                      for attr, value in vars(mod).items() if value is original]
        for place, attr in places:
            self._undo.append((place, attr, original))
            setattr(place, attr, wrapper)

    def install(self) -> "Tracer":
        for metric, boundaries in SPANS.items():
            for boundary in boundaries:
                self._patch(boundary, lambda fn, m=metric: self._span(m, fn), metric)
        self._patch(GENERATOR, self._count_generator, "rng.generators")
        self._patch(CHUNK_RUNNER, self._chunk_runner, "parallel.chunks")
        return self

    def remove(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, metric: str, fn):
        counts_events = metric == "random_inputs.y_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with self._lock:
                    self.self_s[metric] += dur - children[0]
                    self.calls[metric] += 1
            if counts_events:
                with self._lock:
                    self.draw_events += int(result.times.size)
            return result

        return wrapper

    def _count_generator(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.generators += 1
            return fn(*args, **kwargs)

        return wrapper

    def _chunk_runner(self, fn):
        @functools.wraps(fn)
        def traced_chunk_runner(threads):
            run = fn(threads)
            if run is None:
                return None

            def traced_run(chunk_fn, ranges):
                durations = []

                def timed_chunk(c, m):
                    start = time.perf_counter()
                    try:
                        return chunk_fn(c, m)
                    finally:
                        dur = time.perf_counter() - start
                        with self._lock:
                            durations.append(dur)

                start = time.perf_counter()
                try:
                    return run(timed_chunk, ranges)
                finally:
                    wall = time.perf_counter() - start
                    with self._lock:
                        self.maps.append(durations)
                        self.capacity_s += self.threads * wall

            return traced_run

        return traced_chunk_runner

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures; a metric whose boundary is missing reads -1."""
        out = {m: self.self_s.get(m, 0.0) for m in SPANS}
        out["random_inputs.draw_s"] = sum(out[m] for m in DRAW_PARTS)
        out["random_inputs.draw_events"] = self.draw_events
        out["rng.generators"] = self.generators
        maps = [m for m in self.maps if m]
        busy = sum(sum(m) for m in maps)
        out["parallel.chunks"] = sum(len(m) for m in maps)
        out["parallel.busy_s"] = busy
        out["parallel.efficiency"] = busy / self.capacity_s if self.capacity_s else 0.0
        # imbalance within each chunk map, weighted by the map's busy time
        out["parallel.chunk_max_over_mean"] = (
            sum(max(m) / statistics.fmean(m) * sum(m) for m in maps) / busy if busy else 0.0)
        for metric in self._missing_metrics:
            out[metric] = -1
            if metric in DRAW_PARTS:
                out["random_inputs.draw_s"] = -1
            if metric == "random_inputs.y_s":
                out["random_inputs.draw_events"] = -1
            if metric == "parallel.chunks":
                out.update({m: -1 for m in PARALLEL})
        return out
