"""In-memory span recorder that times calls into each layer of ``repro``.

Nothing here edits ``src/``: :func:`install` replaces layer entry points
(``RandomSource.spawn_many``, ``TopologySpec.build``, ``ResultStore.load``,
``parse_run_request``, ...) with timing wrappers in the namespaces their
callers look them up in.  Each wrapper records a span (layer, name, start,
end, self time) on a per-thread stack, so a layer's *self* time excludes
the time its wrapped callees spent.  Spans stay in memory and are written
out once, when the process ends (:meth:`Recorder.dump`).

The engine's gather/step/deliver split comes from the existing
``repro.telemetry`` phase profiler (``REPRO_PROFILE=1``); counters come
from the ``repro.telemetry`` metrics registry.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: Spans kept per process; beyond this only the totals keep counting.
MAX_SPANS = 200_000


class Recorder:
    """Per-process span store with per-layer self-time and call totals."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn, layer: str, name: str, on_result=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - children[0]
                with recorder._lock:
                    recorder.self_s[layer] += own
                    recorder.calls[layer] += 1
                    if len(recorder.spans) < MAX_SPANS:
                        recorder.spans.append((layer, name, start, end, own))
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, extra: dict | None = None) -> None:
        """Write totals, spans and the program's own telemetry to ``path``."""
        from repro.telemetry import current_profiler, metrics_registry

        profiler = current_profiler()
        payload = {
            "pid": os.getpid(),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
            "registry": metrics_registry().snapshot(),
            "profile": profiler.snapshot() if profiler is not None else {},
        }
        payload.update(extra or {})
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _patch_class(recorder, cls, attr, layer, on_result=None) -> None:
    original = cls.__dict__[attr]
    setattr(
        cls,
        attr,
        recorder.wrap(original, layer, f"{cls.__name__}.{attr}", on_result),
    )


def _patch_function(recorder, module, attr, layer, on_result=None) -> None:
    """Replace ``module.attr`` and every loaded ``repro`` alias of it."""
    original = getattr(module, attr)
    wrapper = recorder.wrap(original, layer, f"{module.__name__}.{attr}", on_result)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not name.startswith("repro"):
            continue
        if loaded.__dict__.get(attr) is original:
            setattr(loaded, attr, wrapper)


def _count_children(recorder, args, kwargs, result) -> None:
    recorder.count("rng.children", len(result) if isinstance(result, list) else 1)


def _count_store_load(recorder, args, kwargs, result) -> None:
    recorder.count("store.hits" if result is not None else "store.misses")


def _count_fabric(recorder, args, kwargs, result) -> None:
    recorder.count("fabric.workers_spawned", result.meta.get("workers_spawned", 0))
    recorder.count("fabric.shards", result.meta.get("shards", 0))


def install(recorder: Recorder, dump_dir: str) -> None:
    """Wrap every layer entry point of ``repro``; workers dump to ``dump_dir``."""
    import repro.cli  # noqa: F401 - loads every module the CLI can reach
    from repro.core import counting
    from repro.fabric import coordinator, worker
    from repro.network import engine, graphs, random_walk, topology
    from repro.quantum import (
        exact_grover,
        grover_dynamics,
        phase_estimation,
        walk_model,
    )
    from repro.runtime.scenario import Scenario, TopologySpec
    from repro.runtime.store import ResultStore
    from repro.serve import api, cache
    from repro.util.rng import RandomSource

    _patch_class(recorder, RandomSource, "spawn", "rng", _count_children)
    _patch_class(recorder, RandomSource, "spawn_many", "rng", _count_children)
    for attr in ("build", "build_cached"):
        _patch_class(recorder, TopologySpec, attr, "topology")
    for attr in (
        "complete", "star", "complete_bipartite", "hypercube", "cycle", "path",
        "wheel", "torus", "random_regular", "erdos_renyi", "diameter_two_gnp",
        "barbell", "lollipop", "as_explicit",
    ):
        _patch_function(recorder, graphs, attr, "topology")
    for cls in vars(topology).values():
        if isinstance(cls, type) and "_build_port_table" in cls.__dict__:
            _patch_class(recorder, cls, "_build_port_table", "topology")
    _patch_class(recorder, Scenario, "run_trial", "protocol")
    _patch_class(recorder, engine.SynchronousEngine, "run", "engine")
    for attr in (
        "run", "endpoint", "choices_for_walk", "follow_choices",
        "distribution_after", "hit_probability",
    ):
        _patch_class(recorder, random_walk.RandomWalk, attr, "walk")
    for attr in (
        "lazy_transition_matrix", "stationary_distribution", "spectral_gap",
        "estimate_mixing_time",
    ):
        _patch_function(recorder, random_walk, attr, "walk")
    for module, attr in (
        (phase_estimation, "qpe_distribution"),
        (phase_estimation, "sample_counting_estimate"),
        (grover_dynamics, "sample_attempt"),
        (walk_model, "sample_walk_attempt"),
        (exact_grover, "exact_star_grover"),
        (counting, "quantum_count"),
        (counting, "approx_count"),
    ):
        _patch_function(recorder, module, attr, "quantum")
    _patch_class(recorder, ResultStore, "load", "store.load", _count_store_load)
    _patch_class(recorder, ResultStore, "save", "store.save")
    _patch_function(
        recorder, coordinator, "run_fabric_sweep", "fabric", _count_fabric
    )
    _patch_function(recorder, api, "parse_run_request", "serve.parse")
    _patch_function(recorder, api, "run_payload", "serve.payload")
    _patch_class(recorder, cache.RunCache, "lookup", "serve.lookup")
    _patch_worker_entry(recorder, worker, dump_dir)


def _patch_worker_entry(recorder, worker, dump_dir) -> None:
    """Forked fabric workers dump their own spans before ``os._exit``."""
    from repro.telemetry import current_profiler, metrics_registry

    original = worker.worker_entry

    @functools.wraps(original)
    def traced_worker_entry(fabric_dir, *args, **kwargs):
        recorder.reset()  # the fork copied the parent's totals
        registry_before = metrics_registry().snapshot()
        profiler = current_profiler()
        profile_before = profiler.snapshot() if profiler is not None else {}
        try:
            original(fabric_dir, *args, **kwargs)
        finally:
            recorder.dump(
                os.path.join(dump_dir, f"worker-{os.getpid()}.json"),
                {
                    "registry": metrics_registry().delta(registry_before),
                    "profile": (
                        profiler.delta(profile_before)
                        if profiler is not None
                        else {}
                    ),
                },
            )

    worker.worker_entry = traced_worker_entry
