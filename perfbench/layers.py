"""Outside-in layer tracing: wrap the program's public calls, not its code.

A :class:`Tracer` replaces a public function or method with a timing
wrapper at every place a caller looks the name up: the defining module,
every loaded ``repro`` module that imported the object by name, and the
class for methods.  Nothing in the program changes; :meth:`Tracer.restore`
puts every original back.

Per layer it keeps ``calls`` and inclusive ``busy`` time (outermost
entries only, so recursion is not counted twice), ``self`` time (minus
the time spent in wrapped children of any layer) and free-form counters
set by hooks.  ``covered`` is wall time spent under at least one wrapped
layer other than the front door (:data:`FRONT_DOORS`).
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
import types
from collections import defaultdict

from harness import window_rate

#: The engine is the entry every op passes through: time under it alone
#: is not attributed to a layer.
FRONT_DOORS = frozenset({"engine"})


def _states_hook(stats, args, result) -> None:
    stats["states"] += int(result.number_of_states)


def _hit_hook(stats, args, result) -> None:
    stats["hits"] += result is not None


def _solver_hook(stats, args, result) -> None:
    stats["solvers"] += 1


def bytes_hook(stats, args, result) -> None:
    stats["bytes"] += len(result)


def _is_response(args) -> bool:
    return bool(args) and isinstance(args[0], dict) and "designs" in args[0]


#: Compute layers: (module, class or None, attribute, layer, hook).
COMPUTE_TARGETS = (
    ("repro.srn.reachability", None, "explore", "srn.explore", _states_hook),
    ("repro.ctmc.steady", "BatchSteadySolver", "solve", "ctmc.steady", None),
    ("repro.ctmc.steady", None, "steady_state", "ctmc.steady", None),
    ("repro.evaluation.security", "SecurityEvaluator", "before_patch", "harm.evaluate", None),
    ("repro.evaluation.security", "SecurityEvaluator", "after_patch", "harm.evaluate", None),
    ("repro.harm.builder", None, "build_harm", "harm.build", None),
    ("repro.evaluation.availability", "AvailabilityEvaluator", "coa", "availability.coa", None),
    ("repro.availability.aggregation", None, "aggregate_service", "availability.aggregate", None),
    ("repro.availability.grouped", None, "coa_structure", "availability.structure", None),
    ("repro.ctmc.transient", "BatchTransientSolver", "__init__", "ctmc.transient", _solver_hook),
    ("repro.ctmc.transient", "BatchTransientSolver", "from_generator", "ctmc.transient", _solver_hook),
    ("repro.ctmc.transient", "BatchTransientSolver", "distributions", "ctmc.transient", None),
    ("repro.ctmc.transient", "BatchTransientSolver", "rewards", "ctmc.transient", None),
    ("repro.ctmc.transient", "BatchTransientSolver", "propagate", "ctmc.transient", None),
    ("repro.ctmc.transient", None, "transient_piecewise", "campaign.piecewise", None),
    ("repro.evaluation.availability", "AvailabilityEvaluator", "transient_coa", "availability.transient_coa", None),
    ("repro.evaluation.availability", "AvailabilityEvaluator", "transient_coa_piecewise", "availability.transient_coa", None),
    ("repro.evaluation.timeline", None, "evaluate_timeline", "timeline", None),
)

#: The engine front door and the persistent cache tier.
ENGINE_TARGETS = (
    ("repro.evaluation.engine", "SweepEngine", "evaluate", "engine", None),
    ("repro.evaluation.engine", "SweepEngine", "timeline", "engine", None),
    ("repro.evaluation.cache", "PersistentEvaluationCache", "get", "cache.get", _hit_hook),
    ("repro.evaluation.cache", "PersistentEvaluationCache", "put", "cache.put", None),
)

#: Payload builders; their time joins ``api.encode`` without counting a
#: call (a call is one serialised response).
BUILDER_TARGETS = (
    ("repro.evaluation.api", None, "sweep_response"),
    ("repro.evaluation.api", None, "timeline_response"),
)


class Tracer:
    """Timing wrappers around named program calls (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.covered = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, hook=None, count=True, predicate=None):
        """*fn* timed under *layer*; *hook(stats, args, result)* adds counters."""
        tracer = self

        def traced(*args, **kwargs):
            if predicate is not None and not predicate(args):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                stack.pop()
                outermost = all(entry[0] != layer for entry in stack)
                first_layer = layer not in FRONT_DOORS and all(
                    entry[0] in FRONT_DOORS for entry in stack
                )
                if stack:
                    stack[-1][2] += elapsed
                with tracer._lock:
                    stats = tracer.stats[layer]
                    stats["self"] += elapsed - frame[2]
                    if outermost:
                        stats["busy"] += elapsed
                        if count:
                            stats["calls"] += 1
                    if first_layer:
                        tracer.covered += elapsed
            if hook is not None:
                with tracer._lock:
                    hook(tracer.stats[layer], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, layer: str, seconds: float) -> None:
        """Book *seconds* the benchmark timed itself as one top-level call."""
        with self._lock:
            stats = self.stats[layer]
            stats["calls"] += 1
            stats["busy"] += seconds
            stats["self"] += seconds
            self.covered += seconds

    def timed(self, layer, fn, *args, hook=None):
        """Call *fn* once under *layer* (for calls the benchmark makes itself)."""
        return self.wrap(layer, fn, hook)(*args)

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def patch(self, module_name, class_name, attr, layer, hook=None, count=True):
        module = importlib.import_module(module_name)
        if class_name is None:
            original = getattr(module, attr)
            self._replace_everywhere(original, self.wrap(layer, original, hook, count))
            return
        cls = getattr(module, class_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(layer, raw.__func__, hook, count))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(layer, raw.__func__, hook, count))
        else:
            replacement = self.wrap(layer, raw, hook, count)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def patch_json_dumps(self, module_name: str) -> None:
        """Time response serialisation through *module_name*'s ``json``."""
        module = importlib.import_module(module_name)
        original = module.json
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.wrap(
            "api.encode", json.dumps, bytes_hook, predicate=_is_response
        )
        self._patches.append((module, "json", original))
        module.json = proxy

    def install(self, targets=(), builders=(), json_modules=()) -> "Tracer":
        for module_name, class_name, attr, layer, hook in targets:
            self.patch(module_name, class_name, attr, layer, hook)
        for module_name, class_name, attr in builders:
            self.patch(module_name, class_name, attr, "api.encode", count=False)
        for module_name in json_modules:
            self.patch_json_dumps(module_name)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "layers": {name: dict(stats) for name, stats in self.stats.items()},
                "covered": self.covered,
            }


def merge_snapshots(snapshots, signs=None) -> dict:
    """Sum :meth:`Tracer.snapshot` results, each times its sign (default +1).

    Summing gives the totals of several child processes; a ``-1`` sign
    subtracts a snapshot taken before a timed window.
    """
    layers: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
    covered = 0.0
    for snap, sign in zip(snapshots, signs or [1] * len(snapshots)):
        covered += sign * snap.get("covered", 0.0)
        for name, stats in snap.get("layers", {}).items():
            for key, value in stats.items():
                layers[name][key] += sign * value
    return {"layers": {k: dict(v) for k, v in layers.items()}, "covered": covered}


# -- registry deltas ----------------------------------------------------------


def registry_totals(registry: dict) -> dict:
    """The metrics-registry series the per-layer metrics are built from."""

    def series(name):
        return registry.get(name, {}).get("series", [])

    totals = defaultdict(float)
    for entry in series("repro_engine_cache_requests_total"):
        labels = entry["labels"]
        totals["memo_lookups"] += entry["value"]
        if labels.get("tier") == "memo" and labels.get("outcome") == "hit":
            totals["memo_hits"] += entry["value"]
    for entry in series("repro_chunk_queue_wait_seconds"):
        kind = "lane" if entry["labels"].get("queue") == "lane" else "pool"
        totals[f"{kind}_wait_sum"] += entry["sum"]
        totals[f"{kind}_wait_count"] += entry["count"]
    for entry in series("repro_pool_recycles_total"):
        totals["recycles"] += entry["value"]
    for entry in series("repro_shared_segments_built_total"):
        totals["segments_built"] += entry["value"]
    for entry in series("repro_shared_segment_bytes"):
        totals["segment_bytes"] += entry["value"]
    return dict(totals)


def registry_delta(before: dict, after: dict) -> dict:
    """Counter deltas over a window; gauges (segment bytes) read at its end."""
    keys = set(before) | set(after)
    delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in keys}
    delta["segment_bytes"] = after.get("segment_bytes", 0.0)
    return delta


# -- the per-layer metric set -------------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def rate_ratio(traced, untraced) -> float:
    """Traced over untraced ``designs_per_s`` (``trace.overhead_ratio``)."""
    return _ratio(window_rate(traced), window_rate(untraced))


def layer_metrics(snapshot: dict, registry: dict, op_wall_s: float) -> dict:
    """Per-layer values from tracer totals and registry deltas, by metric name."""
    layers = snapshot["layers"]

    def get(layer, key):
        return float(layers.get(layer, {}).get(key, 0.0))

    return {
        "srn.explore.calls": get("srn.explore", "calls"),
        "srn.explore.busy_s": get("srn.explore", "busy"),
        "srn.explore.states": get("srn.explore", "states"),
        "ctmc.steady.calls": get("ctmc.steady", "calls"),
        "ctmc.steady.busy_s": get("ctmc.steady", "busy"),
        "harm.evaluate.calls": get("harm.evaluate", "calls"),
        "harm.evaluate.busy_s": get("harm.evaluate", "busy"),
        "harm.build.calls": get("harm.build", "calls"),
        "availability.coa.self_s": get("availability.coa", "self"),
        "availability.aggregate.calls": get("availability.aggregate", "calls"),
        "availability.structure.calls": get("availability.structure", "calls"),
        "ctmc.transient.calls": get("ctmc.transient", "calls"),
        "ctmc.transient.busy_s": get("ctmc.transient", "busy"),
        "ctmc.transient.solvers": get("ctmc.transient", "solvers"),
        "availability.transient_coa.self_s": get("availability.transient_coa", "self"),
        "timeline.self_s": get("timeline", "self"),
        "campaign.piecewise.busy_s": get("campaign.piecewise", "busy"),
        "engine.self_s": get("engine", "self"),
        "engine.memo_lookups": registry.get("memo_lookups", 0.0),
        "engine.memo_hit_ratio": _ratio(registry.get("memo_hits", 0.0), registry.get("memo_lookups", 0.0)),
        "pool.queue_wait_s": _ratio(registry.get("pool_wait_sum", 0.0), registry.get("pool_wait_count", 0.0)),
        "pool.recycles": registry.get("recycles", 0.0),
        "shm.segments_built": registry.get("segments_built", 0.0),
        "shm.segment_bytes": registry.get("segment_bytes", 0.0),
        "cache.get.calls": get("cache.get", "calls"),
        "cache.get.busy_s": get("cache.get", "busy"),
        "cache.get.hit_ratio": _ratio(get("cache.get", "hits"), get("cache.get", "calls")),
        "cache.put.calls": get("cache.put", "calls"),
        "cache.put.busy_s": get("cache.put", "busy"),
        "api.encode.calls": get("api.encode", "calls"),
        "api.encode.busy_s": get("api.encode", "busy"),
        "api.encode.bytes": get("api.encode", "bytes"),
        "trace.coverage": _ratio(snapshot.get("covered", 0.0), op_wall_s),
    }


#: Every per-layer metric of the traced run: (name, unit, better).  A
#: workload reports 0 for a layer it never enters.
PER_LAYER = (
    ("srn.explore.calls", "count", "lower"),
    ("srn.explore.busy_s", "s", "lower"),
    ("srn.explore.states", "count", "lower"),
    ("ctmc.steady.calls", "count", "lower"),
    ("ctmc.steady.busy_s", "s", "lower"),
    ("harm.evaluate.calls", "count", "lower"),
    ("harm.evaluate.busy_s", "s", "lower"),
    ("harm.build.calls", "count", "lower"),
    ("availability.coa.self_s", "s", "lower"),
    ("availability.aggregate.calls", "count", "lower"),
    ("availability.structure.calls", "count", "lower"),
    ("ctmc.transient.calls", "count", "lower"),
    ("ctmc.transient.busy_s", "s", "lower"),
    ("ctmc.transient.solvers", "count", "lower"),
    ("availability.transient_coa.self_s", "s", "lower"),
    ("timeline.self_s", "s", "lower"),
    ("campaign.piecewise.busy_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.memo_hit_ratio", "ratio", "higher"),
    ("engine.memo_lookups", "count", "lower"),
    ("engine.process_over_serial", "ratio", "lower"),
    ("pool.queue_wait_s", "s", "lower"),
    ("pool.recycles", "count", "lower"),
    ("shm.segments_built", "count", "lower"),
    ("shm.segment_bytes", "B", "lower"),
    ("cache.get.calls", "count", "lower"),
    ("cache.get.busy_s", "s", "lower"),
    ("cache.get.hit_ratio", "ratio", "higher"),
    ("cache.put.calls", "count", "lower"),
    ("cache.put.busy_s", "s", "lower"),
    ("api.encode.calls", "count", "lower"),
    ("api.encode.busy_s", "s", "lower"),
    ("api.encode.bytes", "B", "lower"),
    ("service.handler_s", "s", "lower"),
    ("service.overhead_s", "s", "lower"),
    ("service.lane_wait_s", "s", "lower"),
    ("service.computed", "count", "lower"),
    ("service.response_cache_hits", "count", "higher"),
    ("service.dedup_hits", "count", "higher"),
    ("service.cheap_p50_s", "s", "lower"),
    ("service.request_tail_s", "s", "lower"),
    ("service.request_tail_n", "count", "higher"),
    ("startup.import_s", "s", "lower"),
    ("startup.scipy_import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
)


def complete(values: dict) -> dict:
    """Every :data:`PER_LAYER` metric with its unit; idle layers read 0."""
    unknown = set(values) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
