"""Layer tracing from outside the program.

The benchmark never edits ``src/``: it times each layer by replacing the
names callers look up (module functions and class methods) with wrappers
that open a span around the original call.  Spans stay in memory and are
returned to the parent process with the iteration's result; every original
is restored when the traced block exits.

Only coarse entry points are wrapped — one call per stage, artifact or
query — never anything called once per session or arrival, so tracing
overhead stays a small fraction of ``run_study`` (reported as
``bench.trace_overhead_s``).
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Recorder:
    """Collects spans (name, start, end, parent, iteration, counters)."""

    def __init__(self, iteration: str) -> None:
        self.iteration = iteration
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def open(self, name: str) -> Dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "iteration": self.iteration,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = perf_counter()
        self._stack.pop()


# -- counter hooks ----------------------------------------------------------
#
# ``before(args)`` snapshots state on the call's receiver; ``after(args,
# result, state)`` returns the span's counters.  Both read only public
# attributes (result sizes, ``engine.stats.telemetry``, ``cache.telemetry``).


def _count_len(key: str):
    def after(args, result, state):
        return {key: len(result)}

    return after


def _scan_before(args):
    telemetry = args[0].stats.telemetry
    return (
        telemetry.sessions,
        telemetry.candidates_evaluated,
        telemetry.shards_compiled,
        telemetry.shard_compile_seconds,
    )


def _scan_after(args, result, state):
    telemetry = args[0].stats.telemetry
    sessions, evaluated, compiled, compile_s = state
    return {
        "sessions": telemetry.sessions - sessions,
        "alerts": len(result),
        "candidates_evaluated": telemetry.candidates_evaluated - evaluated,
        "shards_compiled": telemetry.shards_compiled - compiled,
        "shard_compile_s": telemetry.shard_compile_seconds - compile_s,
    }


def _cache_counter(attribute: str, key: str):
    def before(args):
        return getattr(args[0].telemetry, attribute)

    def after(args, result, state):
        return {key: getattr(args[0].telemetry, attribute) - state}

    return before, after


def _file_bytes(key: str):
    def after(args, result, state):
        return {key: result.stat().st_size}

    return after


def _experiment_name(args, kwargs):
    return f"experiments.{args[0]}"


def _answer_name(args, kwargs):
    return f"store.answer_{args[1]}"


_LOAD_BYTES = _cache_counter("bytes_read", "bytes_read")
_SAVE_BYTES = _cache_counter("bytes_written", "entry_bytes")

#: (module, attribute path, span name, before hook, after hook).  A span
#: name may be a callable of the call's (args, kwargs).  Several targets
#: may share a span name; their self times add up in one layer metric.
TARGETS: Tuple[Tuple[str, str, Any, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.analysis.pipeline", "run_study", "pipeline.run_study", None, None),
    ("repro.analysis.pipeline", "build_bundle", "datasets.build_bundle", None, None),
    ("repro.analysis.pipeline", "derive_analysis", "analysis.derive", None, None),
    ("repro.analysis.pipeline", "assemble_timelines", "lifecycle.assemble", None, None),
    ("repro.scenarios", "resolve", "scenarios.resolve", None, None),
    ("repro.scenarios.resolve", "ResolvedScenario.build_ruleset",
     "scenarios.build_ruleset", None, None),
    ("repro.scenarios.resolve", "ResolvedScenario.build_traffic",
     "scenarios.build_components", None, None),
    ("repro.scenarios.resolve", "ResolvedScenario.build_collector",
     "scenarios.build_components", None, None),
    ("repro.scenarios.resolve", "ResolvedScenario.build_rca",
     "scenarios.build_components", None, None),
    ("repro.traffic.generator", "TrafficGenerator.generate", "traffic.generate",
     None, _count_len("arrivals")),
    ("repro.telescope.collector", "DscopeCollector.collect", "telescope.collect",
     None, _count_len("sessions")),
    ("repro.nids.engine", "DetectionEngine.__init__", "nids.engine_init", None, None),
    ("repro.nids.engine", "DetectionEngine.scan", "nids.scan", _scan_before, _scan_after),
    ("repro.lifecycle.rca", "RootCauseAnalysis.filter", "lifecycle.rca_filter",
     None, None),
    ("repro.cache", "study_key", "cache.study_key", None, None),
    ("repro.cache.study", "study_key", "cache.study_key", None, None),
    ("repro.cache.study", "verify_entry", "cache.entry_verify", None, None),
    ("repro.cache.study", "StudyCache.load", "cache.entry_load", *_LOAD_BYTES),
    ("repro.cache.study", "StudyCache.save", "cache.entry_save", *_SAVE_BYTES),
    ("repro.cache.checkpoint", "encode_stage_arrivals", "cache.checkpoint_encode",
     None, None),
    ("repro.cache.checkpoint", "encode_stage_store", "cache.checkpoint_encode",
     None, None),
    ("repro.cache.checkpoint", "encode_stage_alerts", "cache.checkpoint_encode",
     None, None),
    ("repro.cache.checkpoint", "CheckpointStore.save", "cache.checkpoint_save",
     None, _file_bytes("checkpoint_bytes")),
    ("repro.cache.checkpoint", "CheckpointStore.load", "cache.checkpoint_probe",
     None, None),
    ("repro.cache.checkpoint", "CheckpointStore.delete", "cache.checkpoint_probe",
     None, None),
    ("repro.obs.manifest", "RunManifest.write", "obs.manifest_write", None, None),
    ("repro.experiments.registry", "run_experiment", _experiment_name, None, None),
    ("repro.store", "shard_for_config", "store.shard_load", None, None),
    ("repro.store.shard", "ShardStore.load", "store.shard_load", None, None),
    ("repro.store.shard", "ShardStore.save", "store.pack",
     None, _file_bytes("shard_bytes")),
    ("repro.store.columnar", "ColumnarStudy.from_study", "store.pack", None, None),
    ("repro.store.service", "StudyService.answer_bytes", _answer_name, None, None),
)


def _wrap(recorder: Recorder, fn: Callable, name, before, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name(args, kwargs) if callable(name) else name)
        try:
            state = before(args) if before is not None else None
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            span["counts"] = after(args, result, state)
        return result

    return wrapper


def _resolve_owner(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(recorder: Recorder, targets: Iterable = TARGETS) -> List[Tuple[Any, str, Any]]:
    """Wrap every target; returns the (owner, attribute, original) patches."""
    patches: List[Tuple[Any, str, Any]] = []
    try:
        for module, path, name, before, after in targets:
            owner, attribute = _resolve_owner(module, path)
            original = (
                owner.__dict__[attribute] if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    _wrap(recorder, original.__func__, name, before, after)
                )
            else:
                wrapped = _wrap(recorder, original, name, before, after)
            setattr(owner, attribute, wrapped)
            patches.append((owner, attribute, original))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: List[Tuple[Any, str, Any]]) -> None:
    """Put every original back, last patch first."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
    patches.clear()


@contextmanager
def traced(recorder: Recorder, targets: Iterable = TARGETS) -> Iterator[Recorder]:
    patches = install(recorder, targets)
    try:
        yield recorder
    finally:
        restore(patches)


# -- span arithmetic --------------------------------------------------------


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def subtree(spans: List[Dict[str, Any]], root_id: int) -> List[Dict[str, Any]]:
    """The span with ``root_id`` and all its descendants."""
    inside = {root_id}
    selected = []
    for span in spans:  # parents are recorded before their children
        if span["id"] == root_id or span["parent"] in inside:
            inside.add(span["id"])
            selected.append(span)
    return selected


def layer_totals(spans: List[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per span name: summed self seconds, and summed counters."""
    selfs = self_times(spans)
    seconds: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for span in spans:
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + selfs[span["id"]]
        for key, value in span["counts"].items():
            name = f"{span['name']}.{key}"
            counts[name] = counts.get(name, 0) + value
    return seconds, counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: List[Dict[str, Any]], scale: float = 1.0) -> Dict[str, float]:
    """The per-layer metrics of one traced child process, with every time
    multiplied by ``scale`` (see ``speed.factor``)."""
    seconds, counts = layer_totals(spans)
    seconds = {name: value * scale for name, value in seconds.items()}
    metrics: Dict[str, float] = {}
    for name, value in seconds.items():
        if name.startswith("store.answer_"):
            metrics[f"{name}_ms"] = value * 1e3
        elif name == "pipeline.run_study":
            metrics["pipeline.unattributed_s"] = value
        else:
            metrics[f"{name}_s"] = value
    derived = {
        "traffic.arrivals": counts.get("traffic.generate.arrivals", 0),
        "telescope.sessions": counts.get("telescope.collect.sessions", 0),
        "nids.alerts": counts.get("nids.scan.alerts", 0),
        "nids.candidates_evaluated": counts.get("nids.scan.candidates_evaluated", 0),
        "nids.shards_compiled": counts.get("nids.scan.shards_compiled", 0),
        "nids.shard_compile_s": counts.get("nids.scan.shard_compile_s", 0.0) * scale,
        "cache.checkpoint_bytes": counts.get("cache.checkpoint_save.checkpoint_bytes", 0),
        "cache.entry_bytes": counts.get("cache.entry_save.entry_bytes", 0),
        "cache.bytes_read": counts.get("cache.entry_load.bytes_read", 0),
        "store.shard_bytes": counts.get("store.pack.shard_bytes", 0),
    }
    derived["traffic.arrivals_per_s"] = _ratio(
        derived["traffic.arrivals"], seconds.get("traffic.generate", 0.0)
    )
    derived["telescope.sessions_per_s"] = _ratio(
        derived["telescope.sessions"], seconds.get("telescope.collect", 0.0)
    )
    derived["nids.sessions_per_s"] = _ratio(
        counts.get("nids.scan.sessions", 0), seconds.get("nids.scan", 0.0)
    )
    derived["nids.evaluated_per_alert"] = _ratio(
        derived["nids.candidates_evaluated"], derived["nids.alerts"]
    )
    metrics.update(derived)
    return metrics


def study_breakdown(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per layer inside the outermost ``run_study`` spans.

    The values add up to those spans' total duration, which is what the
    acceptance check compares against the traced ``study_s``.
    """
    selected: List[Dict[str, Any]] = []
    for span in spans:
        if span["name"] == "pipeline.run_study" and span["parent"] is None:
            selected.extend(subtree(spans, span["id"]))
    seconds, _ = layer_totals(selected)
    return seconds
