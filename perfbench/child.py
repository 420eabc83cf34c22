"""One benchmark step in a fresh Python process.

``run.py`` starts this script once per set-up and once per timed
iteration, so every process-wide cache (imports, compiled patterns, the
code fingerprint) starts cold, as it does for a CLI user.  The step's
measurements, output digests and (when traced) spans are written as JSON
to the path named in the spec::

    python3 perfbench/child.py '{"mode": "iteration", "workload": "study-cold",
        "seed": null, "root": "<cache root>", "trace": false,
        "iteration": "3", "out": "<result.json>"}'

It drives only public entry points, looked up through their modules at
call time so the tracer's wrappers (``perfbench/spans.py``) see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from spans import Recorder, traced

#: The benchmark's own scenario: the ``scaled-rules`` rules component at
#: 10,000 rules over the quick-scale traffic volume.
RULES_SCENARIO = "perfbench-rules-10k"
RULES_SIZE = 10000
QUICK_SCALE = dict(volume_scale=0.02, background_per_exploit=0.3,
                   background_nvd_count=2000)

#: The seven query targets of ``benchmarks/bench_serve.py``'s mix.
QUERY_TARGETS = (
    ("skill", {}),
    ("lifecycle", {}),
    ("vendors", {}),
    ("kev", {}),
    ("describe", {}),
    ("windows", {"later": "A", "earlier": "D"}),
    ("windows", {"later": "X", "earlier": "F"}),
)

#: Query-body fields that name the code version rather than the answer;
#: left out of the digest so the default-seed reference survives edits
#: that do not change results.
VERSION_FIELDS = ("etag", "code")

#: Passes over the artifacts and over the shard queries in an untraced
#: iteration.  One pass takes under half a second, a span over which
#: timing jitter on a shared 2-core VM reaches tens of percent; the median
#: over every pass of a run is steady.
ARTIFACT_PASSES = 5
QUERY_PASSES = 60


def register_scenarios() -> None:
    from repro.scenarios import ComponentRef, Scenario, register_scenario

    register_scenario(
        Scenario(
            name=RULES_SCENARIO,
            description="10k-rule synthetic corpus at quick scale (benchmark)",
            components={"rules": ComponentRef("scaled-rules", {"size": RULES_SIZE})},
            config=QUICK_SCALE,
        ),
        replace=True,
    )


def study_config(workload: str, seed):
    from repro.analysis.pipeline import StudyConfig
    from repro.datasets.loader import DEFAULT_SEED

    name = RULES_SCENARIO if workload == "rules-10k" else "standard"
    return StudyConfig.from_scenario(
        name, seed=DEFAULT_SEED if seed is None else seed, workers=1
    )


def run_kwargs(workload: str, root: str) -> Dict[str, Any]:
    if workload == "rules-10k":
        return dict(cache=False, checkpoints=False, manifest=False)
    # Default checkpoints and manifest: both follow the cache root.
    return dict(cache=root)


# -- output digests -----------------------------------------------------------


def _digest(parts: List[str]) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _stamp(when) -> Any:
    return when.isoformat() if when is not None else None


def study_digest(result) -> str:
    """Alerts, kept CVEs and timelines of a study result."""
    parts = [
        repr((alert.session_id, _stamp(alert.timestamp), alert.sid, alert.cve_id,
              _stamp(alert.rule_published), alert.dst_ip, alert.dst_port,
              alert.src_ip))
        for alert in result.alerts
    ]
    parts.append(repr(result.kept_cves))
    for cve_id in sorted(result.timelines):
        times = result.timelines[cve_id].times
        parts.append(repr((cve_id, sorted(
            (event.value, _stamp(when)) for event, when in times.items()
        ))))
    return _digest(parts)


def artifacts_digest(artifacts) -> str:
    return _digest([
        json.dumps([item.experiment_id, item.measured], sort_keys=True)
        for item in artifacts
    ])


def queries_digest(bodies: List[bytes]) -> str:
    parts = []
    for body in bodies:
        document = json.loads(body)
        for name in VERSION_FIELDS:
            document.pop(name, None)
        parts.append(json.dumps(document, sort_keys=True))
    return _digest(parts)


def disk_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


# -- steps ----------------------------------------------------------------------


def setup(spec: Dict[str, Any], recorder) -> Dict[str, Any]:
    """Imports and scenario registration; for ``study-warm`` also the
    populating cold run and the shard build the iterations read."""
    import repro.analysis.pipeline as pipeline
    import repro.store as store

    register_scenarios()
    config = study_config(spec["workload"], spec["seed"])
    out: Dict[str, Any] = {"checks": []}
    if spec["workload"] == "study-warm":
        with traced(recorder) if recorder else nullcontext():
            result = pipeline.run_study(config, cache=spec["root"])
            _, built = store.shard_for_config(config, cache_root=spec["root"])
        out["digests"] = {"study": study_digest(result)}
        if result.from_cache or not built:
            out["checks"].append("populate run was served from an existing root")
    out["setup_end"] = perf_counter()
    return out


def iteration(spec: Dict[str, Any], recorder) -> Dict[str, Any]:
    """One timed pass: the study, all artifacts, then the shard queries."""
    import repro.analysis.pipeline as pipeline
    import repro.experiments.registry as registry
    import repro.store as store

    register_scenarios()
    workload, root = spec["workload"], spec["root"]
    config = study_config(workload, spec["seed"])
    checks: List[str] = []
    # A traced iteration makes one pass of each, so its layer times are per
    # pass; untraced ones make several short passes.  Each timed section is
    # reported as its (start, end) on the system-wide perf_counter clock, so
    # the parent can match it with its vCPU speed samples.
    artifact_passes, query_passes = (1, 1) if recorder else (ARTIFACT_PASSES, QUERY_PASSES)
    windows: Dict[str, List[List[float]]] = {
        "study_s": [], "artifacts_s": [], "shard_query_ms": []
    }
    with traced(recorder) if recorder else nullcontext():
        started = perf_counter()
        result = pipeline.run_study(config, **run_kwargs(workload, root))
        windows["study_s"].append([started, perf_counter()])

        for _ in range(artifact_passes):
            started = perf_counter()
            artifacts = [
                registry.run_experiment(experiment_id, result)
                for experiment_id in registry.list_experiments()
            ]
            windows["artifacts_s"].append([started, perf_counter()])

        if workload != "study-warm":
            store.ShardStore(root).save(store.ColumnarStudy.from_study(result))
        for _ in range(query_passes):
            # A fresh mmap and an empty memo on every pass.
            started = perf_counter()
            shard, _ = store.shard_for_config(config, cache_root=root, build=False)
            if shard is None:
                raise RuntimeError("no shard for the study config")
            service = store.StudyService(shard)
            bodies = [service.answer_bytes(name, params) for name, params in QUERY_TARGETS]
            windows["shard_query_ms"].append([started, perf_counter()])

    if result.from_cache != (workload == "study-warm"):
        checks.append(f"from_cache={result.from_cache} on {workload}")
    if not result.alerts or not result.kept_cves or not result.timelines:
        checks.append("empty study output")
    if len(artifacts) != len(registry.list_experiments()):
        checks.append("missing artifacts")
    return {
        "checks": checks,
        "windows": windows,
        "disk_mb": disk_bytes(root) / 1e6,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digests": {
            "study": study_digest(result),
            "artifacts": artifacts_digest(artifacts),
            "queries": queries_digest(bodies),
        },
    }


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    recorder = Recorder(str(spec.get("iteration", spec["mode"]))) if spec["trace"] else None
    out: Dict[str, Any] = {"ok": False, "error": None}
    try:
        step = setup if spec["mode"] == "setup" else iteration
        out.update(step(spec, recorder))
        from repro.cache import code_fingerprint
        from repro.datasets.loader import DEFAULT_SEED

        out["context"] = {
            "code_fingerprint": code_fingerprint(),
            "default_seed": DEFAULT_SEED,
            "seed": study_config(spec["workload"], spec["seed"]).seed,
        }
        out["ok"] = True
    except Exception:  # reported to the parent, which counts the failure
        out["error"] = traceback.format_exc()
    if recorder is not None:
        out["spans"] = recorder.spans
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
