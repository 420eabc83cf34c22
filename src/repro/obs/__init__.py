"""Unified observability: span tracing, metrics, and run manifests.

The study pipeline is a measurement instrument, and this package is the
instrument's instrument.  It grew out of three ad-hoc telemetry surfaces
(``ScanTelemetry``, ``CacheTelemetry``, the checkpoint counters) that could
not answer the questions a perf PR has to answer — *where did the wall
clock go, which stage did the work, and what exactly did this run compute
from what inputs* — with one coherent, machine-readable record.

Layering (dependency-free by design: stdlib only, importable from every
layer of the pipeline without cycles):

* :mod:`repro.obs.trace` — nested wall-clock spans with attributes and
  exception capture; renders as a tree (``repro trace``);
* :mod:`repro.obs.metrics` — a process-wide registry of named counters,
  gauges, and histograms that the existing telemetry dataclasses publish
  into; snapshots merge across threads and forked workers;
* :mod:`repro.obs.manifest` — the :class:`RunManifest`: one JSON document
  per ``run_study`` call capturing config, code fingerprint, span tree,
  metrics snapshot, and cache/checkpoint/recovery outcomes, written
  atomically next to the study cache entry;
* :mod:`repro.obs.profile` — opt-in ``cProfile`` hooks (``REPRO_PROFILE=1``)
  that attach top-N cumulative stats per hot stage to the manifest.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.manifest": (
        "MANIFEST_SCHEMA", "RunManifest", "latest_manifest", "manifests_root",
        "validate_manifest",
    ),
    "repro.obs.metrics": ("MetricsRegistry", "get_registry", "publish_mapping"),
    "repro.obs.profile": ("StageProfiler", "profiling_enabled"),
    "repro.obs.trace": ("Span", "Tracer", "render_span_tree", "span_or_null"),
})
