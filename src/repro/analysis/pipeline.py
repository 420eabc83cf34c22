"""The end-to-end study pipeline.

One call, :func:`run_study`, reproduces the paper's data flow:

1. build the six datasets (:mod:`repro.datasets`);
2. generate two years of Internet scanning traffic (:mod:`repro.traffic`);
3. capture it with the DSCOPE telescope simulator (:mod:`repro.telescope`);
4. evaluate the Snort ruleset post-facto, port-insensitively, retaining the
   earliest-published matching signature (:mod:`repro.nids`);
5. extract exploit events and run root-cause analysis (:mod:`repro.lifecycle`);
6. assemble per-CVE timelines using the *measured* first attacks.

Every analysis and benchmark consumes the resulting :class:`StudyResult`.
``volume_scale`` trades fidelity of event *counts* against runtime; event
*timing* statistics (first attacks, desiderata, skill) are unaffected by
scale because first events are pinned.

Observability: every run is traced (:mod:`repro.obs`) — each of the six
stages gets a wall-clock span recording where its data came from
(``computed`` / ``cache`` / ``checkpoint``), the run's telemetry publishes
into a per-run metrics registry, and the whole record is written atomically
as a :class:`repro.obs.RunManifest` next to the study cache entry.  The
one telemetry surface is :attr:`StudyResult.telemetry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import timedelta
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cache import CacheTelemetry, CheckpointStore, StudyCache

from repro.datasets.loader import DEFAULT_SEED, DatasetBundle, build_bundle
from repro.exploits.rulegen import build_study_ruleset
from repro.lifecycle.assembly import assemble_timelines
from repro.lifecycle.events import CveTimeline
from repro.lifecycle.exploit_events import EventTable, kept_events
from repro.lifecycle.rca import RcaDecision, RootCauseAnalysis
from repro.net.pcapstore import SessionStore
from repro.nids.engine import DetectionEngine, ScanTelemetry
from repro.nids.ruleset import Alert, Ruleset
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    StageProfiler,
    Tracer,
    get_registry,
    manifests_root,
    publish_mapping,
)
from repro.store.columnar import AlertTable
from repro.telescope.collector import CollectionStats, DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.traffic.generator import TrafficConfig, TrafficGenerator


@dataclass(frozen=True, init=False)
class StudyConfig:
    """Configuration for one full study run.

    Construction is **keyword-only** — positional construction silently
    changes meaning whenever a field is added, so it is rejected outright.
    Named configurations come from :meth:`from_scenario`.

    ``workers`` is an *execution* knob: it sets how many worker processes
    scan sessions (the NIDS scan is the only parallel stage), and can never
    change the result (the study cache keys ignore it for the same reason).
    ``feed_dir`` is likewise execution-flavoured: it says *where* feed
    snapshots live, and the cache keys on the snapshots' content, not their
    location.

    ``scenario`` names a registered scenario (:mod:`repro.scenarios`)
    whose components the pipeline composes in place of its hard-wired
    defaults; None runs the classic paper-default composition.
    """

    seed: int = DEFAULT_SEED
    volume_scale: float = 0.1
    background_per_exploit: float = 0.5
    background_nvd_count: int = 20000
    rule_delay: timedelta = timedelta(0)
    telescope_instances: int = 300
    workers: int = 1
    scenario: Optional[str] = None
    feed_dir: Optional[str] = None

    def __init__(
        self,
        *,
        seed: int = DEFAULT_SEED,
        volume_scale: float = 0.1,
        background_per_exploit: float = 0.5,
        background_nvd_count: int = 20000,
        rule_delay: timedelta = timedelta(0),
        telescope_instances: int = 300,
        workers: int = 1,
        scenario: Optional[str] = None,
        feed_dir: Optional[str] = None,
    ) -> None:
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "volume_scale", volume_scale)
        object.__setattr__(self, "background_per_exploit", background_per_exploit)
        object.__setattr__(self, "background_nvd_count", background_nvd_count)
        object.__setattr__(self, "rule_delay", rule_delay)
        object.__setattr__(self, "telescope_instances", telescope_instances)
        object.__setattr__(self, "workers", workers)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "feed_dir", feed_dir)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def from_scenario(cls, name: str, **overrides: object) -> "StudyConfig":
        """The blessed constructor for named configurations.

        Loads the registered scenario, applies its config overrides, then
        the caller's keyword overrides (which win), and pins ``scenario``
        so :func:`run_study` resolves the scenario's components:

        >>> StudyConfig.from_scenario("full").volume_scale
        1.0
        >>> StudyConfig.from_scenario("quick", workers=4, seed=7).seed
        7
        """
        from repro.scenarios import get_scenario

        spec = get_scenario(name)
        values: Dict[str, object] = dict(spec.config)
        values.update(overrides)
        values.setdefault("scenario", name)
        return cls(**values)  # type: ignore[arg-type]


@dataclass
class StudyTelemetry:
    """Everything measured *about* a run, behind one facade.

    The single telemetry surface of :class:`StudyResult`: how the scan
    spent its work, what the study cache did, which stages were served from
    crash checkpoints, and where the run's manifest landed.
    """

    #: Telemetry from the NIDS scan this run actually performed (recovery
    #: counters included); None when the scan was skipped entirely (study
    #: cache hit or an ``alerts`` stage checkpoint).
    scan: Optional[ScanTelemetry] = None
    #: Counters from the cache instance that served (or stored) this run;
    #: None when the run was uncached.
    cache: Optional["CacheTelemetry"] = None
    #: Heavy stages served from crash checkpoints left by an earlier,
    #: killed run (subset of ``["store", "alerts"]``, in pipeline order).
    #: Empty for clean runs and cache hits.
    checkpoints: List[str] = field(default_factory=list)
    #: Where this run's manifest was written; None when no manifest root
    #: was available (uncached, checkpoint-free, manifest=False).
    manifest_path: Optional[Path] = None
    #: The in-memory manifest (always built, even when not written).
    manifest: Optional[RunManifest] = None


@dataclass
class StudyResult:
    """Everything a study run produces."""

    config: StudyConfig
    bundle: DatasetBundle
    store: SessionStore
    #: Returns the study's ruleset; :attr:`ruleset` calls it once, on first
    #: read (a cache hit scans nothing, so it builds no ruleset).
    build_ruleset: Callable[[], Ruleset] = field(repr=False, compare=False)
    #: The scan's alerts as one column table (a ``Sequence[Alert]`` whose
    #: records are built only when something reads them).
    alerts: AlertTable
    #: The attributed alerts as events, in alert order.
    events: EventTable
    #: Each CVE surviving root-cause analysis -> its events sorted by time
    #: (slices of one table), in CVE-id order.
    events_per_cve: Dict[str, EventTable]
    rca_decisions: List[RcaDecision]
    timelines: Dict[str, CveTimeline]
    collection_stats: CollectionStats
    #: session_id -> ground-truth CVE (validation only; the detection
    #: pipeline never reads it).  A cache hit's is a read-only view over
    #: the stage file's columns, made a dict only when something reads it.
    ground_truth: Mapping[int, Optional[str]] = field(default_factory=dict)
    #: Whether the heavy stages (generation, capture, scan) were served
    #: from the on-disk study cache instead of recomputed.
    from_cache: bool = False
    #: The run's unified telemetry: ``.scan``, ``.cache``, ``.checkpoints``,
    #: ``.manifest_path``.
    telemetry: StudyTelemetry = field(default_factory=StudyTelemetry)

    @cached_property
    def ruleset(self) -> Ruleset:
        """The retrospective ruleset the scan evaluated (or would have)."""
        return self.build_ruleset()

    @property
    def kept_cves(self) -> List[str]:
        """CVEs surviving root-cause analysis, sorted."""
        return sorted(self.events_per_cve)

    @property
    def dropped_cves(self) -> List[str]:
        """CVEs pruned as signature false positives."""
        return sorted(
            decision.cve_id for decision in self.rca_decisions if not decision.kept
        )

    @cached_property
    def kept_events(self) -> EventTable:
        """Exploit events for surviving CVEs only, time-sorted (ties in
        CVE-id order, then in alert order)."""
        return kept_events(self.events_per_cve)


@dataclass
class AnalysisOutputs:
    """Stages 5–6 of the pipeline: what the alerts *mean*.

    Produced by :func:`derive_analysis`, shared by the batch pipeline and
    the streaming :class:`repro.analysis.streaming.IncrementalStudy` so the
    two paths cannot drift.
    """

    events: EventTable
    events_per_cve: Dict[str, EventTable]
    rca_decisions: List[RcaDecision]
    timelines: Dict[str, CveTimeline]


def derive_analysis(
    bundle: DatasetBundle,
    alerts: Sequence[Alert],
    payloads: Union[SessionStore, Mapping[int, bytes]],
    *,
    tracer: Optional[Tracer] = None,
    rca: Optional[Callable[..., RootCauseAnalysis]] = None,
) -> AnalysisOutputs:
    """Run exploit-event extraction, RCA pruning, and timeline assembly.

    ``alerts`` is an :class:`AlertTable` (a plain alert list is packed
    first); the events are its attributed rows (:class:`EventTable`), and
    grouping, root-cause analysis and the first attacks read their
    columns.  ``payloads`` supplies session payloads for root-cause
    analysis: the full :class:`SessionStore` on the batch path (RCA reads
    its :meth:`SessionStore.payloads`), or a session_id → payload mapping
    covering the alerted sessions on the streaming path (RCA never reads
    payloads of unalerted sessions).  ``rca`` is a
    factory called with the payloads (a scenario's registered RCA
    component); None uses the paper's heuristic.
    """
    from repro.obs import span_or_null

    with span_or_null(tracer, "extract") as span:
        events = EventTable.from_alerts(alerts)
        grouped = events.by_cve()
        analyser = rca(payloads) if rca is not None else RootCauseAnalysis(payloads)
        kept, decisions = analyser.filter(grouped)
        if span is not None:
            span.set("events", len(events))
            span.set("kept_cves", len(kept))

    with span_or_null(tracer, "timelines") as span:
        first_attacks = EventTable.concat(kept.values()).first_attacks()
        timelines = assemble_timelines(bundle, first_attacks)
        if span is not None:
            span.set("timelines", len(timelines))

    return AnalysisOutputs(
        events=events,
        events_per_cve=kept,
        rca_decisions=decisions,
        timelines=timelines,
    )


def _resolve_cache(cache: "CacheLike") -> Optional["StudyCache"]:
    """Normalise the ``cache`` argument of :func:`run_study`."""
    if cache is None or cache is False:
        return None
    from repro.cache import StudyCache

    if cache is True:
        return StudyCache()
    if isinstance(cache, (str, Path)):
        return StudyCache(root=cache)
    return cache


CacheLike = Union[None, bool, str, Path, "StudyCache"]
CheckpointLike = Union[None, bool, str, Path, "CheckpointStore"]
ManifestLike = Union[None, bool, str, Path]


def _resolve_checkpoints(
    checkpoints: CheckpointLike, study_cache: Optional["StudyCache"]
) -> Optional["CheckpointStore"]:
    """Normalise the ``checkpoints`` argument of :func:`run_study`."""
    if checkpoints is False:
        return None
    from repro.cache import CheckpointStore

    if checkpoints is None:
        # Default: checkpoint wherever the study cache lives, so a killed
        # cached run resumes; uncached runs stay checkpoint-free.
        if study_cache is None:
            return None
        return CheckpointStore(root=study_cache.root)
    if checkpoints is True:
        return CheckpointStore()
    if isinstance(checkpoints, (str, Path)):
        return CheckpointStore(root=checkpoints)
    return checkpoints


def _resolve_manifest_dir(
    manifest: ManifestLike,
    study_cache: Optional["StudyCache"],
    checkpoint_store: Optional["CheckpointStore"],
) -> Optional[Path]:
    """Where (if anywhere) this run's manifest should be written.

    Default (None): next to the study cache when one is in play (or the
    checkpoint store's root otherwise), mirroring how checkpoints follow
    the cache.  True forces the default cache root even for uncached runs;
    a path names the directory outright; False disables the write (the
    manifest object is still built in memory).
    """
    if manifest is False:
        return None
    if isinstance(manifest, (str, Path)):
        return Path(manifest).expanduser()
    if manifest is True:
        from repro.cache import default_cache_root

        return manifests_root(default_cache_root())
    if study_cache is not None:
        return manifests_root(study_cache.root)
    if checkpoint_store is not None:
        return manifests_root(checkpoint_store.root)
    return None


def _build_manifest(
    *,
    config: StudyConfig,
    study_key: str,
    result_counts: Dict[str, int],
    from_cache: bool,
    checkpoint_stages: List[str],
    tracer: Tracer,
    registry: MetricsRegistry,
    profiler: StageProfiler,
    scan_telemetry: Optional[ScanTelemetry],
    scenario_fingerprint: Optional[str] = None,
) -> RunManifest:
    """Assemble the run's manifest from the instrumented pieces."""
    from repro.cache import code_fingerprint, semantic_config

    spans = tracer.tree()
    stage_seconds: Dict[str, float] = {}
    for root in spans:
        for child in root.get("children", []) or []:
            stage_seconds[str(child["name"])] = float(child["duration"])
    execution: Dict[str, object] = {
        "workers": config.workers,
        "from_cache": from_cache,
        "checkpoint_stages": list(checkpoint_stages),
        "stage_seconds": stage_seconds,
        "profile": profiler.results(),
    }
    if scan_telemetry is not None:
        execution["scan_wall_seconds"] = scan_telemetry.wall_seconds
        execution["scan_cpu_seconds"] = scan_telemetry.cpu_seconds
        # Whether a parallel request was served serially (break-even).
        execution["scan_fallback_serial"] = scan_telemetry.fallback_serial
        # Prefilter sharding: how the fast-pattern plane was partitioned
        # and how many shards actually compiled (lazy — untouched shards
        # never pay their compile cost).
        execution["scan_prefilter_shards"] = scan_telemetry.prefilter_shards
        execution["scan_shards_compiled"] = scan_telemetry.shards_compiled
    study: Dict[str, object] = {
        "key": study_key,
        "code": code_fingerprint(),
        "config": {
            name: str(value)
            for name, value in semantic_config(config).items()
        },
    }
    if config.scenario is not None:
        study["scenario"] = {
            "name": config.scenario,
            "fingerprint": scenario_fingerprint,
        }
    return RunManifest(
        study=study,
        outcome=result_counts,
        execution=execution,
        spans=spans,
        metrics=registry.snapshot(),
    )


def run_study(
    config: Optional[StudyConfig] = None,
    *,
    cache: CacheLike = None,
    checkpoints: CheckpointLike = None,
    manifest: ManifestLike = None,
) -> StudyResult:
    """Run the complete pipeline and return its result.

    ``cache`` enables the on-disk study cache: pass True (default root,
    ``~/.cache/repro``), a root path, or a :class:`repro.cache.StudyCache`.
    On a hit, traffic generation, telescope capture, and the NIDS scan are
    skipped entirely and their outputs are loaded from disk; the (cheap)
    analysis stages always run.

    ``checkpoints`` controls crash recovery for the heavy stages.  By
    default it follows the cache (checkpoints live under the same root);
    pass True / a root path / a :class:`repro.cache.CheckpointStore` to
    checkpoint an uncached run, or False to disable.  Each finished stage
    (the captured store, then the alert table) is written into the
    study's partial cache entry, ``<root>/study/<key>.partial/``; a run
    killed mid-way leaves it there, and rerunning the same configuration
    resumes from it, recomputing only the stages it lacks (traffic is
    regenerated only when no store was checkpointed).  The cache save
    publishes the partial entry by rename instead of encoding the stages
    again, and any partial entry left for the key is deleted as soon as
    the run succeeds (its results then live in the study cache).

    ``manifest`` controls the run manifest (:mod:`repro.obs`): by default
    one is written to ``<cache root>/manifests/<study key>.json`` whenever
    a cache or checkpoint root is in play; pass a directory to write it
    elsewhere, True to force the default root, or False to skip the write.
    The manifest object itself is always available as
    ``result.telemetry.manifest``.
    """
    from repro.cache import study_key as compute_study_key
    from repro.scenarios import resolve as resolve_scenario

    config = config or StudyConfig()
    study_cache = _resolve_cache(cache)
    checkpoint_store = _resolve_checkpoints(checkpoints, study_cache)
    manifest_dir = _resolve_manifest_dir(manifest, study_cache, checkpoint_store)
    study_key = compute_study_key(config)
    # Every run goes through scenario resolution — a config without a
    # scenario resolves "paper-default", whose components reproduce the
    # historical hard-wired constructors exactly.
    resolved = resolve_scenario(config.scenario or "paper-default", config)

    tracer = Tracer()
    registry = MetricsRegistry()
    profiler = StageProfiler()

    checkpoint_stages: List[str] = []
    scan_telemetry: Optional[ScanTelemetry] = None

    with tracer.span("run_study", key=study_key, workers=config.workers):
        # Stage 1: datasets, from the resolved scenario's components.  The
        # ruleset is built only where a scan runs, or when the result's
        # ``ruleset`` is first read.
        build_ruleset: Callable[[], Ruleset] = resolved.build_ruleset
        with tracer.span("datasets") as span:
            bundle = build_bundle(resolved.plan)
            span.set("background_cves", len(bundle.nvd_background))

        cached = (
            study_cache.load(config, key=study_key)
            if study_cache is not None
            else None
        )
        if cached is not None:
            with tracer.span("traffic") as span:
                span.set("source", "cache")
            with tracer.span("capture") as span:
                span.set("source", "cache")
                span.set("sessions", len(cached.store))
            with tracer.span("scan") as span:
                span.set("source", "cache")
                span.set("alerts", len(cached.alerts))
            store = cached.store
            alerts = cached.alerts
            collection_stats = cached.collection_stats
            ground_truth = cached.ground_truth
            from_cache = True
            if checkpoint_store is not None:
                # Any checkpoints for this key are leftovers from a run that
                # (evidently) completed elsewhere; drop them.
                checkpoint_store.delete(study_key)
        else:
            from repro.cache.checkpoint import (
                encode_stage_alerts,
                encode_stage_store,
            )

            # A store checkpoint makes traffic unnecessary: probe it first,
            # and generate arrivals only when capture has to run.
            captured = None
            if checkpoint_store is not None:
                captured = checkpoint_store.load(study_key, "store")
                if captured is not None:
                    checkpoint_stages.append("store")

            # Stage 2: traffic generation.
            with tracer.span("traffic") as span:
                if captured is not None:
                    span.set("source", "skipped")
                else:
                    span.set("source", "computed")
                    generator = resolved.build_traffic(bundle.window)
                    with profiler.stage("traffic"):
                        arrivals = generator.generate(tracer=tracer)
                    span.set("arrivals", len(arrivals))

            # Stage 3: telescope capture (or its checkpoint).
            with tracer.span("capture") as span:
                if captured is not None:
                    span.set("source", "checkpoint")
                    store, collection_stats, ground_truth = captured
                else:
                    span.set("source", "computed")
                    collector = resolved.build_collector(bundle.window)
                    with profiler.stage("capture"):
                        store = collector.collect(arrivals, tracer=tracer)
                    del arrivals  # nothing reads the stream after capture
                    collection_stats = collector.stats
                    ground_truth = collector.ground_truth
                    if checkpoint_store is not None:
                        checkpoint_store.save(
                            study_key,
                            "store",
                            encode_stage_store(
                                store, collection_stats, ground_truth
                            ),
                        )
                span.set("sessions", len(store))

            # Stage 4: the NIDS scan (or its checkpoint).
            with tracer.span("scan") as span:
                alerts = None
                if checkpoint_store is not None:
                    alerts = checkpoint_store.load(study_key, "alerts")
                    if alerts is not None:
                        checkpoint_stages.append("alerts")
                        span.set("source", "checkpoint")
                if alerts is None:
                    span.set("source", "computed")
                    ruleset = resolved.build_ruleset()
                    build_ruleset = lambda: ruleset  # noqa: E731
                    engine = DetectionEngine(
                        ruleset, workers=config.workers, tracer=tracer
                    )
                    # The scan reads the store's columns and returns its
                    # alerts as one table: the checkpoint, the cache entry,
                    # the event derivation and the shard all read it.
                    with profiler.stage("scan"):
                        alerts = engine.scan(store)
                    scan_telemetry = engine.stats.telemetry
                    if checkpoint_store is not None:
                        checkpoint_store.save(
                            study_key, "alerts", encode_stage_alerts(alerts)
                        )
                span.set("alerts", len(alerts))
            from_cache = False
            if study_cache is not None:
                study_cache.save(
                    config,
                    key=study_key,
                    store=store,
                    alerts=alerts,
                    collection_stats=collection_stats,
                    ground_truth=ground_truth,
                )
            if checkpoint_store is not None:
                # The run completed: its outputs are in the study cache (or
                # the caller's hands); recovery state has served its purpose.
                checkpoint_store.delete(study_key)

        # Stages 5-6: event extraction, RCA pruning, timeline assembly —
        # shared with the streaming path (repro.analysis.streaming).
        analysis = derive_analysis(
            bundle, alerts, store, tracer=tracer, rca=resolved.build_rca
        )
        events = analysis.events
        kept = analysis.events_per_cve
        decisions = analysis.rca_decisions
        timelines = analysis.timelines

    # Publish this run's telemetry into its registry (and fold the snapshot
    # into the process-wide one), then freeze everything into the manifest.
    if scan_telemetry is not None:
        publish_mapping(registry, "scan", scan_telemetry.as_dict())
    publish_mapping(registry, "capture", collection_stats.as_dict())
    if study_cache is not None:
        publish_mapping(registry, "cache", study_cache.telemetry.as_dict())
    if checkpoint_store is not None:
        publish_mapping(
            registry, "checkpoint", checkpoint_store.telemetry.as_dict()
        )
    result_counts = {
        "sessions": len(store),
        "alerts": len(alerts),
        "events": len(events),
        "kept_cves": len(kept),
    }
    publish_mapping(registry, "pipeline", result_counts)
    get_registry().merge_snapshot(registry.snapshot())

    run_manifest = _build_manifest(
        config=config,
        study_key=study_key,
        result_counts=result_counts,
        from_cache=from_cache,
        checkpoint_stages=checkpoint_stages,
        tracer=tracer,
        registry=registry,
        profiler=profiler,
        scan_telemetry=scan_telemetry,
        scenario_fingerprint=resolved.fingerprint,
    )
    manifest_path: Optional[Path] = None
    if manifest_dir is not None:
        manifest_path = run_manifest.write(manifest_dir / f"{study_key}.json")

    telemetry = StudyTelemetry(
        scan=scan_telemetry,
        cache=(study_cache.telemetry if study_cache is not None else None),
        checkpoints=checkpoint_stages,
        manifest_path=manifest_path,
        manifest=run_manifest,
    )
    return StudyResult(
        config=config,
        bundle=bundle,
        store=store,
        build_ruleset=build_ruleset,
        alerts=alerts,
        events=events,
        events_per_cve=kept,
        rca_decisions=decisions,
        timelines=timelines,
        collection_stats=collection_stats,
        ground_truth=ground_truth,
        from_cache=from_cache,
        telemetry=telemetry,
    )
