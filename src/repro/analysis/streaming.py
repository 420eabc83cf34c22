"""Incremental studies over a streaming session source.

The batch pipeline (:func:`repro.analysis.pipeline.run_study`) answers
"what did two years of traffic show"; this module answers "what does the
study say *right now*" while the traffic is still arriving.  Three pieces:

* :class:`IncrementalStudy` — the accumulator.  Give it each window's
  sessions (whatever the scan reads) and alerts; its
  :meth:`~IncrementalStudy.snapshot` re-derives the full analysis (events,
  RCA pruning, timelines, detection statistics) from the cumulative state.
  After the final window the snapshot is byte-identical to a batch
  ``run_study`` over the same traffic: alerts in the archive's canonical
  ``(timestamp, session_id)`` order, the same
  :class:`repro.nids.engine.DetectionStats`, the same timelines — because
  both paths share :func:`repro.analysis.pipeline.derive_analysis`.
* :func:`watch_study` — the driver.  Tails an arrival source (the
  synthetic :meth:`TrafficGenerator.stream` by default) through
  :meth:`DscopeCollector.collect_windows`, whose windows are the batch
  capture's own session columns, scans each window with one
  :class:`DetectionEngine` (a forked worker pool above the parallel
  break-even threshold, serial below), folds it into an
  :class:`IncrementalStudy`, and yields a :class:`WindowReport` per window — optionally writing a
  rolling, schema-validated :class:`repro.obs.RunManifest` for each.
* The memory contract: the streaming path never materialises the full
  archive.  The accumulator keeps alerts plus payloads of *alerted*
  sessions only (root-cause analysis reads no other payloads); each
  window's sessions are dropped once folded in.  The synthetic arrival
  source itself generates the whole stream first (see
  :meth:`TrafficGenerator.stream`) — a real tap would not.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.analysis.pipeline import StudyConfig, derive_analysis
from repro.datasets.loader import DatasetBundle, build_bundle
from repro.lifecycle.events import CveTimeline, LifecycleEvent
from repro.lifecycle.exploit_events import EventTable, kept_events
from repro.lifecycle.rca import RcaDecision
from repro.nids.engine import (
    DetectionEngine,
    DetectionStats,
    ScanTelemetry,
    Sessions,
    session_columns,
)
from repro.nids.ruleset import Alert
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry, publish_mapping
from repro.obs.trace import Tracer
from repro.store.columnar import AlertTable
from repro.traffic.arrivals import ScanArrival

#: Filename prefix of the rolling manifests a watch run emits (used with
#: ``latest_manifest(root, prefix=WATCH_MANIFEST_PREFIX)``).
WATCH_MANIFEST_PREFIX = "watch-"


@dataclass
class StudySnapshot:
    """The cumulative study state after some number of windows.

    Field-for-field comparable with the corresponding pieces of a batch
    :class:`repro.analysis.pipeline.StudyResult` — after the final window
    they are equal.
    """

    sessions_seen: int
    alerts: AlertTable
    events: EventTable
    events_per_cve: Dict[str, EventTable]
    rca_decisions: List[RcaDecision]
    timelines: Dict[str, CveTimeline]
    stats: DetectionStats

    @property
    def kept_cves(self) -> List[str]:
        """CVEs surviving root-cause analysis so far, sorted."""
        return sorted(self.events_per_cve)

    @cached_property
    def kept_events(self) -> EventTable:
        """Exploit events for surviving CVEs only, time-sorted, as
        :attr:`repro.analysis.pipeline.StudyResult.kept_events`."""
        return kept_events(self.events_per_cve)

    @property
    def a_before_p_rate(self) -> Optional[float]:
        """Share of timelines (with both events known so far) where the
        first attack precedes public disclosure — the study's headline
        zero-day rate, live.  None until at least one timeline has both."""
        verdicts = [
            timeline.precedes(LifecycleEvent.ATTACK, LifecycleEvent.PUBLIC)
            for timeline in self.timelines.values()
        ]
        known = [verdict for verdict in verdicts if verdict is not None]
        if not known:
            return None
        return sum(known) / len(known)

    def outcome_counts(self) -> Dict[str, int]:
        """The manifest's ``outcome`` section (same keys as a batch run)."""
        return {
            "sessions": self.sessions_seen,
            "alerts": len(self.alerts),
            "events": len(self.events),
            "kept_cves": len(self.events_per_cve),
        }


class IncrementalStudy:
    """Accumulate per-window scan output into a cumulative study.

    Bounded memory: only alerts and the payloads of *alerted* sessions are
    retained (root-cause analysis inspects exactly those); unalerted
    sessions are forgotten as soon as their window is folded in.
    """

    def __init__(self, bundle: DatasetBundle, *, rca=None) -> None:
        self.bundle = bundle
        #: Optional RCA factory (a scenario's registered component) passed
        #: through to :func:`derive_analysis` on every snapshot.
        self.rca = rca
        self.sessions_seen = 0
        self.windows_observed = 0
        self._alerts: List[Alert] = []
        self._payloads: Dict[int, bytes] = {}

    @property
    def retained_payloads(self) -> int:
        """How many session payloads the accumulator is holding (== alerted
        sessions; the bounded-memory invariant tests assert on this)."""
        return len(self._payloads)

    def observe(self, sessions: Sessions, alerts: List[Alert]) -> None:
        """Fold one window's sessions (anything the scan reads) and their
        scan alerts in."""
        columns = session_columns(sessions)
        self.windows_observed += 1
        self.sessions_seen += len(columns)
        if alerts:
            payloads = columns.payloads()
            for alert in alerts:
                self._payloads[alert.session_id] = payloads[alert.session_id]
            self._alerts.extend(alerts)

    def cumulative_alerts(self) -> List[Alert]:
        """All alerts so far, in the batch pipeline's canonical order.

        The batch scan iterates the :class:`SessionStore` sorted by
        ``(start, session_id)`` and an alert's timestamp *is* its session's
        start, so sorting by ``(timestamp, session_id)`` reproduces the
        batch alert order exactly — windows may close tenancies out of
        session order, this puts them back.  The list is the accumulator's
        own, sorted in place: read it, do not change it.
        """
        self._alerts.sort(key=lambda alert: (alert.timestamp, alert.session_id))
        return self._alerts

    def snapshot(self, *, tracer: Optional[Tracer] = None) -> StudySnapshot:
        """Re-derive the full analysis from the cumulative state.

        The cumulative alerts are packed into one table, which the event
        derivation and the detection statistics both read.
        """
        alerts = AlertTable.pack(self.cumulative_alerts())
        analysis = derive_analysis(
            self.bundle, alerts, self._payloads, tracer=tracer, rca=self.rca
        )
        # Rebuilt from the canonical alert order so the stats — including
        # alerts_by_sid insertion order — match a serial batch pass.
        stats = DetectionStats(telemetry=ScanTelemetry())
        stats.replay(alerts, sessions_scanned=self.sessions_seen)
        return StudySnapshot(
            sessions_seen=self.sessions_seen,
            alerts=alerts,
            events=analysis.events,
            events_per_cve=analysis.events_per_cve,
            rca_decisions=analysis.rca_decisions,
            timelines=analysis.timelines,
            stats=stats,
        )


@dataclass
class WindowReport:
    """One window's worth of a :func:`watch_study` run."""

    index: int
    start: datetime
    end: datetime
    final: bool
    #: Sessions / alerts contributed by *this* window.
    sessions: int
    alerts: int
    #: Arrivals consumed from the source so far — pass to
    #: ``TrafficGenerator.stream(cursor=...)`` to re-tail from here.
    cursor: int
    #: Cumulative study state after this window.
    snapshot: StudySnapshot
    manifest: Optional[RunManifest] = None
    manifest_path: Optional[Path] = None


def watch_study(
    config: Optional[StudyConfig] = None,
    *,
    window_span: timedelta = timedelta(days=7),
    max_windows: Optional[int] = None,
    manifest_dir: Union[None, str, Path] = None,
    source: Optional[Iterable[ScanArrival]] = None,
    cursor: int = 0,
    threshold: Optional[int] = None,
) -> Iterator[WindowReport]:
    """Tail an arrival source and yield one :class:`WindowReport` per window.

    ``source`` defaults to the synthetic world's
    :meth:`TrafficGenerator.stream` for the given config (resumed from
    ``cursor``); pass any time-sorted arrival iterable to tail something
    else.  Each window is captured incrementally, scanned with the
    config's worker count (the engine forks a worker pool above the
    parallel break-even threshold and runs serially below it — ``threshold``
    overrides the break-even), and folded into an
    :class:`IncrementalStudy`; after the final window the cumulative
    snapshot equals the batch ``run_study`` result for the same config.

    ``manifest_dir`` enables the rolling record: one schema-valid
    :class:`repro.obs.RunManifest` per window, written atomically as
    ``watch-<study key>-<NNNNN>.json``, carrying cumulative outcome counts
    plus per-window execution detail (window bounds, cursor, current
    A-before-P rate).  ``max_windows`` bounds the run (smoke tests, CI).
    """
    from repro.cache.fingerprint import code_fingerprint
    from repro.cache.study import semantic_config
    from repro.cache.study import study_key as compute_study_key
    from repro.scenarios import resolve as resolve_scenario

    config = config or StudyConfig()
    study_key = compute_study_key(config)
    resolved = resolve_scenario(config.scenario or "paper-default", config)
    bundle = build_bundle(resolved.plan)
    ruleset = resolved.build_ruleset()
    if source is None:
        generator = resolved.build_traffic(bundle.window)
        source = generator.stream(cursor=cursor)
    collector = resolved.build_collector(bundle.window)
    engine = DetectionEngine(
        ruleset, workers=config.workers, threshold=threshold
    )
    study = IncrementalStudy(bundle, rca=resolved.build_rca)
    out_dir = Path(manifest_dir).expanduser() if manifest_dir is not None else None
    study_section: Dict[str, object] = {
        "key": study_key,
        "code": code_fingerprint(),
        "config": {
            name: str(value)
            for name, value in semantic_config(config).items()
        },
    }
    if config.scenario is not None:
        study_section["scenario"] = {
            "name": config.scenario,
            "fingerprint": resolved.fingerprint,
        }

    for window in collector.collect_windows(
        source, span=window_span, max_windows=max_windows
    ):
        tracer = Tracer()
        with tracer.span(
            "watch_window", index=window.index, key=study_key
        ) as root:
            with tracer.span("scan") as span:
                alerts = engine.scan(window.sessions)
                span.set("sessions", len(window.sessions))
                span.set("alerts", len(alerts))
            study.observe(window.sessions, alerts)
            snapshot = study.snapshot(tracer=tracer)
            root.set("cursor", cursor + collector.arrivals_fed)

        report = WindowReport(
            index=window.index,
            start=window.start,
            end=window.end,
            final=window.final,
            sessions=len(window.sessions),
            alerts=len(alerts),
            cursor=cursor + collector.arrivals_fed,
            snapshot=snapshot,
        )

        registry = MetricsRegistry()
        publish_mapping(registry, "pipeline", snapshot.outcome_counts())
        publish_mapping(registry, "capture", collector.stats.as_dict())
        execution: Dict[str, object] = {
            "workers": config.workers,
            "from_cache": False,
            "checkpoint_stages": [],
            "window_index": window.index,
            "window_start": window.start.isoformat(),
            "window_end": window.end.isoformat(),
            "window_final": window.final,
            "window_sessions": len(window.sessions),
            "window_alerts": len(alerts),
            "cursor": report.cursor,
            "a_before_p_rate": snapshot.a_before_p_rate,
        }
        report.manifest = RunManifest(
            study=study_section,
            outcome=dict(snapshot.outcome_counts()),
            execution=execution,
            spans=tracer.tree(),
            metrics=registry.snapshot(),
        )
        if out_dir is not None:
            report.manifest_path = report.manifest.write(
                out_dir
                / f"{WATCH_MANIFEST_PREFIX}{study_key}-{window.index:05d}.json"
            )
        yield report
