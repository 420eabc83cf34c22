"""Detection engine: post-facto evaluation of a ruleset over an archive.

This is the reproduction of the study's Snort pass — the entire stored
traffic archive is scanned with the full (retrospective) ruleset, and each
session contributes at most one alert (its earliest-published matching
signature).

The serial scan is a stream: :func:`scan_stream` consumes sessions one at a
time without materializing per-session candidate lists, memoises the match
outcome per distinct payload (port-insensitive matching makes the winning
rule a pure function of the payload bytes; archives repeat payloads
heavily), and accumulates a :class:`ScanTelemetry` describing where the
scan spent its time.

The pass is embarrassingly parallel: ``workers > 1`` partitions the archive
into contiguous chunks and evaluates them in a process pool
(:mod:`repro.nids.parallel`), each worker holding its own compiled ruleset.
Alerts, statistics, and telemetry are merged in session order, so the
parallel scan is indistinguishable from the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.session import TcpSession
from repro.nids import matcher
from repro.nids.ruleset import Alert, Ruleset

@dataclass
class ScanTelemetry:
    """Where a scan spent its work, threaded through serial and parallel
    paths into :class:`DetectionStats`."""

    sessions: int = 0
    payload_bytes: int = 0
    #: Payloads (memo misses) where the prefilter nominated >= 1 candidate.
    prefilter_hits: int = 0
    candidates_nominated: int = 0
    candidates_evaluated: int = 0
    match_cache_hits: int = 0
    match_cache_misses: int = 0
    prefilter_seconds: float = 0.0
    eval_seconds: float = 0.0
    scan_seconds: float = 0.0
    #: Elapsed time as the *caller* experienced it.  For a serial scan this
    #: equals ``scan_seconds``; for a parallel scan it is measured by the
    #: parent around the whole pool pass, while ``scan_seconds`` (summed
    #: across workers — see :attr:`cpu_seconds`) counts concurrent work and
    #: can legitimately exceed it.  Never report summed worker clocks as
    #: elapsed time.
    wall_seconds: float = 0.0
    #: Recovery counters, populated only by the fault-tolerant parallel
    #: path (:func:`repro.nids.parallel.parallel_scan`): chunk submissions
    #: that were retries, pool generations lost to worker death, chunks
    #: that failed at least once but were recovered in the pool, chunks
    #: that fell back to the in-process serial scan, and chunks served
    #: from the on-disk checkpoint store instead of being rescanned.
    chunk_retries: int = 0
    pool_respawns: int = 0
    recovered_chunks: int = 0
    poison_chunks: int = 0
    checkpoint_hits: int = 0
    #: Transfer-plane counters, also parallel-path only: bytes of the
    #: shared-memory arena the workers scanned from, time spent building
    #: it, time spent on the remaining cross-process transfer work
    #: (ruleset pickling, result decode/merge), whether the scan reused an
    #: already-warm worker pool instead of forking a fresh one, and
    #: whether a parallel *request* was served serially because the stream
    #: fell below the break-even threshold.
    arena_bytes: int = 0
    arena_build_seconds: float = 0.0
    transfer_seconds: float = 0.0
    pool_reuses: int = 0
    fallback_serial: int = 0
    #: Sharded-prefilter counters (zero when the prefilter is monolithic):
    #: shard count of the widest engine seen (merged via ``max``, since
    #: every worker compiles the *same* partition), shard compiles actually
    #: performed with their compile time (summed — lazy compilation means a
    #: worker only pays for shards its payloads touched), and shard-engine
    #: searches issued.
    prefilter_shards: int = 0
    shards_compiled: int = 0
    shard_compile_seconds: float = 0.0
    shard_searches: int = 0
    #: Snapshot of the pcre compile cache (hits, misses, maxsize, currsize)
    #: taken when the scan finishes — eviction churn shows up as misses
    #: exceeding the distinct-pattern count.
    pcre_cache: Optional[Tuple[int, int, Optional[int], int]] = None

    @property
    def cpu_seconds(self) -> float:
        """Total scanning work summed across workers (= ``scan_seconds``)."""
        return self.scan_seconds

    @property
    def utilization(self) -> float:
        """Parallel speed-up actually realised: cpu seconds per wall second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cpu_seconds / self.wall_seconds

    @property
    def prefilter_hit_ratio(self) -> float:
        """Fraction of prefiltered payloads that nominated candidates."""
        if self.match_cache_misses == 0:
            return 0.0
        return self.prefilter_hits / self.match_cache_misses

    @property
    def match_cache_hit_ratio(self) -> float:
        probes = self.match_cache_hits + self.match_cache_misses
        if probes == 0:
            return 0.0
        return self.match_cache_hits / probes

    def merge(self, other: "ScanTelemetry") -> None:
        """Fold another scan's counters into this one (parallel workers)."""
        self.sessions += other.sessions
        self.payload_bytes += other.payload_bytes
        self.prefilter_hits += other.prefilter_hits
        self.candidates_nominated += other.candidates_nominated
        self.candidates_evaluated += other.candidates_evaluated
        self.match_cache_hits += other.match_cache_hits
        self.match_cache_misses += other.match_cache_misses
        self.prefilter_seconds += other.prefilter_seconds
        self.eval_seconds += other.eval_seconds
        self.scan_seconds += other.scan_seconds
        # Summing is only correct for sequential merges (a serial engine
        # accumulating passes); the parallel scan overwrites this with its
        # own parent-measured elapsed time after merging its workers.
        self.wall_seconds += other.wall_seconds
        self.chunk_retries += other.chunk_retries
        self.pool_respawns += other.pool_respawns
        self.recovered_chunks += other.recovered_chunks
        self.poison_chunks += other.poison_chunks
        self.checkpoint_hits += other.checkpoint_hits
        self.arena_bytes += other.arena_bytes
        self.arena_build_seconds += other.arena_build_seconds
        self.transfer_seconds += other.transfer_seconds
        self.pool_reuses += other.pool_reuses
        self.fallback_serial += other.fallback_serial
        # Shard count is a property of the compiled partition, not work
        # done: identical in every worker, so max (not sum) merges it.
        self.prefilter_shards = max(self.prefilter_shards, other.prefilter_shards)
        self.shards_compiled += other.shards_compiled
        self.shard_compile_seconds += other.shard_compile_seconds
        self.shard_searches += other.shard_searches
        if other.pcre_cache is not None:
            self.pcre_cache = other.pcre_cache

    def snapshot_pcre_cache(self) -> None:
        info = matcher._compiled.cache_info()
        self.pcre_cache = (info.hits, info.misses, info.maxsize, info.currsize)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (benchmark records, debugging dumps)."""
        return {
            "sessions": self.sessions,
            "payload_bytes": self.payload_bytes,
            "prefilter_hits": self.prefilter_hits,
            "prefilter_hit_ratio": self.prefilter_hit_ratio,
            "candidates_nominated": self.candidates_nominated,
            "candidates_evaluated": self.candidates_evaluated,
            "match_cache_hits": self.match_cache_hits,
            "match_cache_misses": self.match_cache_misses,
            "match_cache_hit_ratio": self.match_cache_hit_ratio,
            "prefilter_seconds": self.prefilter_seconds,
            "eval_seconds": self.eval_seconds,
            "scan_seconds": self.scan_seconds,
            "cpu_seconds": self.cpu_seconds,
            "wall_seconds": self.wall_seconds,
            "utilization": self.utilization,
            "chunk_retries": self.chunk_retries,
            "pool_respawns": self.pool_respawns,
            "recovered_chunks": self.recovered_chunks,
            "poison_chunks": self.poison_chunks,
            "checkpoint_hits": self.checkpoint_hits,
            "arena_bytes": self.arena_bytes,
            "arena_build_seconds": self.arena_build_seconds,
            "transfer_seconds": self.transfer_seconds,
            "pool_reuses": self.pool_reuses,
            "fallback_serial": self.fallback_serial,
            "prefilter_shards": self.prefilter_shards,
            "shards_compiled": self.shards_compiled,
            "shard_compile_seconds": self.shard_compile_seconds,
            "shard_searches": self.shard_searches,
            "pcre_cache": self.pcre_cache,
        }

    #: Counter fields restored by :meth:`from_dict` (derived ratios are
    #: recomputed; keys outside this list, such as the ``engine`` label older
    #: checkpoints carry, are ignored).
    _COUNTER_FIELDS = (
        "sessions",
        "payload_bytes",
        "prefilter_hits",
        "candidates_nominated",
        "candidates_evaluated",
        "match_cache_hits",
        "match_cache_misses",
        "prefilter_seconds",
        "eval_seconds",
        "scan_seconds",
        "wall_seconds",
        "chunk_retries",
        "pool_respawns",
        "recovered_chunks",
        "poison_chunks",
        "checkpoint_hits",
        "arena_bytes",
        "arena_build_seconds",
        "transfer_seconds",
        "pool_reuses",
        "fallback_serial",
        "prefilter_shards",
        "shards_compiled",
        "shard_compile_seconds",
        "shard_searches",
    )

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "ScanTelemetry":
        """Rebuild a telemetry from :meth:`as_dict` output (checkpoints)."""
        telemetry = cls()
        for name in cls._COUNTER_FIELDS:
            value = record.get(name)
            if value is not None:
                setattr(telemetry, name, value)
        pcre = record.get("pcre_cache")
        if pcre is not None:
            telemetry.pcre_cache = tuple(pcre)  # type: ignore[assignment]
        return telemetry


@dataclass
class DetectionStats:
    """Counters from one engine pass.

    ``telemetry`` is diagnostic (timings vary run to run) and excluded from
    equality so parallel and serial passes still compare equal.
    """

    sessions_scanned: int = 0
    sessions_alerted: int = 0
    pre_publication_alerts: int = 0
    alerts_by_sid: Dict[int, int] = field(default_factory=dict)
    telemetry: ScanTelemetry = field(default_factory=ScanTelemetry, compare=False)

    @property
    def alert_rate(self) -> float:
        if self.sessions_scanned == 0:
            return 0.0
        return self.sessions_alerted / self.sessions_scanned

    def record(self, alert: Alert) -> None:
        """Account one retained alert."""
        self.sessions_alerted += 1
        if alert.pre_publication:
            self.pre_publication_alerts += 1
        self.alerts_by_sid[alert.sid] = self.alerts_by_sid.get(alert.sid, 0) + 1

    def replay(self, alerts: Iterable[Alert], *, sessions_scanned: int) -> None:
        """Re-derive counters from an already-scanned alert stream.

        Used wherever alerts arrive pre-computed — the merged output of a
        parallel pass, or a streaming consumer folding in one window at a
        time — and must be accounted exactly as a serial :meth:`record`
        loop would (including ``alerts_by_sid`` insertion order).
        """
        self.sessions_scanned += sessions_scanned
        for alert in alerts:
            self.record(alert)


def scan_stream(
    ruleset: Ruleset, sessions: Iterable[TcpSession]
) -> Tuple[List[Alert], int, ScanTelemetry]:
    """Scan a session stream; the shared core of serial and worker scans.

    Returns ``(alerts, sessions_scanned, telemetry)`` with alerts in stream
    order.  Match outcomes are memoised per payload (plus the port pair when
    the ruleset is port-sensitive, since ports then join the match
    decision).
    """
    ruleset._ensure_compiled()
    telemetry = ScanTelemetry()
    # Shard counters are cumulative on the ruleset (it outlives scans and is
    # digest-cached in workers), so the stream records the *delta* — deltas
    # sum correctly when parallel workers merge their telemetry.
    shard_stats_before = ruleset.prefilter_stats()
    started = perf_counter()
    items = sessions if isinstance(sessions, list) else list(sessions)
    scanned = len(items)

    match_payload = ruleset._match_payload
    alert_for = ruleset._alert_for
    port_sensitive = not ruleset.port_insensitive
    # Pass 1: resolve each distinct payload (plus the port pair when the
    # ruleset is port-sensitive, since ports then join the match decision)
    # to its winning rule index once.  The dedup itself is a C-speed set
    # comprehension rather than a per-session probe loop.
    memo: Dict[object, Optional[int]] = {}
    prefilter_hits = nominated = evaluated = 0
    prefilter_seconds = eval_seconds = 0.0
    if port_sensitive:
        distinct = {
            (session.payload, session.src_port, session.dst_port)
            for session in items
            if session.payload
        }
        probes = sum(1 for session in items if session.payload)
        for key in distinct:
            payload, src_port, dst_port = key
            winner, hit, n_nominated, n_evaluated, t_prefilter, t_eval = (
                match_payload(payload, src_port=src_port, dst_port=dst_port)
            )
            memo[key] = winner
            if hit:
                prefilter_hits += 1
            nominated += n_nominated
            evaluated += n_evaluated
            prefilter_seconds += t_prefilter
            eval_seconds += t_eval
    else:
        payloads = {session.payload for session in items}
        payloads.discard(b"")
        probes = scanned - sum(1 for session in items if not session.payload)
        (
            memo,
            prefilter_hits,
            nominated,
            evaluated,
            prefilter_seconds,
            eval_seconds,
        ) = ruleset.match_payloads(payloads)
    # Pass 2: emit alerts in stream order.  Empty payloads miss the memo and
    # fall out as None, same as a no-match.
    memo_get = memo.get
    if port_sensitive:
        alerts = [
            alert_for(winner, session)
            for session in items
            if (
                winner := memo_get(
                    (session.payload, session.src_port, session.dst_port)
                )
            )
            is not None
        ]
    else:
        alerts = [
            alert_for(winner, session)
            for session in items
            if (winner := memo_get(session.payload)) is not None
        ]
    telemetry.match_cache_misses = len(memo)
    telemetry.match_cache_hits = probes - len(memo)
    telemetry.prefilter_hits = prefilter_hits
    telemetry.candidates_nominated = nominated
    telemetry.candidates_evaluated = evaluated
    telemetry.prefilter_seconds = prefilter_seconds
    telemetry.eval_seconds = eval_seconds
    telemetry.sessions = scanned
    telemetry.payload_bytes = sum(len(session.payload) for session in items)
    telemetry.scan_seconds = perf_counter() - started
    telemetry.wall_seconds = telemetry.scan_seconds
    shard_stats = ruleset.prefilter_stats()
    telemetry.prefilter_shards = int(shard_stats["prefilter_shards"])
    telemetry.shards_compiled = int(
        shard_stats["shards_compiled"] - shard_stats_before["shards_compiled"]
    )
    telemetry.shard_compile_seconds = (
        shard_stats["shard_compile_seconds"]
        - shard_stats_before["shard_compile_seconds"]
    )
    telemetry.shard_searches = int(
        shard_stats["shard_searches"] - shard_stats_before["shard_searches"]
    )
    telemetry.snapshot_pcre_cache()
    return alerts, scanned, telemetry


class DetectionEngine:
    """Run a :class:`Ruleset` over session streams.

    ``workers`` selects the scan strategy: 1 (the default) scans in-process;
    N > 1 scans in N worker processes with identical results.
    ``chunk_size`` overrides the per-task partition size for parallel scans
    (defaults to an even split across the pool).

    ``checkpoint_store`` (a :class:`repro.cache.CheckpointStore`) together
    with ``checkpoint_key`` enables per-chunk crash checkpoints on the
    parallel path: completed chunks spill to disk as they finish, and a
    killed scan rescans only the missing chunks on the next run.  The
    caller owns deleting the checkpoints once the surrounding run succeeds.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) records per-chunk
    spans on the parallel path as chunk results arrive — workers cannot
    share the parent's tracer, so their timings attach as pre-measured
    child spans.

    ``threshold`` is the break-even stream size below which a parallel
    request runs serially anyway (see
    :func:`repro.nids.parallel.parallel_scan`; ``threshold=0`` forces the
    pool on).  It defaults to ``REPRO_PARALLEL_THRESHOLD``.
    """

    def __init__(
        self,
        ruleset: Ruleset,
        *,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        checkpoint_store=None,
        checkpoint_key: Optional[str] = None,
        tracer=None,
        threshold: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.ruleset = ruleset
        self.workers = workers
        self.chunk_size = chunk_size
        self.checkpoint_store = checkpoint_store
        self.checkpoint_key = checkpoint_key
        self.tracer = tracer
        self.threshold = threshold
        self.stats = DetectionStats()

    def scan(self, sessions: Iterable[TcpSession]) -> List[Alert]:
        """Scan sessions; returns retained alerts in session order."""
        if self.workers == 1:
            return self._scan_serial(sessions)
        from repro.nids.parallel import parallel_scan

        alerts, scanned, telemetry = parallel_scan(
            self.ruleset,
            sessions,
            workers=self.workers,
            chunk_size=self.chunk_size,
            checkpoint_store=self.checkpoint_store,
            checkpoint_key=self.checkpoint_key,
            tracer=self.tracer,
            threshold=self.threshold,
        )
        # Re-derive the counters from the merged alert stream so the stats
        # (including alerts_by_sid insertion order) match a serial pass.
        self.stats.replay(alerts, sessions_scanned=scanned)
        self.stats.telemetry.merge(telemetry)
        return alerts

    def _scan_serial(self, sessions: Iterable[TcpSession]) -> List[Alert]:
        alerts, scanned, telemetry = scan_stream(self.ruleset, sessions)
        self.stats.replay(alerts, sessions_scanned=scanned)
        self.stats.telemetry.merge(telemetry)
        return alerts

    def scan_one(self, session: TcpSession) -> Optional[Alert]:
        """Scan a single session (updates stats identically)."""
        results = self._scan_serial([session])
        return results[0] if results else None
