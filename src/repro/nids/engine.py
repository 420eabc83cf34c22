"""Detection engine: post-facto evaluation of a ruleset over an archive.

This is the reproduction of the study's Snort pass — the entire stored
traffic archive is scanned with the full (retrospective) ruleset, and each
session contributes at most one alert (its earliest-published matching
signature).

The scan reads the ``store`` stage's columns
(:class:`~repro.net.pcapstore.SessionColumns`; records are packed into
them first) and returns the alerts as an
:class:`~repro.store.columnar.AlertTable`, so it builds neither a session
nor an alert.  Its core, :func:`scan_rows`, matches each distinct payload
of a row range once (port-insensitive matching makes the winning rule a
pure function of the payload bytes; archives repeat payloads heavily),
maps the winners onto the rows through their heap indices, and
accumulates a :class:`ScanTelemetry` describing where the scan spent its
time.

The pass is embarrassingly parallel: ``workers > 1`` partitions the rows
into contiguous ranges and scans them in a ``fork`` process pool
(:func:`parallel_scan`) whose workers inherit the compiled ruleset and the
columns instead of receiving copies.  Alerted rows, statistics, and
telemetry are merged in row order, so the parallel scan is
indistinguishable from the serial one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.net.pcapstore import SessionColumns, SessionStore
from repro.net.session import TcpSession
from repro.nids import matcher
from repro.nids.ruleset import Alert, Ruleset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.columnar import AlertTable

#: What a scan reads: a store, its columns, or session records.
Sessions = Union[SessionStore, SessionColumns, Iterable[TcpSession]]

#: Chunks handed to the pool per worker: more than one, so a chunk dense
#: with candidate-heavy payloads does not leave the other workers idle at
#: the end of the scan.
CHUNKS_PER_WORKER = 4

#: Sessions below which a parallel request is scanned serially in-process:
#: below a few tens of thousands of sessions, forking the pool costs more
#: than the match work it splits.  ``threshold=0`` forces the pool on.
DEFAULT_PARALLEL_THRESHOLD = 25000


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
    #: Parallel-path counters (:func:`parallel_scan`): chunks the parent
    #: rescanned itself because their worker raised or the pool broke, and
    #: whether a parallel *request* was served serially (stream below the
    #: break-even size, or no ``fork`` on this platform).
    recovered_chunks: int = 0
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
        """Fold another scan's counters into this one (parallel workers).

        Every field sums except ``prefilter_shards`` (a property of the
        compiled partition, identical in every worker, so ``max``) and
        ``pcre_cache`` (a snapshot: the last one seen).  Summing
        ``wall_seconds`` is only correct for sequential merges (a serial
        engine accumulating passes); the parallel scan overwrites it with
        its own parent-measured elapsed time after merging its workers.
        """
        for item in fields(self):
            name = item.name
            mine, theirs = getattr(self, name), getattr(other, name)
            if name == "prefilter_shards":
                setattr(self, name, max(mine, theirs))
            elif name == "pcre_cache":
                if theirs is not None:
                    self.pcre_cache = theirs
            else:
                setattr(self, name, mine + theirs)

    def snapshot_pcre_cache(self) -> None:
        info = matcher._compiled.cache_info()
        self.pcre_cache = (info.hits, info.misses, info.maxsize, info.currsize)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (benchmark records, debugging dumps): every
        field plus the four derived properties."""
        record: Dict[str, object] = asdict(self)
        for name in (
            "cpu_seconds",
            "utilization",
            "prefilter_hit_ratio",
            "match_cache_hit_ratio",
        ):
            record[name] = getattr(self, name)
        return record


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

    def replay(self, alerts: Iterable[Alert], *, sessions_scanned: int) -> None:
        """Derive the counters from an already-scanned alert stream, from
        its columns (an :class:`~repro.store.columnar.AlertTable`, or the
        alerts packed into one).

        Used for every scan, serial or parallel, and wherever alerts arrive
        pre-computed — a streaming consumer folding in one window at a
        time: each alert counts once, in stream order, so ``alerts_by_sid``
        keeps the order of first appearance.
        """
        from repro.store.columnar import AlertTable

        columns = AlertTable.pack(alerts).columns
        self.sessions_scanned += sessions_scanned
        self.sessions_alerted += int(columns["alert_sid"].size)
        self.pre_publication_alerts += int(
            (columns["alert_t"] < columns["alert_rule_published"]).sum()
        )
        by_sid = self.alerts_by_sid
        for sid, count in Counter(columns["alert_sid"].tolist()).items():
            by_sid[sid] = by_sid.get(sid, 0) + count


def session_columns(sessions: Sessions) -> SessionColumns:
    """The scan's input as columns: a store's own (packed once if it was
    built from records), or a record sequence packed in its order."""
    if isinstance(sessions, SessionColumns):
        return sessions
    if isinstance(sessions, SessionStore):
        return sessions.columns()
    return SessionColumns.pack(list(sessions))


def scan_rows(
    ruleset: Ruleset, columns: SessionColumns, start: int, stop: int
) -> Tuple[np.ndarray, np.ndarray, ScanTelemetry]:
    """Scan rows ``[start, stop)``: the core of serial and worker scans.

    Returns ``(rows, winners, telemetry)``: the alerted rows in row order
    and each one's winning rule index.  Each distinct key of the rows'
    non-empty payloads is matched once, in one
    :meth:`Ruleset.match_payloads` call, and the winners are mapped back
    onto the rows.  The key is the payload's heap index for a
    port-insensitive ruleset (its match is a pure function of the payload)
    and ``(heap index, src_port, dst_port)`` for a port-sensitive one.
    """
    ruleset._ensure_compiled()
    telemetry = ScanTelemetry()
    # Shard counters are cumulative on the ruleset (it outlives scans and is
    # inherited by workers), so the scan records the *delta* — deltas sum
    # correctly when parallel workers merge their telemetry.
    shard_stats_before = ruleset.prefilter_stats()
    started = perf_counter()
    table = columns.columns
    payload = table["session_payload"][start:stop]
    distinct = columns.distinct_payloads()
    lengths = np.diff(table["payload_offset"])[payload]
    matched = np.flatnonzero(lengths > 0)
    if ruleset.port_insensitive:
        used = np.zeros(len(distinct), bool)
        used[payload[matched]] = True
        keys = np.flatnonzero(used).tolist()
        heap_keys, ports = keys, None
    else:
        row_keys = list(zip(
            payload[matched].tolist(),
            table["session_src_port"][start:stop][matched].tolist(),
            table["session_dst_port"][start:stop][matched].tolist(),
        ))
        keys = list(dict.fromkeys(row_keys))
        heap_keys = [key[0] for key in keys]
        ports = [key[1:] for key in keys]
    (
        found,
        telemetry.prefilter_hits,
        telemetry.candidates_nominated,
        telemetry.candidates_evaluated,
        telemetry.prefilter_seconds,
        telemetry.eval_seconds,
    ) = ruleset.match_payloads([distinct[key] for key in heap_keys], ports)
    if ports is None:
        best = np.full(len(distinct), -1, np.int64)
        best[keys] = found
        winners = best[payload]
    else:
        memo = dict(zip(keys, found))
        winners = np.full(stop - start, -1, np.int64)
        winners[matched] = [memo[key] for key in row_keys]
    alerted = np.flatnonzero(winners >= 0)
    telemetry.match_cache_misses = len(keys)
    telemetry.match_cache_hits = int(matched.size) - len(keys)
    telemetry.sessions = stop - start
    telemetry.payload_bytes = int(lengths.sum())
    telemetry.scan_seconds = perf_counter() - started
    telemetry.wall_seconds = telemetry.scan_seconds
    shard_stats = ruleset.prefilter_stats()
    telemetry.prefilter_shards = shard_stats.pop("prefilter_shards")
    for name, value in shard_stats.items():
        setattr(telemetry, name, value - shard_stats_before[name])
    telemetry.snapshot_pcre_cache()
    return alerted + start, winners[alerted], telemetry


def alert_table(
    ruleset: Ruleset,
    columns: SessionColumns,
    rows: np.ndarray,
    winners: np.ndarray,
) -> "AlertTable":
    """The alerts of ``rows`` won by ``winners`` (rule indices), as the
    :class:`~repro.store.columnar.AlertTable` :meth:`AlertTable.pack` of
    their records would give: CVEs interned in alert order."""
    from repro.store.columnar import AlertTable, Interner, intern_codes

    rules = ruleset.alert_columns()
    table = columns.columns
    cves = Interner()
    return AlertTable(
        {
            "alert_session": table["session_id"][rows],
            "alert_t": table["session_start"][rows],
            "alert_sid": rules.sid[winners],
            "alert_cve": intern_codes(rules.cve[winners], rules.cves, cves),
            "alert_rule_published": rules.published[winners],
            "alert_src_ip": table["session_src_ip"][rows].astype(np.int64),
            "alert_dst_ip": table["session_dst_ip"][rows].astype(np.int64),
            "alert_dst_port": table["session_dst_port"][rows].astype(np.int32),
        },
        cves.values,
        zones=(columns.zone, rules.zone),
    )


def scan_stream(
    ruleset: Ruleset, sessions: Sessions
) -> Tuple["AlertTable", int, ScanTelemetry]:
    """Scan sessions (a store, columns, or records) serially.

    Returns ``(alerts, sessions_scanned, telemetry)`` with the alerts in
    session order, as an :class:`~repro.store.columnar.AlertTable`.
    """
    columns = session_columns(sessions)
    rows, winners, telemetry = scan_rows(ruleset, columns, 0, len(columns))
    return alert_table(ruleset, columns, rows, winners), len(columns), telemetry


#: The pool worker's scan inputs, set by :func:`_init_worker`.  Under
#: ``fork`` they are inherited from the parent, never pickled, and each
#: pool has its own, so concurrent scans from threads stay isolated.
_worker_ruleset: Optional[Ruleset] = None
_worker_columns: Optional[SessionColumns] = None


def _init_worker(ruleset: Ruleset, columns: SessionColumns) -> None:
    global _worker_ruleset, _worker_columns
    _worker_ruleset, _worker_columns = ruleset, columns


def _scan_chunk(
    bounds: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray, ScanTelemetry]:
    """Scan one contiguous ``(start, stop)`` row range in a pool worker;
    its alerts go back as two small index arrays."""
    start, stop = bounds
    return scan_rows(_worker_ruleset, _worker_columns, start, stop)


def parallel_scan(
    ruleset: Ruleset,
    sessions: Sessions,
    *,
    workers: int,
    tracer=None,
    threshold: Optional[int] = None,
) -> Tuple["AlertTable", int, ScanTelemetry]:
    """Scan sessions across ``workers`` forked processes.

    Returns ``(alerts, sessions_scanned, telemetry)`` exactly as
    :func:`scan_stream` does for the same sessions: the rows are cut into
    ``workers * CHUNKS_PER_WORKER`` contiguous ranges, and the ranges'
    alerted rows, winners and telemetry are merged in range order.

    Inputs shorter than ``threshold`` sessions (default
    :data:`DEFAULT_PARALLEL_THRESHOLD`; 0 forces the pool on), and every
    input where ``fork`` is unavailable, are scanned serially, with
    ``telemetry.fallback_serial`` recording the decision.

    If a chunk raises or a worker dies (breaking the pool), every chunk
    without a result is rescanned serially in this process and counted in
    ``telemetry.recovered_chunks``, so the output never depends on the
    pool's health.  With ``tracer`` (a :class:`repro.obs.Tracer`), each
    chunk attaches a pre-measured child span to the caller's open span.
    ``wall_seconds`` is measured here around the whole pass; the summed
    worker clocks are ``cpu_seconds``.
    """
    started = perf_counter()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if threshold is None:
        threshold = DEFAULT_PARALLEL_THRESHOLD
    elif threshold < 0:
        raise ValueError("parallel threshold must be >= 0")
    columns = session_columns(sessions)
    count = len(columns)
    chunk = max(1, -(-count // (workers * CHUNKS_PER_WORKER)))
    bounds = [
        (start, min(start + chunk, count)) for start in range(0, count, chunk)
    ]
    pooled = workers > 1 and len(bounds) > 1 and count >= threshold
    if pooled:
        # The pool's modules load only where a pool may start.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pooled = "fork" in multiprocessing.get_all_start_methods()
    if not pooled:
        alerts, scanned, telemetry = scan_stream(ruleset, columns)
        telemetry.fallback_serial = int(workers > 1)
        return alerts, scanned, telemetry

    # Compile and split the heap before forking, so every worker inherits
    # the compiled tables and the payloads.
    ruleset._ensure_compiled()
    columns.distinct_payloads()
    results: Dict[int, Tuple[np.ndarray, np.ndarray, ScanTelemetry]] = {}

    def _keep(index: int, result, source: str) -> None:
        results[index] = result
        if tracer is not None:
            tracer.child(
                f"chunk-{index:05d}",
                duration=result[2].scan_seconds,
                sessions=result[2].sessions,
                source=source,
            )

    # ``fork``, not ``spawn``: spawned workers would receive the ruleset and
    # the columns pickled, the transfer cost that made every pickling or
    # shared-memory design slower than this one.
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(ruleset, columns),
        ) as pool:
            futures = {
                pool.submit(_scan_chunk, bound): index
                for index, bound in enumerate(bounds)
            }
            for future in as_completed(futures):
                try:
                    result = future.result()
                except Exception:
                    continue  # rescanned in this process below
                _keep(futures[future], result, "worker")
    except BrokenProcessPool:
        pass  # the pool died while accepting work; rescanned below
    recovered = [index for index in range(len(bounds)) if index not in results]
    for index in recovered:
        _keep(index, scan_rows(ruleset, columns, *bounds[index]), "recovered")

    telemetry = ScanTelemetry()
    for index in range(len(bounds)):
        telemetry.merge(results[index][2])
    telemetry.recovered_chunks = len(recovered)
    rows = np.concatenate([results[index][0] for index in range(len(bounds))])
    winners = np.concatenate([results[index][1] for index in range(len(bounds))])
    alerts = alert_table(ruleset, columns, rows, winners)
    telemetry.wall_seconds = perf_counter() - started
    return alerts, count, telemetry


class DetectionEngine:
    """Run a :class:`Ruleset` over session streams.

    Every scan goes through :func:`parallel_scan`: ``workers`` 1 (the
    default) scans in-process; N > 1 scans in N forked worker processes
    with identical results.  ``threshold`` is that path's break-even stream
    size (``threshold=0`` forces the pool on), and ``tracer`` (a
    :class:`repro.obs.Tracer`, optional) receives its per-chunk spans.
    """

    def __init__(
        self,
        ruleset: Ruleset,
        *,
        workers: int = 1,
        tracer=None,
        threshold: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.ruleset = ruleset
        self.workers = workers
        self.tracer = tracer
        self.threshold = threshold
        self.stats = DetectionStats()

    def scan(self, sessions: Sessions) -> "AlertTable":
        """Scan sessions; returns the retained alerts in session order, as
        an :class:`~repro.store.columnar.AlertTable`."""
        alerts, scanned, telemetry = parallel_scan(
            self.ruleset,
            sessions,
            workers=self.workers,
            tracer=self.tracer,
            threshold=self.threshold,
        )
        self.stats.replay(alerts, sessions_scanned=scanned)
        self.stats.telemetry.merge(telemetry)
        return alerts
