"""Multiprocess post-facto scanning: zero-copy transfer, warm pools,
crash recovery, and checkpoints.

The study's NIDS pass is embarrassingly parallel: each stored session is
matched against the ruleset independently, and the per-session results are
merged back in session order.  This module partitions a session archive into
contiguous chunks, evaluates them in a process pool, and concatenates the
per-chunk alert lists — so the merged output is *identical* (same alerts,
same order, same fields) to a serial scan of the same stream.

Transfer costs, not match work, used to dominate a pool scan (a fork +
pickled-tuple transfer measured a 0.61x *slowdown* at full scale), so the
data plane is built around three ideas:

* **shared-memory arenas** (:mod:`repro.nids.arena`): the session archive
  and the pickled ruleset are serialized once into a flat byte-frame
  segment; workers — on *every* start method — receive only ``(start,
  stop)`` index pairs, attach to the segment by name, decode just their
  slice through memoryviews, and cache the compiled ruleset by digest, so
  repeated scans ship zero bytes of ruleset.  The ruleset pickles in
  *source* form (``Ruleset.__getstate__`` drops every derived table, so
  the blob stays compact even at 10k-rule scale); each worker compiles
  once per digest, and with a sharded prefilter the shards themselves
  compile lazily — only on the first chunk whose payloads search them —
  and stay warm in the digest cache for every later chunk and scan;
* a **persistent warm pool** (:class:`WorkerPool`): worker processes are
  started lazily and *reused* across scans, pipeline stages, and repeated
  ``run_study`` calls instead of being re-forked per scan (``pool_reuses``
  on the telemetry counts the savings);
* a **break-even fallback**: streams smaller than
  :data:`DEFAULT_PARALLEL_THRESHOLD` sessions (override with
  ``REPRO_PARALLEL_THRESHOLD``) are scanned serially in-process even when
  workers were requested — below that size, arena build + pool dispatch
  cost more than the match work saved.  The decision is recorded as
  ``fallback_serial`` on the telemetry (and from there in the run
  manifest).

Fault tolerance (the recovery protocol):

* chunks are submitted as individual futures, so one chunk's outcome never
  implicates another's.  A chunk-level exception marks only that chunk
  failed; a worker *death* (OOM kill, segfault, ``os._exit``) breaks the
  whole pool, which is respawned — bounded by :data:`MAX_POOL_RESPAWNS`,
  with exponential backoff — and only the still-unfinished chunks are
  resubmitted;
* a chunk that fails :data:`MAX_CHUNK_ATTEMPTS` times is a **poison
  chunk**: it is taken out of the pool entirely and scanned serially
  in-process, so the merged output stays byte-identical to a serial scan
  no matter how the pool misbehaves;
* with a checkpoint store attached, every completed chunk spills its result
  to disk (:mod:`repro.cache.checkpoint`); a killed process rescans only
  the chunks that never checkpointed on its next run;
* the arena segment is unlinked in a ``finally`` (backed by a
  ``weakref.finalize`` finalizer), so aborted or crashed scans do not leak
  ``/dev/shm`` space; SIGKILL orphans are swept by
  :func:`repro.cache.gc.collect_shm_garbage`.

Recovery and transfer work are counted on the returned
:class:`ScanTelemetry` (``chunk_retries``, ``pool_respawns``,
``recovered_chunks``, ``poison_chunks``, ``checkpoint_hits``,
``arena_bytes``, ``arena_build_seconds``, ``transfer_seconds``,
``pool_reuses``, ``fallback_serial``).

Deterministic fault injection makes all of this testable without real OOMs:
``REPRO_FAULT=worker_crash:<chunk>[:<times>]`` kills the worker scanning
that chunk on its first ``times`` attempts, ``chunk_error:<chunk>[:<times>]``
raises inside it instead, and ``scan_abort:<n>`` aborts the *parent* after
``n`` chunks have completed (simulating a killed run whose checkpoints
survive).  Worker faults cross into warm-pool workers inside the task
tuples themselves (a long-lived worker cannot re-read the parent's
environment), so ``REPRO_FAULT`` keeps working no matter when the pool was
started.  Tests can also install an in-process callable via
:data:`_fault_hook`; since a callable cannot cross into an already-running
pool, a scan with the hook set runs on a dedicated fork pool.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from datetime import datetime
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.net.session import TcpSession
from repro.nids.arena import SessionArena
from repro.nids.ruleset import Alert, Ruleset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.checkpoint import CheckpointStore
    from repro.nids.engine import ScanTelemetry

#: Chunks handed to the pool per worker: >1 so a slow chunk (one dense with
#: candidate-heavy payloads) does not leave the other workers idle at the
#: end of the scan.
CHUNKS_PER_WORKER = 4

#: Pool attempts per chunk before it is declared poison and scanned
#: serially in-process.
MAX_CHUNK_ATTEMPTS = 2

#: Pool generations (original + respawns) before the remaining chunks all
#: fall back to the in-process serial scan.
MAX_POOL_RESPAWNS = 3

#: Exponential backoff between pool respawns: base * 2**(respawn-1),
#: capped.  ``REPRO_RETRY_BACKOFF`` overrides the base (tests set it to 0).
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_MAX_SECONDS = 2.0

#: Sessions below which a parallel-requested scan runs serially in-process.
#: Calibrated against the measured serial throughput (~150k sessions/s at
#: study scale on the reference container) vs the fixed parallel overhead
#: (arena build at ~1M sessions/s plus pool dispatch, ~100-200 ms): below a
#: few tens of thousands of sessions the pool cannot pay for itself even
#: with perfect scaling.  Override with ``REPRO_PARALLEL_THRESHOLD`` (0
#: forces the pool on, e.g. for tests and benches).
DEFAULT_PARALLEL_THRESHOLD = 25000

#: Environment knob for the break-even size.
THRESHOLD_ENV = "REPRO_PARALLEL_THRESHOLD"

#: Compiled rulesets a worker keeps, keyed by blob digest: headroom for a
#: few studies (or rulesets) scanned through one warm pool in turn.
RULESET_CACHE_SIZE = 4

#: Test hook: called in the parent once its pool is ready (workers
#: available, no locks held) and before any chunk is scanned.  Lets tests
#: assert that two threaded scans genuinely overlap.
_after_fork_hook: Optional[Callable[[], None]] = None

#: Fault-injection hook: called in each worker as ``hook(chunk_index,
#: attempt)`` before the chunk is scanned; it may raise or ``os._exit``.
#: When None, the fault spec shipped in the task is consulted instead.  A
#: callable cannot cross into an already-warm pool, so scans run on a
#: dedicated fork pool while the hook is set.
_fault_hook: Optional[Callable[[int, int], None]] = None

AlertTuple = tuple


class InjectedFault(RuntimeError):
    """A chunk-level failure raised by the fault-injection hook."""


class ScanAborted(RuntimeError):
    """The parent-side ``scan_abort`` fault fired (simulated kill)."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``REPRO_FAULT`` directive."""

    kind: str  #: ``worker_crash`` | ``chunk_error`` | ``scan_abort``
    target: int  #: chunk index (crash/error) or completed-chunk count (abort)
    times: int = 1  #: how many attempts the fault fires on (crash/error)


def parse_fault(text: Optional[str]) -> Optional[FaultSpec]:
    """Parse ``kind:target[:times]`` fault syntax (None/empty → no fault).

    >>> parse_fault("worker_crash:3")
    FaultSpec(kind='worker_crash', target=3, times=1)
    >>> parse_fault("chunk_error:0:2").times
    2
    >>> parse_fault(None) is None
    True
    """
    if not text:
        return None
    parts = text.split(":")
    if parts[0] not in ("worker_crash", "chunk_error", "scan_abort"):
        raise ValueError(f"unknown fault kind in {text!r}")
    if len(parts) not in (2, 3):
        raise ValueError(f"malformed fault spec {text!r}")
    try:
        target = int(parts[1])
        times = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ValueError(f"malformed fault spec {text!r}") from None
    return FaultSpec(kind=parts[0], target=target, times=times)


def _active_fault() -> Optional[FaultSpec]:
    return parse_fault(os.environ.get("REPRO_FAULT"))


def parallel_threshold(threshold: Optional[int] = None) -> int:
    """Resolve the serial-fallback break-even size: explicit argument >
    ``REPRO_PARALLEL_THRESHOLD`` > :data:`DEFAULT_PARALLEL_THRESHOLD`."""
    if threshold is not None:
        if threshold < 0:
            raise ValueError("parallel threshold must be >= 0")
        return threshold
    env = os.environ.get(THRESHOLD_ENV)
    if env is not None and env != "":
        value = int(env)
        if value < 0:
            raise ValueError(f"{THRESHOLD_ENV} must be >= 0, got {env!r}")
        return value
    return DEFAULT_PARALLEL_THRESHOLD


def _inject_worker_fault(
    chunk_index: int, attempt: int, spec: Optional[FaultSpec]
) -> None:
    """Worker-side fault point, reached before a chunk is scanned.

    ``spec`` is the parent's ``REPRO_FAULT`` directive, shipped inside the
    task (a warm worker cannot re-read the parent's environment).
    """
    hook = _fault_hook
    if hook is not None:
        hook(chunk_index, attempt)
        return
    if spec is None or spec.kind == "scan_abort":
        return
    if spec.target == chunk_index and attempt <= spec.times:
        if spec.kind == "worker_crash":
            # Simulate an OOM kill / segfault: die without cleanup, which
            # breaks the whole pool, not just this future.
            os._exit(99)
        raise InjectedFault(
            f"injected chunk_error on chunk {chunk_index} attempt {attempt}"
        )


def _encode_alerts(alerts: List[Alert]) -> List[AlertTuple]:
    return [
        (
            alert.session_id,
            alert.timestamp,
            alert.sid,
            alert.cve_id,
            alert.rule_published,
            alert.dst_ip,
            alert.dst_port,
            alert.src_ip,
        )
        for alert in alerts
    ]


def _decode_alerts(rows: List[AlertTuple]) -> List[Alert]:
    return [
        Alert(
            session_id=row[0],
            timestamp=row[1],
            sid=row[2],
            cve_id=row[3],
            rule_published=row[4],
            dst_ip=row[5],
            dst_port=row[6],
            src_ip=row[7],
        )
        for row in rows
    ]


def _rows_to_json(rows: List[AlertTuple]) -> List[list]:
    """Alert tuples → JSON-native lists (timestamps to strings)."""
    return [
        [
            row[0],
            row[1].isoformat(timespec="microseconds"),
            row[2],
            row[3],
            row[4].isoformat(timespec="microseconds"),
            row[5],
            row[6],
            row[7],
        ]
        for row in rows
    ]


def _rows_from_json(rows: List[list]) -> List[AlertTuple]:
    return [
        (
            row[0],
            datetime.fromisoformat(row[1]),
            row[2],
            row[3],
            datetime.fromisoformat(row[4]),
            row[5],
            row[6],
            row[7],
        )
        for row in rows
    ]


ChunkResult = Tuple[List[AlertTuple], int, "ScanTelemetry"]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Worker-local arena attachment.  One archive is live per scan, so workers
#: keep a single attachment and swap it when a task names a new segment
#: (closing the old mapping releases its pages even after the parent
#: unlinked the name).
_worker_arena: Optional[SessionArena] = None

#: Worker-local compiled rulesets, keyed by blob digest: a warm worker
#: scanning the same study twice never re-unpickles or recompiles.
_worker_rulesets: "OrderedDict[str, Ruleset]" = OrderedDict()


def _attached_arena(name: str) -> SessionArena:
    global _worker_arena
    arena = _worker_arena
    if arena is not None:
        try:
            if arena.name == name:
                return arena
        except ValueError:  # pragma: no cover - closed underneath us
            pass
        arena.close()
    arena = SessionArena.attach(name)
    _worker_arena = arena
    return arena


def _ruleset_for(arena: SessionArena, digest: str) -> Ruleset:
    ruleset = _worker_rulesets.get(digest)
    if ruleset is None:
        ruleset = pickle.loads(arena.ruleset_blob())
        ruleset._ensure_compiled()
        _worker_rulesets[digest] = ruleset
        while len(_worker_rulesets) > RULESET_CACHE_SIZE:
            _worker_rulesets.popitem(last=False)
    else:
        _worker_rulesets.move_to_end(digest)
    return ruleset


ArenaTask = Tuple[int, int, int, int, str, str, Optional[FaultSpec]]


def _scan_arena_chunk(task: ArenaTask) -> ChunkResult:
    """Scan one ``(start, stop)`` slice of the shared segment."""
    from repro.nids.engine import scan_stream

    chunk_index, attempt, start, stop, arena_name, digest, fault = task
    _inject_worker_fault(chunk_index, attempt, fault)
    arena = _attached_arena(arena_name)
    ruleset = _ruleset_for(arena, digest)
    alerts, scanned, telemetry = scan_stream(ruleset, arena.sessions(start, stop))
    return _encode_alerts(alerts), scanned, telemetry


def chunk_bounds(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` slices covering ``range(total)``."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        (start, min(start + chunk_size, total))
        for start in range(0, total, chunk_size)
    ]


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def _pool_context():
    """The warm pool's start method: fork where available (cheap respawn,
    shared resource tracker), the platform default elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - spawn-only


class WorkerPool:
    """A lazily-started, respawnable, *reusable* process pool.

    The executor is created on first :meth:`executor` call and kept until
    :meth:`retire` (a broken generation: the next ``executor()`` starts a
    fresh one) or :meth:`shutdown`.  Workers hold no per-scan state —
    tasks carry the arena name and ruleset digest — so one pool serves any
    number of scans, rulesets, and threads concurrently.
    """

    def __init__(self, max_workers: int, *, mp_context=None) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._ctx = mp_context if mp_context is not None else _pool_context()
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Executor generations started over this pool's lifetime.
        self.generations = 0
        #: Scans that acquired this pool (see :func:`acquire_warm_pool`).
        self.uses = 0

    @property
    def started(self) -> bool:
        return self._pool is not None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, starting a fresh generation if needed."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, mp_context=self._ctx
                )
                self.generations += 1
            return self._pool

    def retire(self, broken: ProcessPoolExecutor) -> None:
        """Discard a dead generation (no-op if it was already replaced —
        two threads sharing the pool may both witness the same death)."""
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = None
        broken.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


_warm_lock = threading.Lock()
_warm_pool: Optional[WorkerPool] = None


def acquire_warm_pool(workers: int) -> Tuple[WorkerPool, bool]:
    """The process-wide warm pool, resized only when the worker count
    changes.  Returns ``(pool, reused)`` — ``reused`` is True when the
    pool's workers already exist from an earlier scan, i.e. this scan
    skipped the fork/spawn cost entirely."""
    global _warm_pool
    stale: Optional[WorkerPool] = None
    with _warm_lock:
        pool = _warm_pool
        if pool is None or pool.max_workers != workers:
            stale = pool
            pool = WorkerPool(workers)
            _warm_pool = pool
        reused = pool.started
        pool.uses += 1
    if stale is not None:
        stale.shutdown()
    return pool, reused


def shutdown_warm_pool() -> None:
    """Tear down the process-wide warm pool (tests, interpreter exit)."""
    global _warm_pool
    with _warm_lock:
        pool, _warm_pool = _warm_pool, None
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_warm_pool)


class _ScanPool:
    """Per-scan view of a pool: acquire generations, count respawns.

    ``dedicated`` scans (the :data:`_fault_hook` case — a callable cannot
    cross into already-running workers) fork a private pool and shut it
    down afterwards; everything else shares the warm pool.
    """

    def __init__(self, workers: int, *, dedicated: bool) -> None:
        self.dedicated = dedicated
        if dedicated:
            self.pool = WorkerPool(workers)
            self.reused = False
        else:
            self.pool, self.reused = acquire_warm_pool(workers)

    def executor(self) -> ProcessPoolExecutor:
        return self.pool.executor()

    def broken(self, executor: ProcessPoolExecutor) -> None:
        self.pool.retire(executor)

    def release(self) -> None:
        if self.dedicated:
            self.pool.shutdown()


class _ChunkCheckpoints:
    """Per-chunk result spill for one scan's chunking.

    Blobs live under the caller's key (so deleting that key reclaims the
    whole run's recovery state at once) with the exact chunk bounds folded
    into each blob's name, so results can only ever be reused by a scan
    that partitions the same stream identically (a different
    ``workers``/``chunk_size`` simply misses and rescans).
    """

    def __init__(
        self,
        store: "CheckpointStore",
        key: str,
        bounds: List[Tuple[int, int]],
    ) -> None:
        digest = hashlib.blake2b(repr(bounds).encode("ascii"), digest_size=6)
        self.store = store
        self.key = key
        self.bounds = bounds
        self._chunking = digest.hexdigest()

    def _name(self, index: int) -> str:
        return f"chunk-{self._chunking}-{index:05d}"

    def load(self, index: int) -> Optional[ChunkResult]:
        from repro.nids.engine import ScanTelemetry

        payload = self.store.load(self.key, self._name(index))
        if payload is None:
            return None
        if payload.get("bounds") != list(self.bounds[index]):
            return None  # pragma: no cover - name folds bounds already
        return (
            _rows_from_json(payload["rows"]),
            payload["scanned"],
            ScanTelemetry.from_dict(payload["telemetry"]),
        )

    def save(
        self, index: int, rows: List[AlertTuple], scanned: int, telemetry
    ) -> None:
        self.store.save(
            self.key,
            self._name(index),
            {
                "bounds": list(self.bounds[index]),
                "rows": _rows_to_json(rows),
                "scanned": scanned,
                "telemetry": telemetry.as_dict(),
            },
        )


def _backoff_seconds(respawn: int) -> float:
    base = BACKOFF_BASE_SECONDS
    env = os.environ.get("REPRO_RETRY_BACKOFF")
    if env is not None:
        base = float(env)
    if base <= 0:
        return 0.0
    return min(base * (2 ** (respawn - 1)), BACKOFF_MAX_SECONDS)


def parallel_scan(
    ruleset: Ruleset,
    sessions: Iterable[TcpSession],
    *,
    workers: int,
    chunk_size: Optional[int] = None,
    checkpoint_store: Optional["CheckpointStore"] = None,
    checkpoint_key: Optional[str] = None,
    tracer=None,
    threshold: Optional[int] = None,
) -> Tuple[List[Alert], int, "ScanTelemetry"]:
    """Scan sessions across ``workers`` processes, surviving worker death.

    Returns ``(alerts, sessions_scanned, telemetry)`` with alerts in
    session order — identical to what a serial :meth:`Ruleset.match_session`
    sweep over the same stream retains — and the per-worker telemetry merged
    in chunk order, recovery counters included.

    Streams below the break-even size (:func:`parallel_threshold`;
    ``threshold=0`` forces the pool on) are scanned serially in-process —
    parallel dispatch would only make them slower — with
    ``telemetry.fallback_serial`` recording the decision.

    The stream is serialized once into a shared-memory arena
    (:class:`~repro.nids.arena.SessionArena`), and workers receive only
    index pairs.

    With ``checkpoint_store`` (and a caller-chosen ``checkpoint_key``),
    completed chunks spill to disk as they finish and are served from disk
    on the next identically-chunked scan; the caller owns deleting the
    checkpoints once the surrounding run has fully succeeded.

    With ``tracer`` (a :class:`repro.obs.Tracer`), each chunk attaches a
    pre-measured child span to the caller's open span as its result
    arrives — workers cannot share the parent's tracer, so chunk timings
    cross the process boundary as telemetry and re-enter the trace here.
    The merged telemetry's ``wall_seconds`` is measured by this parent
    around the whole pass (summed worker clocks count concurrent work and
    are reported as ``cpu_seconds`` instead).
    """
    from repro.nids.engine import scan_stream

    started = time.perf_counter()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if checkpoint_store is not None and checkpoint_key is None:
        raise ValueError("checkpoint_store requires checkpoint_key")
    break_even = parallel_threshold(threshold)
    items = list(sessions)
    if chunk_size is None:
        chunk_size = max(1, -(-len(items) // (workers * CHUNKS_PER_WORKER)))
    bounds = chunk_bounds(len(items), chunk_size)
    if workers == 1 or len(bounds) <= 1 or len(items) < break_even:
        alerts, scanned, telemetry = scan_stream(ruleset, items)
        if workers > 1:
            # A parallel request served serially: the break-even policy
            # decided the pool could not pay for itself at this size.
            telemetry.fallback_serial = 1
        return alerts, scanned, telemetry

    # One serialization pass, then index pairs only.  The compiled parent
    # ruleset also serves the poison-chunk fallback.
    ruleset._ensure_compiled()
    clock = time.perf_counter()
    blob = pickle.dumps(ruleset, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.blake2b(blob, digest_size=16).hexdigest()
    transfer_seconds = time.perf_counter() - clock
    clock = time.perf_counter()
    arena = SessionArena.build(items, ruleset_blob=blob)
    arena_build_seconds = time.perf_counter() - clock
    arena_bytes = arena.nbytes
    arena_name = arena.name
    worker_fault = _active_fault()
    if worker_fault is not None and worker_fault.kind == "scan_abort":
        worker_fault = None
    scan_pool = _ScanPool(workers, dedicated=_fault_hook is not None)

    def _submit(pool, index: int, attempt: int):
        start, stop = bounds[index]
        return pool.submit(
            _scan_arena_chunk,
            (index, attempt, start, stop, arena_name, digest, worker_fault),
        )

    checkpoints: Optional[_ChunkCheckpoints] = None
    if checkpoint_store is not None:
        checkpoints = _ChunkCheckpoints(checkpoint_store, checkpoint_key, bounds)

    def _trace_chunk(index: int, result: ChunkResult, source: str) -> None:
        if tracer is None:
            return
        _rows, count, chunk_telemetry = result
        tracer.child(
            f"chunk-{index:05d}",
            duration=chunk_telemetry.scan_seconds,
            sessions=count,
            source=source,
        )

    results: Dict[int, ChunkResult] = {}
    checkpoint_hits = 0
    if checkpoints is not None:
        for index in range(len(bounds)):
            hit = checkpoints.load(index)
            if hit is not None:
                results[index] = hit
                checkpoint_hits += 1
                _trace_chunk(index, hit, "checkpoint")

    fault = _active_fault()
    abort_after = (
        fault.target if fault is not None and fault.kind == "scan_abort" else None
    )
    completed = 0  # chunks completed by this run (checkpoint hits excluded)

    failures: Dict[int, int] = {index: 0 for index in range(len(bounds))}
    attempts: Dict[int, int] = {index: 0 for index in range(len(bounds))}
    pending = [index for index in range(len(bounds)) if index not in results]
    poison: List[int] = []
    respawns = 0
    chunk_retries = 0

    def _record(
        index: int, result: ChunkResult, source: str = "computed"
    ) -> None:
        nonlocal completed
        results[index] = result
        if checkpoints is not None:
            checkpoints.save(index, *result)
        _trace_chunk(index, result, source)
        completed += 1
        if abort_after is not None and completed >= abort_after:
            raise ScanAborted(
                f"injected scan_abort after {completed} completed chunks"
            )

    try:
        hook_pending = True
        while pending:
            if respawns > MAX_POOL_RESPAWNS:
                # The pool keeps dying faster than it finishes work; stop
                # feeding it and scan the remainder in-process.
                poison.extend(pending)
                pending = []
                break
            if respawns:
                backoff = _backoff_seconds(respawns)
                if backoff:
                    time.sleep(backoff)
            broken = False
            pool = None
            try:
                pool = scan_pool.executor()
                if hook_pending:
                    hook_pending = False
                    hook = _after_fork_hook
                    if hook is not None:
                        hook()
                while pending and not broken:
                    futures = {}
                    submit_broke = False
                    for index in pending:
                        if attempts[index] > 0:
                            chunk_retries += 1
                        attempts[index] += 1
                        try:
                            futures[_submit(pool, index, attempts[index])] = (
                                index
                            )
                        except BrokenProcessPool:
                            submit_broke = True
                            break
                    if submit_broke:
                        # A warm worker crashed faster than the round could
                        # be submitted.  Charge every chunk in the round one
                        # attempt — the same accounting as futures dying
                        # with the pool — so a chunk that kills its worker
                        # every time still goes poison after exactly
                        # MAX_CHUNK_ATTEMPTS generations.
                        broken = True
                        still_pending: List[int] = []
                        for index in pending:
                            failures[index] += 1
                            if failures[index] >= MAX_CHUNK_ATTEMPTS:
                                poison.append(index)
                            else:
                                still_pending.append(index)
                        pending = still_pending
                        continue
                    failed_round: List[int] = []
                    for future in as_completed(futures):
                        index = futures[future]
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            broken = True
                            failures[index] += 1
                            failed_round.append(index)
                            continue
                        except Exception:
                            # Chunk-level failure: only this chunk is
                            # implicated; the pool (and every other
                            # future) is still healthy.
                            failures[index] += 1
                            failed_round.append(index)
                            continue
                        _record(index, result)
                    pending = []
                    for index in failed_round:
                        if failures[index] >= MAX_CHUNK_ATTEMPTS:
                            poison.append(index)
                        else:
                            pending.append(index)
            except BrokenProcessPool:
                # The pool died before/while accepting work; every
                # unfinished chunk stays pending.
                broken = True
            if broken:
                if pool is not None:
                    scan_pool.broken(pool)
                respawns += 1

        # Poison chunks (and everything stranded by a respawn limit) are
        # scanned serially in-process: slower, but immune to whatever
        # killed the pool, and byte-identical by construction.
        for index in sorted(poison):
            start, stop = bounds[index]
            chunk_alerts, count, chunk_telemetry = scan_stream(
                ruleset, items[start:stop]
            )
            _record(
                index,
                (_encode_alerts(chunk_alerts), count, chunk_telemetry),
                source="poison-serial",
            )
    finally:
        scan_pool.release()
        # Unlink promptly, success or abort — killed runs are covered by the
        # finalizer and, past SIGKILL, the gc sweep.
        arena.close_and_unlink()

    from repro.nids.engine import ScanTelemetry

    clock = time.perf_counter()
    merged: List[Alert] = []
    scanned = 0
    telemetry = ScanTelemetry()
    for index in range(len(bounds)):
        rows, count, chunk_telemetry = results[index]
        merged.extend(_decode_alerts(rows))
        scanned += count
        telemetry.merge(chunk_telemetry)
    transfer_seconds += time.perf_counter() - clock
    telemetry.chunk_retries = chunk_retries
    telemetry.pool_respawns = respawns
    telemetry.poison_chunks = len(poison)
    telemetry.recovered_chunks = sum(
        1
        for index, count in failures.items()
        if count > 0 and index in results and index not in poison
    )
    telemetry.checkpoint_hits = checkpoint_hits
    telemetry.arena_bytes = arena_bytes
    telemetry.arena_build_seconds = arena_build_seconds
    telemetry.transfer_seconds = transfer_seconds
    telemetry.pool_reuses = 1 if scan_pool.reused else 0
    telemetry.fallback_serial = 0
    # Workers ran concurrently: their summed clocks are work (cpu_seconds),
    # not elapsed time.  Elapsed time is what this parent measured.
    telemetry.wall_seconds = time.perf_counter() - started
    return merged, scanned, telemetry
