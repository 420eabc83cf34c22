"""The DSCOPE collector: instance fleet orchestration and capture.

Routes a time-sorted arrival stream onto the rotating instance fleet.  An
instance slot's tenancy of an address lasts one lifetime (10 minutes);
tenancies are staggered across slots so the fleet does not recycle in
lockstep.  Only tenancies that actually receive traffic are materialised
(an address and a reception end); fleet-level statistics (unique IPs,
tenancy counts) are computed analytically, exactly as a 2-year 5M-IP
deployment must be on one machine.

All capture goes through one batch routing core, :meth:`_route`, over
:class:`~repro.traffic.arrivals.ArrivalColumns`: it computes a batch's
offsets from the window start, its sortedness and its in-window rows as
arrays, draws the in-window arrivals' slots with bulk ``integers`` calls,
then walks the live tenancy table in arrival order with epochs and tenancy
starts in integer microseconds from the window start.  A tenancy holds the
stream rows of the arrivals it accepted, not the arrivals.  Sessions are
stamped in closed form when their tenancy is torn down — a telescope
instance completes the handshake 20 ms after the SYN and sees the FIN 60 ms
after it (``tests/packet_model.py`` holds the packet-level model of the
same exchange, the reference ``tests/test_capture_batch.py`` pins this
against).  Stamping builds no record: it queues the tenancy's rows, and a
take gathers them from the arrival columns by numpy indexing into the
``store`` stage's :class:`~repro.net.pcapstore.SessionColumns`, handing
over the arrivals' payload heap without hashing a payload, and counts the
distinct addresses of every session taken so far.  Two entry
points share the core, and both emit those columns:

* :meth:`DscopeCollector.collect` — the batch path: route the whole stream
  (columns, or rows packed once), return the full :class:`SessionStore`, a
  view over those columns;
* :meth:`DscopeCollector.collect_windows` — the streaming path: route one
  arrival window at a time (its rows packed into columns), yielding each
  window's *finished* sessions, one take per window, as their tenancies
  close.  Tenancies still open at a window boundary carry over, and a
  routed window is held while a live tenancy holds one of its rows;
  concatenating every window's sessions reproduces the batch capture
  byte-for-byte (same session ids, same order, same stats).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.net.pcapstore import SessionColumns, SessionStore
from repro.obs.trace import span_or_null
from repro.telescope.config import TelescopeConfig
from repro.telescope.pool import CloudIpPool
from repro.traffic.arrivals import ArrivalColumns, ScanArrival
from repro.util.rng import derive_rng
from repro.util.timeutil import TimeWindow, zoned_micros

_US = timedelta(microseconds=1)
#: A captured session starts when the handshake's ACK lands, 20 ms after
#: the SYN, and ends at the FIN, 60 ms after it (in microseconds).
_ESTABLISHED_US = 20_000
_CLOSED_US = 60_000
#: In-window arrivals routed per bulk slot draw: enough to amortise the
#: draw, small enough that the per-chunk lists stay off the process's peak
#: memory.
_CHUNK = 4096


@dataclass
class CollectionStats:
    """Aggregate statistics from one collection run.

    ``unique_receiving_ips`` counts the telescope IPs that received at
    least one analysed arrival (paper: 105k of 5M for exploit traffic),
    and ``unique_source_ips`` the addresses that sent one: the distinct
    destination and source addresses of the captured sessions.  An
    arrival lost to preemption makes no session, so a tenancy whose every
    arrival was lost never counts as receiving.
    """

    arrivals_routed: int = 0
    sessions_captured: int = 0
    tenancies_materialised: int = 0
    arrivals_lost_to_preemption: int = 0
    unique_receiving_ips: int = 0
    unique_source_ips: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat JSON-friendly counters (run manifests, debugging dumps)."""
        return asdict(self)


@dataclass(frozen=True)
class CaptureWindow:
    """One arrival window's output on the streaming capture path.

    ``sessions`` holds, as the ``store`` stage's columns in stamp order,
    the sessions whose tenancies *closed* during this window (plus, on the
    final window, every tenancy still live at end of stream) — not the
    sessions whose traffic arrived in it; a tenancy
    closes lazily when its slot is re-materialised or the fleet sweeps
    expired instances, so a session may surface a window or two after its
    traffic.  ``arrivals`` counts in-study-window arrivals whose timestamps
    fell inside this window.
    """

    index: int
    start: datetime
    end: datetime
    sessions: SessionColumns
    arrivals: int
    final: bool = False


def _distinct(seen: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The distinct values of ``seen`` (sorted, distinct) and ``values``,
    sorted: a sort and a diff, not ``np.unique``, which imports
    ``numpy.ma``."""
    merged = np.sort(np.concatenate([seen, values]))
    keep = np.ones(merged.size, bool)
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


class _Tenancy:
    """One materialised (slot, epoch) tenancy: its address, the
    microsecond (from the window start) at which it stops receiving — its
    planned end or its preemption — and the stream rows of the arrivals it
    accepted, in order.
    """

    __slots__ = ("ip", "end_us", "rows")

    def __init__(self, ip: int, end_us: int) -> None:
        self.ip = ip
        self.end_us = end_us
        self.rows: List[int] = []


class DscopeCollector:
    """Capture an arrival stream into a session archive."""

    def __init__(
        self,
        config: Optional[TelescopeConfig] = None,
        *,
        window: TimeWindow,
    ) -> None:
        self.config = config or TelescopeConfig()
        self.window = window
        self.pool = CloudIpPool(seed=self.config.seed)
        self.stats = CollectionStats()
        #: The distinct addresses of the sessions taken so far, sorted,
        #: which ``stats`` counts.
        self._receiving_ips = np.empty(0, np.uint32)
        self._source_ips = np.empty(0, np.uint32)
        self._next_session_id = 0
        #: session_id -> ground-truth CVE (None for background traffic).
        #: Populated during collect(); for validation only — the detection
        #: pipeline never consults it.
        self.ground_truth: Dict[int, Optional[str]] = {}
        # Fleet geometry in integer microseconds from the window start.
        lifetime = self.config.instance_lifetime
        slots = self.config.concurrent_instances
        self._life_us = lifetime // _US
        self._window_us = window.duration // _US
        #: Slot tenancies are staggered by ``slot/concurrency`` of a
        #: lifetime, so the fleet recycles smoothly rather than in lockstep.
        self._stagger_us = np.array(
            [lifetime * (slot / slots) // _US for slot in range(slots)],
            np.int64,
        )
        #: The window start in microseconds since the epoch, and its
        #: tzinfo (None for naive UTC): session times are offsets from it.
        origin, self._zone = zoned_micros([window.start])
        self._origin_us = int(origin[0])
        self._begin_stream()

    # -- fleet geometry ----------------------------------------------------

    def _epoch(self, slot: int, elapsed_us: int) -> int:
        """The slot's tenancy epoch ``elapsed_us`` after the window start
        (−1 before the slot's first staggered tenancy begins)."""
        return (elapsed_us - int(self._stagger_us[slot])) // self._life_us

    def _start_us(self, slot: int, epoch: int) -> int:
        """When the slot's tenancy ``epoch`` starts, in microseconds from
        the window start."""
        return int(self._stagger_us[slot]) + epoch * self._life_us

    def tenancy_for(self, slot: int, when: datetime) -> Tuple[int, datetime]:
        """(epoch, tenancy start) for a slot at a point in time."""
        epoch = self._epoch(slot, (when - self.window.start) // _US)
        return epoch, self.window.start + self._start_us(slot, epoch) * _US

    @property
    def total_tenancies(self) -> int:
        """Number of (slot, epoch) tenancies over the window (~31.5M at the
        paper's fleet geometry)."""
        tenancies_per_slot = int(self.window.duration / self.config.instance_lifetime)
        return self.config.concurrent_instances * tenancies_per_slot

    @property
    def expected_unique_ips(self) -> int:
        """Expected distinct addresses touched over the window.

        Tenancy draws are (approximately) uniform over the pool, so the
        expected occupancy is capacity·(1 − e^(−tenancies/capacity)); at the
        paper's geometry this is ~5M with heavy reuse, matching the study's
        headline unique-IP count.
        """
        import math

        capacity = sum(
            self.pool.region_capacity(region) for region in self.config.regions
        )
        tenancies = self.total_tenancies
        return int(capacity * (1.0 - math.exp(-tenancies / capacity)))

    # -- capture -------------------------------------------------------------

    def _begin_stream(self) -> None:
        """Reset per-stream routing state (stats and session ids continue)."""
        self._routing_rng = derive_rng(self.config.seed, "routing")
        #: Live tenancies keyed by (slot, epoch), in materialisation order.
        self._live: Dict[Tuple[int, int], _Tenancy] = {}
        self._last_us: Optional[int] = None
        #: Arrivals routed so far this stream — the resumable cursor: after a
        #: window yields, ``TrafficGenerator.stream(cursor=arrivals_fed)``
        #: continues with exactly the next unprocessed arrival.  An
        #: arrival's stream row is its position in this count.
        self.arrivals_fed = 0
        #: The routed batches that live or stamped rows come from, and the
        #: stream row of each one's first arrival.
        self._sources: List[ArrivalColumns] = []
        self._source_rows: List[int] = []
        #: Stamped rows not yet taken (:meth:`_take`): each closed
        #: tenancy's accepted stream rows, and its address per row.
        self._stamped: List[int] = []
        self._stamped_dst: List[int] = []

    def _materialise(self, slot: int, epoch: int) -> _Tenancy:
        """The tenancy of ``slot`` in ``epoch``.

        Whether (and when) it is preempted is decided deterministically
        from the tenancy's identity, so re-materialising the same tenancy
        always yields the same behaviour.
        """
        region = self.config.region_for_slot(slot)
        start_us = self._start_us(slot, epoch)
        end_us = start_us + self._life_us
        if self.config.preemption_rate > 0:
            rng = derive_rng(self.config.seed, "preempt", region, slot, epoch)
            if rng.random() < self.config.preemption_rate:
                fraction = float(rng.uniform(0.2, 0.95))
                cut = self.config.instance_lifetime * fraction
                end_us = min(end_us, start_us + cut // _US)
        return _Tenancy(self.pool.allocate(region, slot, epoch), end_us)

    def _stamp(self, tenancy: _Tenancy) -> None:
        """Tear a tenancy down: queue its sessions' rows, in arrival order."""
        count = len(tenancy.rows)
        self._stamped.extend(tenancy.rows)
        self._stamped_dst.extend([tenancy.ip] * count)
        self.stats.sessions_captured += count

    def _source(self, rows: np.ndarray) -> Tuple[ArrivalColumns, np.ndarray]:
        """The arrivals the stream ``rows`` come from, and the rows'
        positions in them: the one routed batch of :meth:`collect`, or the
        held windows of :meth:`collect_windows`, concatenated (an empty
        take joins none)."""
        if not rows.size:
            return ArrivalColumns.pack([], [], [], [], []), rows
        firsts = np.array(self._source_rows, np.int64)
        which = np.searchsorted(firsts, rows, "right") - 1
        sizes = [len(source) for source in self._sources]
        bases = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        return (
            ArrivalColumns.concat(self._sources),
            rows - firsts[which] + bases[which],
        )

    def _take(self, *, sort: bool) -> SessionColumns:
        """The rows stamped since the last take, as session columns.

        Session ids follow stamp order, and so does the ground truth; with
        ``sort`` the rows are in ``(start, session_id)`` order, a store's
        iteration order, and stamp order otherwise.  A session starts
        20 ms after its arrival and ends 40 ms later.  Its payload indexes
        the arrivals' own heap, which the columns renumber and compact.
        The sessions' addresses join the distinct ones ``stats`` counts.
        """
        rows = np.array(self._stamped, np.int64)
        dst_ips = np.array(self._stamped_dst, np.uint32)
        self._stamped, self._stamped_dst = [], []
        arrivals, at = self._source(rows)
        count = rows.size
        first = self._next_session_id
        self._next_session_id += count
        table = [*arrivals.cves, None]  # code -1 -> None
        self.ground_truth.update(zip(
            range(first, first + count),
            map(table.__getitem__, arrivals.truth[at].tolist()),
        ))
        self._release()
        ids = np.arange(first, first + count, dtype=np.int64)
        starts = arrivals.t[at] + _ESTABLISHED_US
        self._receiving_ips = _distinct(self._receiving_ips, dst_ips)
        self._source_ips = _distinct(self._source_ips, arrivals.src_ip[at])
        self.stats.unique_receiving_ips = self._receiving_ips.size
        self.stats.unique_source_ips = self._source_ips.size
        if sort:
            # Stable: ids rise in stamp order, so ties keep id order.
            order = np.argsort(starts, kind="stable")
            ids, starts, at, dst_ips = (
                ids[order], starts[order], at[order], dst_ips[order]
            )
        return SessionColumns.from_heap(
            ids,
            starts,
            starts + (_CLOSED_US - _ESTABLISHED_US),
            arrivals.src_ip[at],
            arrivals.src_port[at],
            dst_ips,
            arrivals.dst_port[at],
            arrivals.payload[at],
            arrivals.heap,
            np.ones(count, np.uint8),
            zone=self._zone,
        )

    def _release(self) -> None:
        """Drop the routed batches no live tenancy holds a row of (nothing
        is stamped but not taken when this runs)."""
        held = [tenancy.rows[0] for tenancy in self._live.values() if tenancy.rows]
        oldest = min(held, default=self.arrivals_fed)
        keep = 0
        while keep < len(self._sources) and (
            self._source_rows[keep] + len(self._sources[keep]) <= oldest
        ):
            keep += 1
        del self._sources[:keep], self._source_rows[:keep]

    def _route(self, batch: ArrivalColumns) -> None:
        """Route a time-sorted batch, stamping the tenancies it closes.

        The core every entry point shares.  The batch's offsets from the
        window start, its sortedness and its in-window rows are computed
        as arrays; the slots of its in-window arrivals are drawn
        ``_CHUNK`` at a time, each chunk in one bulk ``integers`` call (the
        same stream as one scalar draw per arrival).  Routing an arrival
        may close other tenancies (the slot being re-materialised, or
        tenancies whose reception ended) — their rows are queued for
        :meth:`_take` in the order the tenancies closed.  A preempted
        tenancy's address is dark until the slot's next epoch, so an
        arrival after its end is lost.
        """
        if not len(batch):
            return
        if (batch.zone is None) != (self._zone is None):
            raise TypeError("can't compare offset-naive and offset-aware times")
        elapsed = batch.t - self._origin_us
        if (self._last_us is not None and elapsed[0] < self._last_us) or bool(
            (elapsed[1:] < elapsed[:-1]).any()
        ):
            raise ValueError("arrival stream is not time-sorted")
        self._last_us = int(elapsed[-1])
        first_row = self.arrivals_fed
        self.arrivals_fed += len(batch)
        inside = np.flatnonzero((elapsed >= 0) & (elapsed < self._window_us))
        if not inside.size:
            return
        self._sources.append(batch)
        self._source_rows.append(first_row)
        for low in range(0, inside.size, _CHUNK):
            self._assign(first_row, elapsed, inside[low:low + _CHUNK])

    def _assign(
        self,
        first_row: int,
        elapsed: np.ndarray,
        inside: np.ndarray,
    ) -> None:
        """Route the batch's in-window arrivals at positions ``inside``."""
        # Cloud routing is oblivious to tenancy: a pseudorandom slot per
        # in-window arrival.
        slots = self._routing_rng.integers(
            0, self.config.concurrent_instances, size=inside.size
        )
        now = elapsed[inside]
        epochs = (now - self._stagger_us[slots]) // self._life_us

        live = self._live
        materialised = lost = 0
        for index, slot, epoch, now_us in zip(
            inside.tolist(), slots.tolist(), epochs.tolist(), now.tolist()
        ):
            key = (slot, epoch)
            tenancy = live.get(key)
            if tenancy is None:
                stale = [
                    other for other, held in live.items()
                    if other[0] == slot or held.end_us <= now_us
                ]
                for other in stale:
                    self._stamp(live.pop(other))
                tenancy = live[key] = self._materialise(slot, epoch)
                materialised += 1
            if now_us >= tenancy.end_us:
                lost += 1
                continue
            tenancy.rows.append(first_row + index)

        stats = self.stats
        stats.tenancies_materialised += materialised
        stats.arrivals_lost_to_preemption += lost
        stats.arrivals_routed += inside.size - lost

    def _close_all(self) -> None:
        """Tear down every live tenancy, in routing order."""
        live, self._live = self._live, {}
        for tenancy in live.values():
            self._stamp(tenancy)

    def collect(
        self, arrivals: Iterable[ScanArrival], *, tracer=None
    ) -> SessionStore:
        """Route arrivals onto the fleet; returns the session archive.

        ``arrivals`` is :class:`ArrivalColumns` (what traffic generates) or
        time-sorted :class:`ScanArrival` rows, packed into columns once.
        Each arrival is routed to a pseudorandom slot (cloud routing is
        oblivious to tenancy), the slot's current tenancy is materialised
        on demand, and finished tenancies are torn down as time advances.

        ``tracer`` (a :class:`repro.obs.Tracer`, optional) records the
        ``route`` (with the tenancies materialised) and ``take`` (with the
        sessions) phases as child spans of the caller's open span.
        """
        columns = ArrivalColumns.of(arrivals)
        self._begin_stream()
        with span_or_null(tracer, "route") as span:
            before = self.stats.tenancies_materialised
            self._route(columns)
            self._close_all()
            if span is not None:
                span.set(
                    "tenancies", self.stats.tenancies_materialised - before
                )
        with span_or_null(tracer, "take") as span:
            sessions = self._take(sort=True)
            if span is not None:
                span.set("sessions", len(sessions))
        return SessionStore.from_columns(sessions)

    def collect_windows(
        self,
        arrivals: Iterable[ScanArrival],
        *,
        span: timedelta,
        max_windows: Optional[int] = None,
    ) -> Iterator[CaptureWindow]:
        """Capture the stream one arrival window at a time.

        Windows partition the study window into fixed ``span`` slices
        anchored at ``window.start``; an arrival belongs to the window
        containing its timestamp.  Each :class:`CaptureWindow` carries the
        sessions that finished while its arrivals were being routed, taken
        once as columns — the concatenation across all windows is
        byte-identical to :meth:`collect` over the same stream (same ids,
        order, stats, ground truth), but no more than one window's working
        set is held beyond the live tenancy table.  Quiet windows are
        yielded with empty columns so downstream consumers see a steady
        cadence.

        ``max_windows`` (at least 1) truncates the stream after that many
        windows (the final window still tears down whatever is live by
        then) — the bounded tail for smoke tests and
        ``repro watch --max-windows``.
        """
        if span <= timedelta(0):
            raise ValueError("window span must be positive")
        if max_windows is not None and max_windows < 1:
            raise ValueError("max_windows must be at least 1")
        self._begin_stream()
        base = self.window.start
        index = seen = 0

        def close(final: bool) -> CaptureWindow:
            return CaptureWindow(
                index=index,
                start=base + index * span,
                end=base + (index + 1) * span,
                sessions=self._take(sort=False),
                arrivals=seen,
                final=final,
            )

        # Arrivals are grouped lazily: a window's batch is routed when the
        # first arrival of a later window is pulled, so at most one
        # arrival past the yielded window has been read.
        batch: List[ScanArrival] = []
        for arrival in arrivals:
            target: Optional[int] = None
            if self.window.contains(arrival.timestamp):
                target = int((arrival.timestamp - base) // span)
            if target is not None and target > index:
                self._route(ArrivalColumns.from_rows(batch))
                batch = []
                last = target if max_windows is None else min(
                    target, max_windows - 1
                )
                while index < last:
                    yield close(final=False)
                    seen = 0
                    index += 1
                if index < target:  # past the last window: truncate
                    break
            batch.append(arrival)
            if target is not None:
                seen += 1
        self._route(ArrivalColumns.from_rows(batch))
        self._close_all()
        yield close(final=True)
