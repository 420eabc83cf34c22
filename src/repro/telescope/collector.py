"""The DSCOPE collector: instance fleet orchestration and capture.

Routes a time-sorted arrival stream onto the rotating instance fleet.  An
instance slot's tenancy of an address lasts one lifetime (10 minutes);
tenancies are staggered across slots so the fleet does not recycle in
lockstep.  Only tenancies that actually receive traffic are materialised
(an address and a reception end); fleet-level statistics (unique IPs,
tenancy counts) are computed analytically, exactly as a 2-year 5M-IP
deployment must be on one machine.

All capture goes through one batch routing core, :meth:`_route`: it checks
a batch is time-sorted, draws every in-window arrival's slot with one bulk
``integers`` call, then walks the live tenancy table in arrival order with
epochs and tenancy starts in integer microseconds from the window start.
Sessions are built in closed form when their tenancy is torn down — a telescope instance
completes the handshake 20 ms after the SYN and sees the FIN 60 ms after it
(``tests/packet_model.py`` holds the packet-level model of the same
exchange, the reference ``tests/test_capture_batch.py`` pins this against).
Three entry points share the core:

* :meth:`DscopeCollector.collect` — the batch path: route the whole stream,
  return the full :class:`SessionStore`;
* :meth:`DscopeCollector.collect_windows` — the streaming path: route one
  arrival window at a time, yielding each window's *finished* sessions as
  their tenancies close.  Tenancies still open at a window boundary carry
  over; concatenating every window's sessions reproduces the batch capture
  byte-for-byte (same session ids, same order, same stats);
* :meth:`DscopeCollector.feed` / :meth:`DscopeCollector.flush` — one
  arrival at a time (a batch of one), then tear down what is still live.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.telescope.config import TelescopeConfig
from repro.telescope.pool import CloudIpPool
from repro.traffic.arrivals import ScanArrival
from repro.util.rng import derive_rng
from repro.util.timeutil import TimeWindow

_US = timedelta(microseconds=1)
#: A captured session starts when the handshake's ACK lands, 20 ms after
#: the SYN, and ends at the FIN, 60 ms after it.
_ESTABLISHED = timedelta(milliseconds=20)
_CLOSED = timedelta(milliseconds=60)
#: Arrivals per routing batch on :meth:`DscopeCollector.collect`: enough
#: to amortise the bulk draw, small enough that the per-batch lists stay
#: off the process's peak memory.
_BATCH = 256


@dataclass
class CollectionStats:
    """Aggregate statistics from one collection run."""

    arrivals_routed: int = 0
    sessions_captured: int = 0
    tenancies_materialised: int = 0
    arrivals_lost_to_preemption: int = 0
    receiving_ips: Set[int] = field(default_factory=set)
    source_ips: Set[int] = field(default_factory=set)

    @property
    def unique_receiving_ips(self) -> int:
        """Telescope IPs that received at least one analysed arrival
        (paper: 105k of 5M for exploit traffic).

        An IP counts only when a live tenancy actually accepted an arrival;
        a tenancy whose every arrival was lost to preemption never received
        anything analysable.
        """
        return len(self.receiving_ips)

    @property
    def unique_source_ips(self) -> int:
        return len(self.source_ips)

    def as_dict(self) -> Dict[str, int]:
        """Flat JSON-friendly counters (run manifests, debugging dumps)."""
        return {
            "arrivals_routed": self.arrivals_routed,
            "sessions_captured": self.sessions_captured,
            "tenancies_materialised": self.tenancies_materialised,
            "arrivals_lost_to_preemption": self.arrivals_lost_to_preemption,
            "unique_receiving_ips": self.unique_receiving_ips,
            "unique_source_ips": self.unique_source_ips,
        }


@dataclass(frozen=True)
class CaptureWindow:
    """One arrival window's output on the streaming capture path.

    ``sessions`` holds the sessions whose tenancies *closed* during this
    window (plus, on the final window, everything flushed at end of
    stream) — not the sessions whose traffic arrived in it; a tenancy
    closes lazily when its slot is re-materialised or the fleet sweeps
    expired instances, so a session may surface a window or two after its
    traffic.  ``arrivals`` counts in-study-window arrivals whose timestamps
    fell inside this window.
    """

    index: int
    start: datetime
    end: datetime
    sessions: List[TcpSession]
    arrivals: int
    final: bool = False


class _Tenancy:
    """One materialised (slot, epoch) tenancy: its address, the
    microsecond (from the window start) at which it stops receiving — its
    planned end or its preemption — and the arrivals it accepted, in order.
    """

    __slots__ = ("ip", "end_us", "arrivals")

    def __init__(self, ip: int, end_us: int) -> None:
        self.ip = ip
        self.end_us = end_us
        self.arrivals: List[ScanArrival] = []


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
        self._stagger_us = [
            lifetime * (slot / slots) // _US for slot in range(slots)
        ]
        self._begin_stream()

    # -- fleet geometry ----------------------------------------------------

    def _epoch(self, slot: int, elapsed_us: int) -> int:
        """The slot's tenancy epoch ``elapsed_us`` after the window start
        (−1 before the slot's first staggered tenancy begins)."""
        return (elapsed_us - self._stagger_us[slot]) // self._life_us

    def _start_us(self, slot: int, epoch: int) -> int:
        """When the slot's tenancy ``epoch`` starts, in microseconds from
        the window start."""
        return self._stagger_us[slot] + epoch * self._life_us

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
        #: Arrivals fed so far this stream — the resumable cursor: after a
        #: window yields, ``TrafficGenerator.stream(cursor=arrivals_fed)``
        #: continues with exactly the next unprocessed arrival.
        self.arrivals_fed = 0

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
            if rng.uniform() < self.config.preemption_rate:
                fraction = float(rng.uniform(0.2, 0.95))
                cut = self.config.instance_lifetime * fraction
                end_us = min(end_us, start_us + cut // _US)
        return _Tenancy(self.pool.allocate(region, slot, epoch), end_us)

    def _stamp(self, tenancy: _Tenancy) -> List[TcpSession]:
        """Tear a tenancy down: id-stamp and account its sessions, in
        arrival order."""
        sessions: List[TcpSession] = []
        session_id = self._next_session_id
        for arrival in tenancy.arrivals:
            sessions.append(
                TcpSession(
                    session_id=session_id,
                    start=arrival.timestamp + _ESTABLISHED,
                    src_ip=arrival.src_ip,
                    src_port=arrival.src_port,
                    dst_ip=tenancy.ip,
                    dst_port=arrival.dst_port,
                    payload=arrival.payload,
                    end=arrival.timestamp + _CLOSED,
                )
            )
            self.ground_truth[session_id] = arrival.truth_cve
            session_id += 1
        self._next_session_id = session_id
        self.stats.sessions_captured += len(sessions)
        return sessions

    def _route(self, batch: Sequence[ScanArrival]) -> List[TcpSession]:
        """Route a time-sorted batch; returns the sessions it finished.

        The core every entry point shares.  Routing an arrival may close
        other tenancies (the slot being re-materialised, or tenancies whose
        reception ended) — their sessions are returned, id-stamped, in the
        order the tenancies closed.  A preempted tenancy's address is dark
        until the slot's next epoch, so an arrival after its end is lost.
        """
        if not batch:
            return []
        origin = self.window.start
        elapsed = [(arrival.timestamp - origin) // _US for arrival in batch]
        if (self._last_us is not None and elapsed[0] < self._last_us) or any(
            map(operator.lt, elapsed[1:], elapsed)
        ):
            raise ValueError("arrival stream is not time-sorted")
        self._last_us = elapsed[-1]
        self.arrivals_fed += len(batch)
        inside = [
            index for index, now in enumerate(elapsed)
            if 0 <= now < self._window_us
        ]
        if not inside:
            return []
        # Cloud routing is oblivious to tenancy: a pseudorandom slot per
        # in-window arrival, drawn for the whole batch at once.
        slots = self._routing_rng.integers(
            0, self.config.concurrent_instances, size=len(inside)
        ).tolist()

        live = self._live
        finished: List[TcpSession] = []
        receiving: List[int] = []
        sources: List[int] = []
        materialised = lost = 0
        for index, slot in zip(inside, slots):
            now = elapsed[index]
            key = (slot, self._epoch(slot, now))
            tenancy = live.get(key)
            if tenancy is None:
                stale = [
                    other for other, held in live.items()
                    if other[0] == slot or held.end_us <= now
                ]
                for other in stale:
                    finished.extend(self._stamp(live.pop(other)))
                tenancy = live[key] = self._materialise(*key)
                materialised += 1
            if now >= tenancy.end_us:
                lost += 1
                continue
            arrival = batch[index]
            tenancy.arrivals.append(arrival)
            # The IP counts as receiving only now: a tenancy whose every
            # arrival was preempted away never received analysable traffic.
            receiving.append(tenancy.ip)
            sources.append(arrival.src_ip)

        stats = self.stats
        stats.tenancies_materialised += materialised
        stats.arrivals_lost_to_preemption += lost
        stats.arrivals_routed += len(receiving)
        stats.receiving_ips.update(receiving)
        stats.source_ips.update(sources)
        return finished

    def feed(self, arrival: ScanArrival) -> List[TcpSession]:
        """Route one arrival (a batch of one); returns the sessions this
        step finished."""
        return self._route([arrival])

    def flush(self) -> List[TcpSession]:
        """End the stream: tear down every live tenancy, in routing order."""
        live, self._live = self._live, {}
        return [
            session
            for tenancy in live.values()
            for session in self._stamp(tenancy)
        ]

    def collect(self, arrivals: Iterable[ScanArrival]) -> SessionStore:
        """Route arrivals onto the fleet; returns the session archive.

        Arrivals must be time-sorted.  Each arrival is routed to a
        pseudorandom slot (cloud routing is oblivious to tenancy), the
        slot's current tenancy is materialised on demand, and finished
        tenancies are torn down as time advances.
        """
        self._begin_stream()
        store = SessionStore()
        stream = iter(arrivals)
        for batch in iter(lambda: list(islice(stream, _BATCH)), []):
            store.extend(self._route(batch))
        store.extend(self.flush())
        return store
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
        sessions that finished while its arrivals were being routed — the
        concatenation across all windows is byte-identical to
        :meth:`collect` over the same stream (same ids, order, stats,
        ground truth), but no more than one window's working set is held
        beyond the live tenancy table.  Quiet windows are yielded empty so
        downstream consumers see a steady cadence.

        ``max_windows`` truncates the stream after that many windows (the
        final window still flushes whatever closed by then) — the bounded
        tail for smoke tests and ``repro watch --max-windows``.
        """
        if span <= timedelta(0):
            raise ValueError("window span must be positive")
        self._begin_stream()
        base = self.window.start
        index = 0
        finished: List[TcpSession] = []
        seen = 0

        def close(idx: int, final: bool) -> CaptureWindow:
            return CaptureWindow(
                index=idx,
                start=base + idx * span,
                end=base + (idx + 1) * span,
                sessions=finished,
                arrivals=seen,
                final=final,
            )

        truncated = False
        # Arrivals are grouped lazily: a window's batch is routed when the
        # first arrival of a later window is pulled, so at most one
        # arrival past the yielded window has been read.
        batch: List[ScanArrival] = []
        for arrival in arrivals:
            target: Optional[int] = None
            if self.window.contains(arrival.timestamp):
                target = int((arrival.timestamp - base) // span)
            if target is not None and target > index:
                finished.extend(self._route(batch))
                batch = []
                while index < target:
                    if (
                        max_windows is not None
                        and index + 1 >= max_windows
                    ):
                        truncated = True
                        break
                    yield close(index, final=False)
                    finished, seen = [], 0
                    index += 1
                if truncated:
                    break
            batch.append(arrival)
            if target is not None:
                seen += 1
        finished.extend(self._route(batch))
        finished.extend(self.flush())
        yield close(index, final=True)
