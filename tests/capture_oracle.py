"""Differential oracle: the per-arrival DSCOPE collector, frozen.

This is the capture loop :class:`repro.telescope.collector.DscopeCollector`
ran before it routed arrivals a batch at a time: one scalar routing draw,
one ``datetime`` tenancy computation and one packet-level
:class:`TelescopeInstance` per arrival, and a full :func:`derive_seed` per
address probe.  It is kept verbatim (minus the streaming-window wrapper)
so tests can assert the batch collector's sessions, stats and ground truth
are byte-identical to it.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import dataclasses
from datetime import datetime
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.telescope.collector import CollectionStats
from repro.telescope.config import TelescopeConfig
from repro.telescope.pool import REGION_BLOCKS
from repro.traffic.arrivals import ScanArrival
from repro.util.iputil import parse_cidr
from repro.util.rng import derive_rng, derive_seed
from repro.util.timeutil import TimeWindow
from tests.packet_model import TelescopeInstance


class OracleIpPool:
    """The address pool with one full ``derive_seed`` call per probe."""

    def __init__(self, *, seed: int) -> None:
        self._seed = seed
        self._blocks = {
            region: tuple(parse_cidr(cidr) for cidr in cidrs)
            for region, cidrs in REGION_BLOCKS.items()
        }

    def region_capacity(self, region: str) -> int:
        return sum(1 << (32 - prefix) for _, prefix in self._blocks[region])

    def allocate(self, region: str, slot: int, epoch: int) -> int:
        if region not in self._blocks:
            raise KeyError(f"unknown region {region!r}")
        blocks = self._blocks[region]
        capacity = self.region_capacity(region)
        for probe in range(8):
            value = derive_seed(self._seed, "ip", region, epoch, slot, probe)
            address = self._index_to_address(blocks, value % capacity)
            if not self._collides(region, slot, epoch, address):
                return address
        return address

    def _index_to_address(self, blocks, index: int) -> int:
        for base, prefix in blocks:
            size = 1 << (32 - prefix)
            if index < size:
                return base + index
            index -= size
        raise AssertionError("index out of pool range")

    def _collides(self, region: str, slot: int, epoch: int, address: int) -> bool:
        for other_slot in range(max(slot - 4, 0), slot):
            other = derive_seed(self._seed, "ip", region, epoch, other_slot, 0)
            if self._index_to_address(
                self._blocks[region], other % self.region_capacity(region)
            ) == address:
                return True
        return False


class OracleCollector:
    """The per-arrival ``feed``/``flush``/``_finish`` capture loop."""

    def __init__(
        self, config: Optional[TelescopeConfig] = None, *, window: TimeWindow
    ) -> None:
        self.config = config or TelescopeConfig()
        self.window = window
        self.pool = OracleIpPool(seed=self.config.seed)
        self.stats = CollectionStats()
        #: The addresses that sent and received an accepted arrival, which
        #: the stats count.
        self.receiving_ips: Set[int] = set()
        self.source_ips: Set[int] = set()
        self._next_session_id = 0
        self.ground_truth: Dict[int, Optional[str]] = {}
        self._routing_rng = None
        self._live: Dict[Tuple[int, int], TelescopeInstance] = {}
        self._last_time: Optional[datetime] = None
        self.arrivals_fed = 0

    def tenancy_for(self, slot: int, when: datetime) -> Tuple[int, datetime]:
        lifetime = self.config.instance_lifetime
        stagger = lifetime * (slot / self.config.concurrent_instances)
        elapsed = (when - self.window.start) - stagger
        epoch = int(elapsed // lifetime)
        start = self.window.start + stagger + epoch * lifetime
        return epoch, start

    def instance_for(self, slot: int, when: datetime) -> TelescopeInstance:
        epoch, start = self.tenancy_for(slot, when)
        region = self.config.region_for_slot(slot)
        preempted_at = None
        if self.config.preemption_rate > 0:
            rng = derive_rng(self.config.seed, "preempt", region, slot, epoch)
            if rng.uniform() < self.config.preemption_rate:
                fraction = float(rng.uniform(0.2, 0.95))
                preempted_at = start + self.config.instance_lifetime * fraction
        return TelescopeInstance(
            ip=self.pool.allocate(region, slot, epoch),
            region=region,
            slot=slot,
            epoch=epoch,
            start=start,
            lifetime=self.config.instance_lifetime,
            preempted_at=preempted_at,
        )

    def _begin_stream(self) -> None:
        self._routing_rng = derive_rng(self.config.seed, "routing")
        self._live = {}
        self._last_time = None
        self.arrivals_fed = 0

    def _finish(self, instance: TelescopeInstance) -> List[TcpSession]:
        finished: List[TcpSession] = []
        sessions = instance.teardown()
        for session, truth in zip(sessions, instance.truths()):
            stamped = dataclasses.replace(
                session, session_id=self._next_session_id
            )
            finished.append(stamped)
            self.ground_truth[self._next_session_id] = truth
            self._next_session_id += 1
            self.stats.sessions_captured += 1
        return finished

    def feed(self, arrival: ScanArrival) -> List[TcpSession]:
        if self._last_time is not None and arrival.timestamp < self._last_time:
            raise ValueError("arrival stream is not time-sorted")
        self._last_time = arrival.timestamp
        self.arrivals_fed += 1
        if not self.window.contains(arrival.timestamp):
            return []
        finished: List[TcpSession] = []
        slot = int(self._routing_rng.integers(0, self.config.concurrent_instances))
        epoch, _ = self.tenancy_for(slot, arrival.timestamp)
        key = (slot, epoch)
        instance = self._live.get(key)
        if instance is None:
            stale = [
                k for k, inst in self._live.items()
                if k[0] == slot or inst.end <= arrival.timestamp
            ]
            for k in stale:
                finished.extend(self._finish(self._live.pop(k)))
            instance = self.instance_for(slot, arrival.timestamp)
            self._live[key] = instance
            self.stats.tenancies_materialised += 1
        if not instance.is_live(arrival.timestamp):
            self.stats.arrivals_lost_to_preemption += 1
            return finished
        instance.receive(arrival)
        self.stats.arrivals_routed += 1
        self.receiving_ips.add(instance.ip)
        self.source_ips.add(arrival.src_ip)
        self.stats.unique_receiving_ips = len(self.receiving_ips)
        self.stats.unique_source_ips = len(self.source_ips)
        return finished

    def flush(self) -> List[TcpSession]:
        finished: List[TcpSession] = []
        live, self._live = self._live, {}
        for instance in live.values():
            finished.extend(self._finish(instance))
        return finished

    def collect(self, arrivals: Iterable[ScanArrival]) -> SessionStore:
        self._begin_stream()
        store = SessionStore()
        for arrival in arrivals:
            store.extend(self.feed(arrival))
        store.extend(self.flush())
        return store
