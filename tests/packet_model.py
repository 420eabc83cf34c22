"""The packet-level capture path: packets, the TCP handshake, flow
reassembly, and one telescope instance's tenancy.

This is the model the capture pipeline was first written against: each
arrival is run through SYN → ACK → DATA → FIN packets, a listener-side
handshake state machine, and a flow assembler before it becomes a
:class:`~repro.net.session.TcpSession`.  ``DscopeCollector`` now builds the
same sessions in closed form; ``tests/capture_oracle.py`` drives this model
per arrival so the batch collector can be checked byte for byte against it.
Nothing under ``src/`` imports this module.

DSCOPE instances "establish TCP sessions but do not send any
application-layer response, emulating an unresponsive application-layer
service".  The handshake model captures exactly that: the listener
completes the three-way handshake on any port, accepts client data, and
never emits application bytes.  It models the session-level semantics the
measurement depends on (was a session established?  what client data
arrived before reset/close?), not retransmission or congestion control.
Addresses are 32-bit ints; timestamps are UTC datetimes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, Iterable, Iterator, List, Optional

from repro.net.session import TcpSession
from repro.traffic.arrivals import ScanArrival


# -- packets -----------------------------------------------------------------


class PacketKind(enum.Enum):
    """The TCP packet roles the flow assembler distinguishes."""

    SYN = "syn"
    SYN_ACK = "syn-ack"
    ACK = "ack"
    DATA = "data"
    FIN = "fin"
    RST = "rst"


@dataclass(frozen=True)
class Packet:
    """A single captured packet.

    ``payload`` is only populated for :attr:`PacketKind.DATA` packets; the
    assembler concatenates client-to-server data in sequence order.
    """

    timestamp: datetime
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    kind: PacketKind
    seq: int = 0
    payload: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.src_port <= 65535:
            raise ValueError(f"src_port out of range: {self.src_port}")
        if not 0 <= self.dst_port <= 65535:
            raise ValueError(f"dst_port out of range: {self.dst_port}")
        if self.payload and self.kind is not PacketKind.DATA:
            raise ValueError(f"{self.kind} packet cannot carry payload")

    @property
    def flow_key(self) -> tuple:
        """Directionless 5-tuple key identifying the flow."""
        forward = (self.src_ip, self.src_port, self.dst_ip, self.dst_port)
        reverse = (self.dst_ip, self.dst_port, self.src_ip, self.src_port)
        return min(forward, reverse)


# -- TCP handshake -----------------------------------------------------------


class TcpEndpointState(enum.Enum):
    """Listener-side connection states we track."""

    LISTEN = "listen"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    CLOSED = "closed"


class TcpProtocolError(Exception):
    """A packet arrived that is invalid for the current handshake state."""


@dataclass
class TcpHandshake:
    """Listener-side handshake tracking for one client connection.

    Feed client packets via :meth:`receive`; the handshake reports which
    response the (synthetic) listener would emit and accumulates client
    application data once established.
    """

    client_ip: int
    client_port: int
    server_ip: int
    server_port: int
    state: TcpEndpointState = TcpEndpointState.LISTEN
    established_at: Optional[datetime] = None
    closed_at: Optional[datetime] = None
    _chunks: List[bytes] = field(default_factory=list, repr=False)

    def receive(self, packet: Packet) -> Optional[PacketKind]:
        """Process a client packet; return the listener's reply kind, if any.

        Raises :class:`TcpProtocolError` on out-of-state packets (e.g. data
        before the handshake completes), mirroring what a kernel would drop.
        """
        if packet.kind is PacketKind.SYN:
            if self.state is not TcpEndpointState.LISTEN:
                raise TcpProtocolError("duplicate SYN")
            self.state = TcpEndpointState.SYN_RECEIVED
            return PacketKind.SYN_ACK
        if packet.kind is PacketKind.ACK:
            if self.state is TcpEndpointState.SYN_RECEIVED:
                self.state = TcpEndpointState.ESTABLISHED
                self.established_at = packet.timestamp
            return None
        if packet.kind is PacketKind.DATA:
            if self.state is not TcpEndpointState.ESTABLISHED:
                raise TcpProtocolError("data before handshake completion")
            self._chunks.append(packet.payload)
            # The telescope ACKs data but never responds at the
            # application layer.
            return PacketKind.ACK
        if packet.kind in (PacketKind.FIN, PacketKind.RST):
            if self.state is TcpEndpointState.CLOSED:
                return None
            self.state = TcpEndpointState.CLOSED
            self.closed_at = packet.timestamp
            return PacketKind.ACK if packet.kind is PacketKind.FIN else None
        raise TcpProtocolError(f"unexpected packet kind {packet.kind}")

    @property
    def client_payload(self) -> bytes:
        """All client application data received so far, in order."""
        return b"".join(self._chunks)

    @property
    def is_established(self) -> bool:
        return self.established_at is not None


# -- flow assembly -----------------------------------------------------------


class FlowAssembler:
    """Reassemble sessions from a time-ordered client packet stream.

    Only client-originated packets are fed in (the telescope's own replies
    are synthesised by the handshake model and carry no information).  Data
    packets are ordered by their ``seq`` field within a flow.
    """

    def __init__(self) -> None:
        self._flows: Dict[tuple, TcpHandshake] = {}
        self._data: Dict[tuple, List[Packet]] = {}
        self._next_session_id = 0
        self.protocol_errors = 0

    def _key(self, packet: Packet) -> tuple:
        return (packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port)

    def feed(self, packet: Packet) -> Iterator[TcpSession]:
        """Process one packet; yields a session when its flow completes."""
        key = self._key(packet)
        flow = self._flows.get(key)
        if flow is None:
            flow = TcpHandshake(
                client_ip=packet.src_ip,
                client_port=packet.src_port,
                server_ip=packet.dst_ip,
                server_port=packet.dst_port,
            )
            self._flows[key] = flow
            self._data[key] = []
        try:
            flow.receive(packet)
        except TcpProtocolError:
            self.protocol_errors += 1
            return
        if packet.kind is PacketKind.DATA:
            self._data[key].append(packet)
        if packet.kind in (PacketKind.FIN, PacketKind.RST):
            session = self._finish(key)
            if session is not None:
                yield session

    def _finish(self, key: tuple) -> TcpSession:
        flow = self._flows.pop(key)
        data_packets = sorted(self._data.pop(key), key=lambda p: p.seq)
        if not flow.is_established:
            return None
        payload = b"".join(p.payload for p in data_packets)
        session = TcpSession(
            session_id=self._next_session_id,
            start=flow.established_at,
            src_ip=flow.client_ip,
            src_port=flow.client_port,
            dst_ip=flow.server_ip,
            dst_port=flow.server_port,
            payload=payload,
            end=flow.closed_at,
            established=True,
        )
        self._next_session_id += 1
        return session

    def flush(self) -> Iterator[TcpSession]:
        """Close out all in-flight flows (instance teardown)."""
        for key in list(self._flows):
            session = self._finish(key)
            if session is not None:
                yield session

    def assemble(self, packets: Iterable[Packet]) -> Iterator[TcpSession]:
        """Convenience: feed a whole packet stream and flush."""
        for packet in packets:
            yield from self.feed(packet)
        yield from self.flush()


# -- telescope instance ------------------------------------------------------


@dataclass
class TelescopeInstance:
    """One instance slot's tenancy of one IP address.

    DSCOPE runs on preemptible (spot) instances — AWS may reclaim one
    before its planned lifetime ends (paper Appendix A.1).  A preempted
    instance stops receiving at ``preempted_at`` but still flushes whatever
    it captured.
    """

    ip: int
    region: str
    slot: int
    epoch: int
    start: datetime
    lifetime: timedelta
    preempted_at: Optional[datetime] = None
    _assembler: FlowAssembler = field(default_factory=FlowAssembler, repr=False)
    _sessions: List[TcpSession] = field(default_factory=list, repr=False)
    #: Ground-truth CVE per captured session (validation only; parallel to
    #: the captured session list — the detection pipeline never reads it).
    _truths: List[Optional[str]] = field(default_factory=list, repr=False)

    @property
    def planned_end(self) -> datetime:
        return self.start + self.lifetime

    @property
    def end(self) -> datetime:
        if self.preempted_at is not None:
            return min(self.planned_end, self.preempted_at)
        return self.planned_end

    @property
    def was_preempted(self) -> bool:
        return self.preempted_at is not None and self.preempted_at < self.planned_end

    def is_live(self, when: datetime) -> bool:
        return self.start <= when < self.end

    def receive(self, arrival: ScanArrival) -> None:
        """Accept one scanner connection: full handshake, data, close.

        Runs the arrival through the packet path (SYN → ACK → DATA → FIN) so
        the TCP state machine and flow reassembly are exercised for every
        captured session.
        """
        if not self.is_live(arrival.timestamp):
            raise ValueError(
                f"arrival at {arrival.timestamp} outside instance tenancy "
                f"[{self.start}, {self.end})"
            )
        base = dict(
            src_ip=arrival.src_ip,
            src_port=arrival.src_port,
            dst_ip=self.ip,
            dst_port=arrival.dst_port,
        )
        step = timedelta(milliseconds=20)
        packets = [
            Packet(timestamp=arrival.timestamp, kind=PacketKind.SYN, **base),
            Packet(timestamp=arrival.timestamp + step, kind=PacketKind.ACK, **base),
        ]
        if arrival.payload:
            packets.append(
                Packet(
                    timestamp=arrival.timestamp + 2 * step,
                    kind=PacketKind.DATA,
                    seq=1,
                    payload=arrival.payload,
                    **base,
                )
            )
        packets.append(
            Packet(timestamp=arrival.timestamp + 3 * step, kind=PacketKind.FIN, **base)
        )
        before = len(self._sessions)
        for packet in packets:
            self._sessions.extend(self._assembler.feed(packet))
        # Every completed flow from this arrival carries its ground truth.
        self._truths.extend(
            [arrival.truth_cve] * (len(self._sessions) - before)
        )

    def teardown(self) -> List[TcpSession]:
        """Finish the tenancy; returns all captured sessions.

        Ground truth for the returned sessions (same order) is available
        via :meth:`truths`.
        """
        flushed = list(self._assembler.flush())
        self._sessions.extend(flushed)
        self._truths.extend([None] * len(flushed))
        sessions, self._sessions = self._sessions, []
        self._final_truths, self._truths = self._truths, []
        return sessions

    def truths(self) -> List[Optional[str]]:
        """Ground-truth CVEs parallel to the last :meth:`teardown` result."""
        return list(getattr(self, "_final_truths", []))
