"""Unit tests for the network substrate: packets, TCP, sessions, HTTP,
flow assembly, and the session store."""

from datetime import timedelta

import pytest

from repro.net.http import HttpRequest, parse_http_request
from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.util.timeutil import utc
from tests.packet_model import (
    FlowAssembler,
    Packet,
    PacketKind,
    TcpEndpointState,
    TcpHandshake,
    TcpProtocolError,
)

T0 = utc(2022, 1, 1, 12, 0)


def _packet(kind, *, seq=0, payload=b"", offset_ms=0):
    return Packet(
        timestamp=T0 + timedelta(milliseconds=offset_ms),
        src_ip=0x01020304,
        src_port=40000,
        dst_ip=0x05060708,
        dst_port=80,
        kind=kind,
        seq=seq,
        payload=payload,
    )


class TestPacket:
    def test_payload_only_on_data(self):
        with pytest.raises(ValueError):
            _packet(PacketKind.SYN, payload=b"x")

    def test_port_validation(self):
        with pytest.raises(ValueError):
            Packet(
                timestamp=T0, src_ip=1, src_port=70000, dst_ip=2, dst_port=80,
                kind=PacketKind.SYN,
            )

    def test_flow_key_directionless(self):
        forward = _packet(PacketKind.SYN)
        reverse = Packet(
            timestamp=T0, src_ip=0x05060708, src_port=80,
            dst_ip=0x01020304, dst_port=40000, kind=PacketKind.SYN_ACK,
        )
        assert forward.flow_key == reverse.flow_key


class TestTcpHandshake:
    def _handshake(self):
        return TcpHandshake(
            client_ip=1, client_port=40000, server_ip=2, server_port=80
        )

    def test_full_lifecycle(self):
        hs = self._handshake()
        assert hs.receive(_packet(PacketKind.SYN)) is PacketKind.SYN_ACK
        assert hs.state is TcpEndpointState.SYN_RECEIVED
        hs.receive(_packet(PacketKind.ACK, offset_ms=10))
        assert hs.is_established
        assert hs.receive(_packet(PacketKind.DATA, payload=b"GET /", offset_ms=20)) is PacketKind.ACK
        hs.receive(_packet(PacketKind.FIN, offset_ms=30))
        assert hs.state is TcpEndpointState.CLOSED
        assert hs.client_payload == b"GET /"
        assert hs.closed_at is not None

    def test_data_before_handshake_rejected(self):
        hs = self._handshake()
        with pytest.raises(TcpProtocolError):
            hs.receive(_packet(PacketKind.DATA, payload=b"x"))

    def test_duplicate_syn_rejected(self):
        hs = self._handshake()
        hs.receive(_packet(PacketKind.SYN))
        with pytest.raises(TcpProtocolError):
            hs.receive(_packet(PacketKind.SYN))

    def test_rst_closes_without_reply(self):
        hs = self._handshake()
        hs.receive(_packet(PacketKind.SYN))
        assert hs.receive(_packet(PacketKind.RST, offset_ms=5)) is None
        assert hs.state is TcpEndpointState.CLOSED

    def test_multiple_data_chunks_concatenate(self):
        hs = self._handshake()
        hs.receive(_packet(PacketKind.SYN))
        hs.receive(_packet(PacketKind.ACK, offset_ms=1))
        hs.receive(_packet(PacketKind.DATA, payload=b"ab", offset_ms=2))
        hs.receive(_packet(PacketKind.DATA, payload=b"cd", offset_ms=3))
        assert hs.client_payload == b"abcd"


class TestTcpSession:
    def test_validation(self):
        with pytest.raises(ValueError):
            TcpSession(
                session_id=1, start=T0, src_ip=1, src_port=1, dst_ip=2,
                dst_port=80, end=T0 - timedelta(seconds=1),
            )

    def test_describe_mentions_endpoints(self):
        session = TcpSession(
            session_id=7, start=T0, src_ip=0x01020304, src_port=1234,
            dst_ip=0x05060708, dst_port=80, payload=b"xyz",
        )
        text = session.describe()
        assert "1.2.3.4:1234" in text
        assert "5.6.7.8:80" in text
        assert "3 payload bytes" in text


class TestHttp:
    def test_encode_parse_roundtrip(self):
        request = HttpRequest(
            method="POST",
            uri="/a/b?x=1",
            headers=[("Host", "h"), ("X-Test", "v")],
            body=b"payload",
        )
        parsed = parse_http_request(request.encode())
        assert parsed.method == "POST"
        assert parsed.uri == "/a/b?x=1"
        assert parsed.header("x-test") == "v"
        assert parsed.body == b"payload"

    def test_cookie_excluded_from_raw_headers(self):
        request = HttpRequest(headers=[("Host", "h"), ("Cookie", "s=1")])
        assert "Cookie" not in request.raw_headers
        assert request.cookie == "s=1"

    def test_with_header_copies(self):
        base = HttpRequest()
        extended = base.with_header("A", "1")
        assert base.header("A") is None
        assert extended.header("A") == "1"

    def test_parse_non_http_returns_none(self):
        assert parse_http_request(b"\x00\x01\x02") is None
        assert parse_http_request(b"EHLO smtp\r\n") is None
        assert parse_http_request(b"") is None

    def test_parse_skips_malformed_header_lines(self):
        payload = b"GET / HTTP/1.1\r\nHost: h\r\ngarbageline\r\n\r\n"
        parsed = parse_http_request(payload)
        assert parsed.header("Host") == "h"

    def test_content_length_added_for_body(self):
        encoded = HttpRequest(method="POST", body=b"abc").encode()
        assert b"Content-Length: 3" in encoded


class TestFlowAssembler:
    def _stream(self, payload=b"GET / HTTP/1.1\r\n\r\n"):
        return [
            _packet(PacketKind.SYN),
            _packet(PacketKind.ACK, offset_ms=1),
            _packet(PacketKind.DATA, seq=1, payload=payload, offset_ms=2),
            _packet(PacketKind.FIN, offset_ms=3),
        ]

    def test_assembles_one_session(self):
        sessions = list(FlowAssembler().assemble(self._stream()))
        assert len(sessions) == 1
        assert sessions[0].payload == b"GET / HTTP/1.1\r\n\r\n"
        assert sessions[0].dst_port == 80

    def test_data_ordered_by_seq(self):
        packets = [
            _packet(PacketKind.SYN),
            _packet(PacketKind.ACK, offset_ms=1),
            _packet(PacketKind.DATA, seq=2, payload=b"world", offset_ms=2),
            _packet(PacketKind.DATA, seq=1, payload=b"hello ", offset_ms=3),
            _packet(PacketKind.FIN, offset_ms=4),
        ]
        sessions = list(FlowAssembler().assemble(packets))
        assert sessions[0].payload == b"hello world"

    def test_flush_emits_unclosed_flows(self):
        assembler = FlowAssembler()
        for packet in self._stream()[:3]:
            list(assembler.feed(packet))
        sessions = list(assembler.flush())
        assert len(sessions) == 1

    def test_unestablished_flow_dropped(self):
        assembler = FlowAssembler()
        list(assembler.feed(_packet(PacketKind.SYN)))
        assert list(assembler.flush()) == []

    def test_protocol_errors_counted_not_raised(self):
        assembler = FlowAssembler()
        list(assembler.feed(_packet(PacketKind.DATA, seq=1, payload=b"x")))
        assert assembler.protocol_errors == 1

    def test_session_ids_unique(self):
        assembler = FlowAssembler()
        first = list(assembler.assemble(self._stream()))
        second = list(assembler.assemble(self._stream()))
        assert first[0].session_id != second[0].session_id


class TestSessionStore:
    def _session(self, sid, minute):
        return TcpSession(
            session_id=sid, start=T0 + timedelta(minutes=minute),
            src_ip=1, src_port=1, dst_ip=2, dst_port=80, payload=b"p",
        )

    def test_iteration_sorted_regardless_of_insert_order(self):
        store = SessionStore()
        store.append(self._session(2, 10))
        store.append(self._session(1, 5))
        assert [s.session_id for s in store] == [1, 2]

    def test_between_range(self):
        store = SessionStore()
        store.extend(self._session(i, i) for i in range(10))
        subset = list(store.between(T0 + timedelta(minutes=3), T0 + timedelta(minutes=6)))
        assert [s.session_id for s in subset] == [3, 4, 5]

    def test_to_port_filters(self):
        store = SessionStore()
        store.append(self._session(1, 0))
        other = TcpSession(
            session_id=2, start=T0, src_ip=1, src_port=1, dst_ip=2,
            dst_port=443, payload=b"p",
        )
        store.append(other)
        assert [s.session_id for s in store.to_port(443)] == [2]

    def test_save_load_roundtrip(self, tmp_path):
        store = SessionStore()
        store.append(self._session(1, 0))
        store.append(
            TcpSession(
                session_id=2, start=T0, src_ip=9, src_port=9, dst_ip=8,
                dst_port=25, payload=b"\x00\xffbinary",
                end=T0 + timedelta(seconds=5),
            )
        )
        path = tmp_path / "archive.jsonl"
        assert store.save(path) == 2
        loaded = SessionStore.load(path)
        assert len(loaded) == 2
        binary = [s for s in loaded if s.session_id == 2][0]
        assert binary.payload == b"\x00\xffbinary"
        assert binary.end == T0 + timedelta(seconds=5)
