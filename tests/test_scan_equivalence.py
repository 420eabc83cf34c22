"""Differential tests: the scan vs the retention oracle.

The scan's speed comes from *how* it runs (C-speed prefilter, ordered lazy
retention, payload memoisation, plan-compiled evaluation), none of which
may change *what* it produces: alerts, their stream order, and
``DetectionStats`` (including ``alerts_by_sid`` insertion order), serial
and parallel, are all asserted byte-identical to
:class:`tests.scan_oracle.ScanOracle`, which evaluates every candidate rule
and keeps the least ``(published, insertion index)``.
"""

from datetime import datetime, timezone
from itertools import islice

import pytest

from repro.exploits.rulegen import build_study_ruleset
from repro.net.session import TcpSession
from repro.nids import matcher
from repro.nids.engine import DetectionEngine, DetectionStats, ScanTelemetry
from repro.nids.matcher import PCRE_CACHE_SIZE, SessionBuffers
from repro.nids.parser import parse_rule
from repro.nids.rule import HttpBuffer
from repro.nids.ruleset import Ruleset
from tests.scan_oracle import ScanOracle

T0 = datetime(2022, 6, 1, tzinfo=timezone.utc)


def _session(sid, payload, dst_port=80):
    return TcpSession(
        session_id=sid, start=T0, src_ip=1, src_port=1024,
        dst_ip=2, dst_port=dst_port, payload=payload,
    )


def _oracle_scan(ruleset, sessions):
    """The oracle's alerts and the stats a serial pass records for them."""
    sessions = list(sessions)
    alerts = ScanOracle(ruleset).scan(sessions)
    stats = DetectionStats()
    stats.replay(alerts, sessions_scanned=len(sessions))
    return alerts, stats


def _assert_matches_oracle(engine, alerts, reference_alerts, reference_stats):
    assert alerts == reference_alerts
    assert engine.stats == reference_stats
    # Insertion order of alerts_by_sid is the retention order — the ordered
    # lazy path must reproduce it exactly, not just the counts.
    assert list(engine.stats.alerts_by_sid.items()) == list(
        reference_stats.alerts_by_sid.items()
    )


class TestScanEquivalence:
    """Scan-for-oracle equality on the shared small-scale study store."""

    def test_serial_scan_identical(self, study):
        reference_alerts, reference_stats = _oracle_scan(
            build_study_ruleset(), study.store
        )
        assert reference_alerts  # the comparison must not be vacuous
        engine = DetectionEngine(build_study_ruleset())
        alerts = engine.scan(study.store)
        _assert_matches_oracle(engine, alerts, reference_alerts, reference_stats)

    def test_parallel_scan_identical(self, study):
        reference_alerts, reference_stats = _oracle_scan(
            build_study_ruleset(), study.store
        )
        # threshold=0: the shared study store is below the break-even size,
        # and a serial fallback would make this test vacuous.
        engine = DetectionEngine(build_study_ruleset(), workers=4, threshold=0)
        alerts = engine.scan(study.store)
        _assert_matches_oracle(engine, alerts, reference_alerts, reference_stats)

    @pytest.mark.parametrize("port_insensitive", [True, False])
    def test_match_session_identical_per_session(self, study, port_insensitive):
        ruleset = build_study_ruleset(port_insensitive=port_insensitive)
        oracle = ScanOracle(ruleset)
        sample = list(islice(study.store, 300))
        assert sample
        for session in sample:
            assert ruleset.match_session(session) == oracle.match(session)

    @pytest.mark.parametrize("port_insensitive", [True, False])
    def test_match_all_identical_per_session(self, study, port_insensitive):
        ruleset = build_study_ruleset(port_insensitive=port_insensitive)
        oracle = ScanOracle(ruleset)
        for session in islice(study.store, 100):
            assert ruleset.match_all(session) == oracle.match_all(session)


class TestPublicationTie:
    """Two rules published at the same instant, both matching: the
    earlier-inserted SID wins (rank order is ``(published, insertion
    index)``), however the scan runs."""

    @staticmethod
    def _ruleset():
        ruleset = Ruleset()
        # Inserted first but with the larger SID, so a tie broken by SID
        # (or by candidate order) would pick the other rule.
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any any '
                '(msg:"first"; content:"attack"; sid:20;)'
            ),
            T0,
        )
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any any '
                '(msg:"second"; content:"an attack"; sid:10;)'
            ),
            T0,
        )
        return ruleset

    def test_earlier_inserted_sid_wins(self):
        sessions = [_session(i, b"an attack here") for i in range(8)]
        oracle_alerts = ScanOracle(self._ruleset()).scan(sessions)
        assert [alert.sid for alert in oracle_alerts] == [20] * len(sessions)
        serial = DetectionEngine(self._ruleset()).scan(sessions)
        assert serial == oracle_alerts
        parallel = DetectionEngine(
            self._ruleset(), workers=2, threshold=0
        ).scan(sessions)
        assert parallel == oracle_alerts


class TestScanTelemetry:
    def test_regex_telemetry_populated(self, study):
        engine = DetectionEngine(build_study_ruleset())
        engine.scan(study.store)
        telemetry = engine.stats.telemetry
        store = list(study.store)
        assert telemetry.sessions == len(store)
        assert telemetry.payload_bytes == sum(len(s.payload) for s in store)
        probes = sum(1 for s in store if s.payload)
        assert (
            telemetry.match_cache_hits + telemetry.match_cache_misses == probes
        )
        # Archives repeat payloads heavily — the memo must actually hit.
        assert telemetry.match_cache_hits > 0
        assert 0.0 < telemetry.prefilter_hit_ratio <= 1.0
        assert 0.0 < telemetry.match_cache_hit_ratio < 1.0
        assert telemetry.candidates_evaluated <= telemetry.candidates_nominated
        assert telemetry.scan_seconds > 0.0
        assert telemetry.prefilter_seconds > 0.0
        assert telemetry.eval_seconds > 0.0
        hits, misses, maxsize, currsize = telemetry.pcre_cache
        assert maxsize == PCRE_CACHE_SIZE
        assert currsize <= maxsize

    def test_parallel_telemetry_merged_across_workers(self, study):
        serial = DetectionEngine(build_study_ruleset())
        serial.scan(study.store)
        parallel = DetectionEngine(build_study_ruleset(), workers=4, threshold=0)
        parallel.scan(study.store)
        merged = parallel.stats.telemetry
        assert merged.sessions == serial.stats.telemetry.sessions
        assert merged.payload_bytes == serial.stats.telemetry.payload_bytes
        # Chunking splits the payload universe, so per-chunk memos can
        # resolve the same payload twice — never fewer times than serial.
        assert (
            merged.match_cache_misses
            >= serial.stats.telemetry.match_cache_misses
        )

    def test_merge_sums_counters(self):
        a = ScanTelemetry(sessions=2, payload_bytes=10, match_cache_hits=1)
        b = ScanTelemetry(
            sessions=3,
            payload_bytes=5,
            match_cache_hits=2,
            pcre_cache=(1, 2, 64, 2),
        )
        a.merge(b)
        assert a.sessions == 5
        assert a.payload_bytes == 15
        assert a.match_cache_hits == 3
        assert a.pcre_cache == (1, 2, 64, 2)

    def test_as_dict_is_json_shaped(self):
        record = ScanTelemetry(sessions=4).as_dict()
        assert record["sessions"] == 4
        for key in (
            "payload_bytes",
            "prefilter_hits",
            "prefilter_hit_ratio",
            "candidates_nominated",
            "candidates_evaluated",
            "match_cache_hits",
            "match_cache_misses",
            "match_cache_hit_ratio",
            "prefilter_seconds",
            "eval_seconds",
            "scan_seconds",
            "pcre_cache",
        ):
            assert key in record


class TestPortSensitivePath:
    def _ruleset(self):
        ruleset = Ruleset(port_insensitive=False)
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any 80 '
                '(msg:"http only"; content:"attack"; sid:1;)'
            ),
            T0,
        )
        return ruleset

    def test_match_payloads_requires_port_insensitive(self):
        with pytest.raises(ValueError):
            self._ruleset().match_payloads([b"attack"])

    def test_match_payloads_pairs_ports_with_payloads(self):
        ruleset = self._ruleset()
        winners = ruleset.match_payloads([b"attack"] * 2, [(1, 80), (1, 443)])[0]
        assert winners == [0, -1]
        with pytest.raises(ValueError):
            ruleset.match_payloads([b"attack"] * 2, [(1, 80)])

    def test_port_sensitive_scan_respects_ports(self):
        sessions = [
            _session(1, b"an attack here", dst_port=80),
            _session(2, b"an attack here", dst_port=443),  # same payload!
            _session(3, b"benign", dst_port=80),
        ]
        reference_alerts, reference_stats = _oracle_scan(self._ruleset(), sessions)
        assert [a.session_id for a in reference_alerts] == [1]
        serial = DetectionEngine(self._ruleset())
        _assert_matches_oracle(
            serial, serial.scan(sessions), reference_alerts, reference_stats
        )
        parallel = DetectionEngine(self._ruleset(), workers=2, threshold=0)
        _assert_matches_oracle(
            parallel, parallel.scan(sessions), reference_alerts, reference_stats
        )
        # Port-sensitive memo keys include the port pair: two sessions with
        # identical payloads but different ports are distinct cache entries.
        assert serial.stats.telemetry.match_cache_misses == 3


class TestSessionBufferCaching:
    def test_absent_buffers_parse_once(self, monkeypatch):
        calls = []
        real = matcher.split_http_head

        def counting(payload):
            calls.append(payload)
            return real(payload)

        monkeypatch.setattr(matcher, "split_http_head", counting)
        buffers = SessionBuffers(b"\x00\x01 not http at all")
        for _ in range(3):
            assert buffers.lowered(HttpBuffer.HTTP_URI) is None
            assert buffers.get(HttpBuffer.HTTP_HEADER) is None
            assert buffers.get(HttpBuffer.HTTP_COOKIE) is None
        assert len(calls) == 1

    def test_header_parse_deferred_until_needed(self, monkeypatch):
        parses = []
        real = matcher.parse_http_headers

        def counting(lines):
            parses.append(lines)
            return real(lines)

        monkeypatch.setattr(matcher, "parse_http_headers", counting)
        buffers = SessionBuffers(
            b"GET /x HTTP/1.1\r\nHost: a\r\nCookie: c=1\r\n\r\nbody"
        )
        assert buffers.get(HttpBuffer.HTTP_URI) == b"/x"
        assert buffers.get(HttpBuffer.HTTP_METHOD) == b"GET"
        assert buffers.get(HttpBuffer.HTTP_CLIENT_BODY) == b"body"
        assert parses == []  # request-line buffers never parse headers
        assert buffers.get(HttpBuffer.HTTP_HEADER) == b"Host: a"
        assert buffers.get(HttpBuffer.HTTP_COOKIE) == b"c=1"
        assert len(parses) == 1

    def test_pcre_cache_covers_full_ruleset(self):
        assert matcher._compiled.cache_info().maxsize == PCRE_CACHE_SIZE
        assert PCRE_CACHE_SIZE >= 100 * len(build_study_ruleset())
