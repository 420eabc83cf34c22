"""The zero-copy scan data plane: arena format, pools, break-even policy.

Three layers of guarantees:

* **format** — :mod:`repro.nids.arena` encode/decode is an exact
  round-trip for arbitrary sessions (hypothesis), the shared-memory
  lifecycle never leaks ``/dev/shm`` segments, and malformed frames are
  rejected rather than misread;
* **policy** — :func:`repro.nids.parallel.parallel_scan` falls back to a
  serial in-process scan below the break-even size (recording the decision
  in telemetry and the run manifest), keeps one warm worker pool across
  scans and across ``run_study`` calls, and its output equals a serial
  scan's;
* **hygiene** — killed or crashed scans leave nothing behind: the gc sweep
  (:func:`repro.cache.gc.collect_shm_garbage`) removes exactly the
  orphaned segments and never a live process's.
"""

from __future__ import annotations

import glob
import os
import pickle
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.gc import collect_shm_garbage
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.exploits.rulegen import build_study_ruleset
from repro.net.session import TcpSession
from repro.nids import parallel
from repro.nids.arena import (
    ArenaFormatError,
    SessionArena,
    decode_sessions,
    encode_sessions,
    frame_count,
    frame_ruleset_blob,
)
from repro.nids.engine import DetectionEngine, scan_stream
from repro.nids.parallel import (
    DEFAULT_PARALLEL_THRESHOLD,
    parallel_scan,
    parallel_threshold,
    shutdown_warm_pool,
)
from repro.telescope.collector import DscopeCollector
from repro.traffic.generator import TrafficConfig, TrafficGenerator

T0 = datetime(2022, 6, 1, tzinfo=timezone.utc)


def _session(sid, payload=b"", **overrides):
    fields = dict(
        session_id=sid, start=T0, src_ip=1, src_port=1024,
        dst_ip=2, dst_port=80, payload=payload,
    )
    fields.update(overrides)
    return TcpSession(**fields)


def _shm_arenas():
    return glob.glob("/dev/shm/repro-arena-*")


# Timestamps the frame must carry exactly: naive, UTC, fixed offsets
# (positive and negative, sub-hour), microsecond precision, pre-epoch.
_timezones = st.one_of(
    st.none(),
    st.just(timezone.utc),
    st.integers(min_value=-14 * 3600, max_value=14 * 3600).map(
        lambda seconds: timezone(timedelta(seconds=seconds))
    ),
)
_datetimes = st.datetimes(
    min_value=datetime(1903, 1, 1),
    max_value=datetime(2261, 1, 1),
    timezones=_timezones,
)
@st.composite
def _sessions(draw):
    start = draw(_datetimes)
    # end must compare against start (same awareness, end >= start), so it
    # is derived rather than drawn independently.
    duration = draw(
        st.one_of(
            st.none(),
            st.integers(min_value=0, max_value=10**9).map(
                lambda us: timedelta(microseconds=us)
            ),
        )
    )
    return TcpSession(
        session_id=draw(st.integers(min_value=-(2**63), max_value=2**63 - 1)),
        start=start,
        src_ip=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        src_port=draw(st.integers(min_value=0, max_value=65535)),
        dst_ip=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        dst_port=draw(st.integers(min_value=0, max_value=65535)),
        payload=draw(st.binary(max_size=512)),
        end=None if duration is None else start + duration,
        established=draw(st.booleans()),
    )


class TestFrameRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_sessions(), max_size=20))
    def test_arbitrary_sessions_round_trip(self, sessions):
        buf = encode_sessions(sessions)
        assert frame_count(buf) == len(sessions)
        assert decode_sessions(buf) == sessions

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(_sessions(), min_size=1, max_size=20),
        st.data(),
    )
    def test_any_slice_round_trips(self, sessions, data):
        buf = encode_sessions(sessions)
        start = data.draw(st.integers(0, len(sessions)))
        stop = data.draw(st.integers(start, len(sessions)))
        assert decode_sessions(buf, start, stop) == sessions[start:stop]

    def test_ruleset_blob_embedded(self):
        blob = pickle.dumps({"rules": 80})
        buf = encode_sessions([_session(1, b"x")], ruleset_blob=blob)
        assert frame_ruleset_blob(buf) == blob

    def test_payload_heap_deduplicates(self):
        repeated = [_session(i, b"A" * 1000) for i in range(100)]
        distinct = [_session(i, bytes([i]) * 1000) for i in range(100)]
        assert len(encode_sessions(repeated)) < len(encode_sessions(distinct)) / 10

    def test_exotic_tzinfo_rejected(self):
        session = _session(
            1, start=datetime(2022, 1, 1, tzinfo=timezone(timedelta(hours=1)))
        )
        # Fixed offsets are fine...
        decode_sessions(encode_sessions([session]))
        # ...but a sub-second offset cannot be carried exactly.
        odd = datetime(
            2022, 1, 1,
            tzinfo=timezone(timedelta(seconds=30, microseconds=500000)),
        )
        with pytest.raises(ArenaFormatError):
            encode_sessions([_session(1, start=odd)])

    def test_truncated_frame_rejected(self):
        buf = encode_sessions([_session(1, b"payload")])
        with pytest.raises(ArenaFormatError):
            decode_sessions(buf[: len(buf) // 2])
        with pytest.raises(ArenaFormatError):
            decode_sessions(b"NOTMAGIC" + buf[8:])


class TestArenaLifecycle:
    def test_build_attach_close_unlink(self):
        sessions = [_session(i, b"p" * i) for i in range(10)]
        arena = SessionArena.build(sessions, ruleset_blob=b"blob")
        try:
            assert arena.count == 10
            assert arena.sessions(0, 10) == sessions
            assert arena.sessions(3, 7) == sessions[3:7]
            attached = SessionArena.attach(arena.name)
            assert attached.sessions(0, 10) == sessions
            assert attached.ruleset_blob() == b"blob"
            attached.close()
        finally:
            arena.close_and_unlink()
        assert not _shm_arenas()

    def test_unlink_is_idempotent(self):
        arena = SessionArena.build([_session(1)])
        arena.close_and_unlink()
        arena.close_and_unlink()
        assert not _shm_arenas()


class TestBreakEvenPolicy:
    def test_threshold_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_THRESHOLD", raising=False)
        assert parallel_threshold() == DEFAULT_PARALLEL_THRESHOLD
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "123")
        assert parallel_threshold() == 123
        assert parallel_threshold(0) == 0  # explicit argument wins
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "-5")
        with pytest.raises(ValueError):
            parallel_threshold()

    def test_small_stream_falls_back_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_THRESHOLD", raising=False)
        ruleset = build_study_ruleset()
        sessions = [_session(i, b"GET / HTTP/1.1\r\n\r\n") for i in range(50)]
        serial_alerts, _, _ = scan_stream(ruleset, sessions)
        alerts, scanned, telemetry = parallel_scan(ruleset, sessions, workers=4)
        assert alerts == serial_alerts
        assert scanned == len(sessions)
        # The decision is recorded, and no pool work happened at all.
        assert telemetry.fallback_serial == 1
        assert telemetry.arena_bytes == 0
        assert telemetry.pool_reuses == 0

    def test_forced_pool_does_not_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        ruleset = build_study_ruleset()
        sessions = [_session(i, b"x" * 10) for i in range(200)]
        _, _, telemetry = parallel_scan(ruleset, sessions, workers=2)
        assert telemetry.fallback_serial == 0
        assert telemetry.arena_bytes > 0

    def test_serial_request_not_marked_fallback(self):
        ruleset = build_study_ruleset()
        _, _, telemetry = parallel_scan(
            ruleset, [_session(1, b"x")], workers=1
        )
        assert telemetry.fallback_serial == 0


class TestArenaPlane:
    def test_arena_plane_matches_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        generator = TrafficGenerator(
            TrafficConfig(seed=7, volume_scale=0.01, background_per_exploit=0.3)
        )
        store = DscopeCollector(window=STUDY_WINDOW).collect(generator.generate())
        ruleset = build_study_ruleset()
        sessions = list(store)
        serial_alerts, serial_scanned, _ = scan_stream(ruleset, sessions)
        alerts, scanned, telemetry = parallel_scan(ruleset, sessions, workers=2)
        assert serial_alerts  # never vacuous
        assert alerts == serial_alerts
        assert scanned == serial_scanned
        assert telemetry.arena_bytes > 0


class TestWarmPoolAndHygiene:
    @pytest.fixture(autouse=True)
    def _force_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")

    def test_pool_reused_across_scans(self):
        ruleset = build_study_ruleset()
        sessions = [_session(i, b"GET / HTTP/1.1\r\n\r\n") for i in range(300)]
        shutdown_warm_pool()
        _, _, first = parallel_scan(ruleset, sessions, workers=2)
        _, _, second = parallel_scan(ruleset, sessions, workers=2)
        assert first.pool_reuses == 0
        assert second.pool_reuses == 1

    def test_pool_reused_across_run_study_calls(self, tmp_path, monkeypatch):
        from repro.analysis.pipeline import StudyConfig, run_study
        from repro.cache import StudyCache

        shutdown_warm_pool()
        config = StudyConfig(
            seed=7, volume_scale=0.01, background_per_exploit=0.3,
            background_nvd_count=500, workers=2,
        )
        first = run_study(config)
        # A different seed so the second run cannot be served from cache.
        import dataclasses

        second = run_study(dataclasses.replace(config, seed=8))
        assert first.telemetry.scan.pool_reuses == 0
        assert second.telemetry.scan.pool_reuses == 1
        # The decision trail lands in each run's manifest.
        execution = second.telemetry.manifest.as_dict()["execution"]
        assert execution["scan_pool_reuses"] == 1
        assert execution["scan_fallback_serial"] == 0
        assert execution["scan_arena_bytes"] > 0

    def test_no_shm_leak_after_worker_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "worker_crash:0:99")
        ruleset = build_study_ruleset()
        sessions = [_session(i, b"GET / HTTP/1.1\r\n\r\n") for i in range(300)]
        serial_alerts, _, _ = scan_stream(ruleset, sessions)
        alerts, _, telemetry = parallel_scan(ruleset, sessions, workers=2)
        assert alerts == serial_alerts
        assert telemetry.pool_respawns > 0 or telemetry.poison_chunks > 0
        assert not _shm_arenas()

    def test_no_shm_leak_after_scan_abort(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "scan_abort:1")
        ruleset = build_study_ruleset()
        sessions = [_session(i, b"x" * 8) for i in range(300)]
        with pytest.raises(parallel.ScanAborted):
            parallel_scan(ruleset, sessions, workers=2)
        assert not _shm_arenas()


class TestShmGarbageSweep:
    def _segment(self, tmp_path, name, *, age=0.0):
        path = tmp_path / name
        path.write_bytes(b"\x00" * 64)
        if age:
            old = path.stat().st_mtime - age
            os.utime(path, (old, old))
        return path

    def test_dead_pid_segment_swept(self, tmp_path):
        # Burn a pid that is certainly dead by the time we check.
        pid = os.spawnlp(os.P_NOWAIT, "true", "true")
        os.waitpid(pid, 0)
        dead = self._segment(tmp_path, f"repro-arena-{pid}-{'a' * 12}")
        report = collect_shm_garbage(shm_dir=tmp_path)
        assert report.segments_removed == 1
        assert report.removed_names == [dead.name]
        assert not dead.exists()

    def test_live_recent_segment_kept(self, tmp_path):
        live = self._segment(tmp_path, f"repro-arena-{os.getpid()}-{'b' * 12}")
        report = collect_shm_garbage(shm_dir=tmp_path)
        assert report.segments_removed == 0
        assert report.segments_kept == 1
        assert live.exists()

    def test_live_but_aged_segment_swept(self, tmp_path):
        # A live pid may be a recycled one: past the grace window the
        # segment goes regardless.
        aged = self._segment(
            tmp_path, f"repro-arena-{os.getpid()}-{'c' * 12}", age=7200.0
        )
        report = collect_shm_garbage(shm_dir=tmp_path, grace=3600.0)
        assert report.segments_removed == 1
        assert not aged.exists()

    def test_foreign_files_untouched(self, tmp_path):
        other = tmp_path / "some-other-segment"
        other.write_bytes(b"x")
        malformed = tmp_path / "repro-arena-notapid-zzzz"
        malformed.write_bytes(b"x")
        report = collect_shm_garbage(shm_dir=tmp_path)
        assert report.segments_removed == 0
        assert other.exists() and malformed.exists()
