"""Streaming ingest and incremental studies.

The contract under test: the streaming path — arrival stream → windowed
capture → per-window scan → :class:`IncrementalStudy` — ends byte-identical
to the batch ``run_study`` over the same configuration, while retaining
only alerted sessions' payloads in memory.  (Windowed *capture* equivalence
lives in ``tests/test_telescope.py::TestCollectWindows``.)
"""

import json
from datetime import timedelta
from itertools import islice

import pytest

from repro.analysis.pipeline import StudyConfig
from repro.analysis.streaming import (
    WATCH_MANIFEST_PREFIX,
    IncrementalStudy,
    watch_study,
)
from repro.nids.engine import DetectionEngine, DetectionStats
from repro.obs import latest_manifest, validate_manifest
from repro.traffic.generator import TrafficConfig, TrafficGenerator

#: Matches the session-scoped ``study`` fixture in conftest.py, so the
#: streaming runs below are comparable against that batch result.
STUDY_KWARGS = dict(
    volume_scale=0.02, background_per_exploit=0.3, background_nvd_count=2000
)


def _batch_stats(study):
    """The DetectionStats a serial batch scan of the fixture produced."""
    stats = DetectionStats()
    stats.replay(study.alerts, sessions_scanned=len(study.store))
    return stats


class TestArrivalStream:
    def _generator(self, **overrides):
        config = TrafficConfig(
            volume_scale=0.01, background_per_exploit=0.3, **overrides
        )
        return TrafficGenerator(config)

    def test_stream_equals_generate(self):
        generator = self._generator()
        assert list(generator.stream()) == generator.generate()

    def test_stream_equals_generate_with_shards(self):
        generator = self._generator(background_shards=3)
        assert list(generator.stream()) == generator.generate()

    def test_stream_is_time_sorted(self):
        stamps = [a.timestamp for a in self._generator().stream()]
        assert stamps == sorted(stamps)

    def test_cursor_resumes_mid_stream(self):
        generator = self._generator()
        full = list(generator.stream())
        k = len(full) // 3
        assert list(generator.stream(cursor=k)) == full[k:]
        # Past-the-end cursor is an empty (not failing) stream.
        assert list(generator.stream(cursor=len(full) + 10)) == []

    def test_negative_cursor_rejected(self):
        with pytest.raises(ValueError):
            self._generator().stream(cursor=-1)


class TestIncrementalStudy:
    def _observe_in_windows(self, study, engine, n_windows=4):
        """Split the archive into n session windows and fold them in."""
        sessions = list(study.store)
        inc = IncrementalStudy(study.bundle)
        size = (len(sessions) + n_windows - 1) // n_windows
        for i in range(0, len(sessions), size):
            window = sessions[i : i + size]
            inc.observe(window, engine.scan(window))
        return inc

    def test_cumulative_state_byte_identical_to_batch(self, study):
        engine = DetectionEngine(study.ruleset)
        inc = self._observe_in_windows(study, engine)
        snapshot = inc.snapshot()
        assert snapshot.alerts == study.alerts
        assert snapshot.events == study.events
        assert snapshot.events_per_cve == study.events_per_cve
        assert snapshot.rca_decisions == study.rca_decisions
        assert snapshot.timelines == study.timelines
        assert snapshot.sessions_seen == len(study.store)
        assert snapshot.stats == _batch_stats(study)
        assert snapshot.kept_cves == study.kept_cves

    def test_out_of_order_windows_still_batch_identical(self, study):
        # Tenancies can close across window boundaries, so alerts arrive
        # out of archive order; the cumulative view must re-sort.
        sessions = list(study.store)
        engine = DetectionEngine(study.ruleset)
        inc = IncrementalStudy(study.bundle)
        mid = len(sessions) // 2
        for window in (sessions[mid:], sessions[:mid]):
            inc.observe(window, engine.scan(window))
        assert inc.snapshot().alerts == study.alerts

    def test_parallel_windows_byte_identical(self, study):
        engine = DetectionEngine(study.ruleset, workers=2, threshold=0)
        inc = self._observe_in_windows(study, engine)
        snapshot = inc.snapshot()
        assert snapshot.alerts == study.alerts
        assert snapshot.timelines == study.timelines
        assert snapshot.stats == _batch_stats(study)
        # Window scans above the (forced-zero) threshold went to the pool.
        assert engine.stats.telemetry.fallback_serial == 0

    @pytest.mark.parametrize("fault", ["worker_crash:0", "chunk_error:0"])
    def test_faulted_parallel_windows_byte_identical(
        self, study, scan_fault, fault
    ):
        scan_fault(fault, workers=2)
        engine = DetectionEngine(study.ruleset, workers=2, threshold=0)
        inc = self._observe_in_windows(study, engine, n_windows=2)
        snapshot = inc.snapshot()
        assert snapshot.alerts == study.alerts
        assert snapshot.stats == _batch_stats(study)
        # Chunk 0 of each window failed in its worker and was rescanned
        # (a crash also takes the chunks still in flight with it).
        assert engine.stats.telemetry.recovered_chunks >= 2

    def test_memory_bounded_to_alerted_sessions(self, study):
        engine = DetectionEngine(study.ruleset)
        inc = self._observe_in_windows(study, engine)
        # Only alerted sessions' payloads are retained — never the archive.
        alerted = {alert.session_id for alert in study.alerts}
        assert inc.retained_payloads == len(alerted)
        assert inc.retained_payloads < inc.sessions_seen

    def test_empty_windows_are_harmless(self, study):
        inc = IncrementalStudy(study.bundle)
        inc.observe([], [])
        snapshot = inc.snapshot()
        assert snapshot.alerts == []
        assert snapshot.sessions_seen == 0
        assert snapshot.a_before_p_rate is None
        assert inc.windows_observed == 1


class TestWatchStudy:
    def test_end_to_end_equals_batch(self, study):
        config = StudyConfig(**STUDY_KWARGS)
        report = None
        cursors = []
        for report in watch_study(config, window_span=timedelta(days=60)):
            cursors.append(report.cursor)
        assert report is not None and report.final
        snapshot = report.snapshot
        assert snapshot.alerts == study.alerts
        assert snapshot.events == study.events
        assert snapshot.events_per_cve == study.events_per_cve
        assert snapshot.rca_decisions == study.rca_decisions
        assert snapshot.timelines == study.timelines
        assert snapshot.sessions_seen == len(study.store)
        assert snapshot.stats == _batch_stats(study)
        # Cursors advance monotonically to the full stream length.
        assert cursors == sorted(cursors)
        assert report.cursor == len(list(
            TrafficGenerator(
                TrafficConfig(
                    seed=config.seed,
                    volume_scale=config.volume_scale,
                    background_per_exploit=config.background_per_exploit,
                ),
            ).stream()
        ))

    def test_rolling_manifests_schema_valid(self, tmp_path):
        config = StudyConfig(**STUDY_KWARGS)
        reports = list(watch_study(
            config,
            window_span=timedelta(days=60),
            max_windows=3,
            manifest_dir=tmp_path,
        ))
        assert len(reports) == 3
        paths = sorted(tmp_path.glob(f"{WATCH_MANIFEST_PREFIX}*.json"))
        assert len(paths) == 3
        for path, report in zip(paths, reports):
            record = json.loads(path.read_text())
            assert validate_manifest(record) == []
            assert record["execution"]["window_index"] == report.index
            assert record["execution"]["cursor"] == report.cursor
            assert record["outcome"]["alerts"] == len(report.snapshot.alerts)
        # Windows observe cumulatively: counts never decrease.
        alerts = [json.loads(p.read_text())["outcome"]["alerts"] for p in paths]
        assert alerts == sorted(alerts)

    def test_latest_manifest_prefix_filter(self, tmp_path):
        config = StudyConfig(**STUDY_KWARGS)
        manifest_dir = tmp_path / "manifests"
        list(watch_study(
            config,
            window_span=timedelta(days=120),
            max_windows=1,
            manifest_dir=manifest_dir,
        ))
        (manifest_dir / "zzz-other.json").write_text("{}")
        found = latest_manifest(tmp_path, prefix=WATCH_MANIFEST_PREFIX)
        assert found is not None
        assert found.name.startswith(WATCH_MANIFEST_PREFIX)

    def test_max_windows_bounds_the_run(self):
        config = StudyConfig(**STUDY_KWARGS)
        reports = list(watch_study(
            config, window_span=timedelta(days=30), max_windows=2
        ))
        assert len(reports) == 2
        assert reports[-1].final

    def test_external_source_is_tailed(self, study):
        # A watch run can tail any time-sorted arrival iterable — here, the
        # front of the synthetic stream.
        config = StudyConfig(**STUDY_KWARGS)
        generator = TrafficGenerator(
            TrafficConfig(
                seed=config.seed,
                volume_scale=config.volume_scale,
                background_per_exploit=config.background_per_exploit,
            ),
        )
        head = islice(generator.stream(), 200)
        reports = list(watch_study(
            config, window_span=timedelta(days=365), source=head
        ))
        assert reports[-1].snapshot.sessions_seen <= 200
        assert reports[-1].cursor <= 200
