"""Tests for the parallel scan and the on-disk study cache.

Property-style equivalence: the multiprocess NIDS scan must be
*indistinguishable* from the serial path — same alerts (order and
fields), same statistics — for any worker count and seed, and it runs
serially below its break-even size.  Plus cache behaviour: a second
identical study is served from disk without touching the heavy stages
(and without building a session or alert record), and any config change
misses.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis.pipeline as pipeline
from repro.analysis.pipeline import StudyConfig, run_study
from repro.cache import StudyCache, study_key
from repro.cache.study import STAGES
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.experiments.registry import list_experiments, run_experiment
from repro.exploits.rulegen import build_study_ruleset
from repro.net.session import TcpSession
from repro.nids.engine import (
    DEFAULT_PARALLEL_THRESHOLD,
    DetectionEngine,
    parallel_scan,
    scan_stream,
)
from repro.nids.matcher import SessionBuffers
from repro.nids.parser import parse_rule
from repro.nids.ruleset import Alert, Ruleset
from repro.scenarios.resolve import ResolvedScenario
from repro.store import ColumnarStudy, ShardStore
from repro.telescope.collector import DscopeCollector
from repro.traffic.generator import TrafficConfig, TrafficGenerator
from repro.util.timeutil import utc

SEEDS = [20230321, 7]
WORKER_COUNTS = [1, 2, 4]


def _traffic_config(seed: int, **overrides) -> TrafficConfig:
    defaults = dict(seed=seed, volume_scale=0.01, background_per_exploit=0.3)
    defaults.update(overrides)
    return TrafficConfig(**defaults)


@pytest.fixture(scope="module", params=SEEDS)
def seeded_world(request):
    """(seed, serial arrivals, captured store, serial alerts) per seed."""
    seed = request.param
    generator = TrafficGenerator(_traffic_config(seed))
    arrivals = generator.generate()
    store = DscopeCollector(window=STUDY_WINDOW).collect(arrivals)
    ruleset = build_study_ruleset()
    engine = DetectionEngine(ruleset)
    alerts = engine.scan(store)
    return seed, arrivals, store, ruleset, alerts, engine.stats


class TestParallelScanEquivalence:
    # These worlds are far below the break-even size, so every parallel
    # engine here forces the pool on (threshold=0); serial fallback would
    # make the equivalences vacuous.

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_alerts_and_stats_identical(self, seeded_world, workers):
        _, _, store, ruleset, serial_alerts, serial_stats = seeded_world
        engine = DetectionEngine(ruleset, workers=workers, threshold=0)
        alerts = engine.scan(store)
        assert alerts == serial_alerts
        assert engine.stats == serial_stats
        # alerts_by_sid must match including insertion order.
        assert (
            list(engine.stats.alerts_by_sid.items())
            == list(serial_stats.alerts_by_sid.items())
        )

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            DetectionEngine(Ruleset(), workers=0)

    def test_overlapping_scans_from_threads(self, seeded_world):
        """Concurrent parallel scans must not read each other's work: each
        scan forks its own pool, whose workers inherit that scan's
        sessions."""
        import threading

        _, _, store, ruleset, serial_alerts, _ = seeded_world
        sessions = list(store)
        results = {}

        def scan(name, subset):
            engine = DetectionEngine(ruleset, workers=2, threshold=0)
            results[name] = engine.scan(subset)

        # Different-sized streams, so crossed scan state would be visible
        # as wrong alert sets, not just reordered ones.
        half = sessions[: len(sessions) // 2]
        threads = [
            threading.Thread(target=scan, args=("full", sessions)),
            threading.Thread(target=scan, args=("half", half)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results["full"] == serial_alerts
        serial_half = DetectionEngine(ruleset).scan(half)
        assert results["half"] == serial_half


class TestBreakEvenPolicy:
    def _sessions(self, count, payload):
        return [
            TcpSession(
                session_id=index, start=utc(2022, 1, 1), src_ip=1,
                src_port=1024, dst_ip=2, dst_port=80, payload=payload,
            )
            for index in range(count)
        ]

    def test_small_stream_falls_back_to_serial(self):
        ruleset = build_study_ruleset()
        sessions = self._sessions(50, b"GET / HTTP/1.1\r\n\r\n")
        assert len(sessions) < DEFAULT_PARALLEL_THRESHOLD
        serial_alerts, _, _ = scan_stream(ruleset, sessions)
        alerts, scanned, telemetry = parallel_scan(ruleset, sessions, workers=4)
        assert alerts == serial_alerts
        assert scanned == len(sessions)
        # The decision is recorded, and no pool work happened at all.
        assert telemetry.fallback_serial == 1
        assert telemetry.recovered_chunks == 0

    def test_forced_pool_does_not_fall_back(self):
        ruleset = build_study_ruleset()
        sessions = self._sessions(200, b"x" * 10)
        _, scanned, telemetry = parallel_scan(
            ruleset, sessions, workers=2, threshold=0
        )
        assert scanned == len(sessions)
        assert telemetry.fallback_serial == 0

    def test_serial_request_not_marked_fallback(self):
        ruleset = build_study_ruleset()
        _, _, telemetry = parallel_scan(
            ruleset, self._sessions(1, b"x"), workers=1
        )
        assert telemetry.fallback_serial == 0


class TestShardedGenerationEquivalence:
    def test_background_shards_change_the_stream_not_its_size(self):
        base = TrafficGenerator(_traffic_config(SEEDS[0])).generate()
        sharded = TrafficGenerator(
            _traffic_config(SEEDS[0], background_shards=4)
        ).generate()
        assert len(sharded) == len(base)
        assert sharded != base  # a different (but equally valid) draw


def _tiny_study_config(**overrides) -> StudyConfig:
    defaults = dict(
        volume_scale=0.01, background_per_exploit=0.3, background_nvd_count=500
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


def _rules_published(ruleset: Ruleset) -> list:
    """The ruleset's (rule, published_at) pairs, in rule order."""
    return [(rule, ruleset.published_at(rule.sid)) for rule in ruleset.rules]


class _StageMustNotRun:
    def __init__(self, *args, **kwargs):
        raise AssertionError("heavy stage ran despite a cache hit")


class TestStudyCache:
    def test_second_run_served_from_cache(self, tmp_path, monkeypatch):
        cache = StudyCache(root=tmp_path)
        config = _tiny_study_config()
        first = run_study(config, cache=cache)
        assert not first.from_cache

        # A cache hit must skip generation, capture, and scanning entirely.
        monkeypatch.setattr(pipeline, "TrafficGenerator", _StageMustNotRun)
        monkeypatch.setattr(pipeline, "DscopeCollector", _StageMustNotRun)
        monkeypatch.setattr(pipeline, "DetectionEngine", _StageMustNotRun)
        second = run_study(config, cache=cache)

        assert second.from_cache
        assert second.alerts == first.alerts
        assert list(second.store) == list(first.store)
        assert second.collection_stats == first.collection_stats
        assert second.ground_truth == first.ground_truth
        # What the warm run re-derives from the columns, value for value.
        assert second.events == first.events
        assert second.events_per_cve == first.events_per_cve
        assert second.rca_decisions == first.rca_decisions
        assert second.timelines == first.timelines
        assert cache.hits == 1 and cache.misses == 1

    def test_warm_run_builds_no_records(self, tmp_path, monkeypatch):
        """A cache hit, every artifact and the shard pack read the loaded
        columns: no ``TcpSession``, no ``Alert`` and no ruleset is built,
        the shard is byte-identical to the cold one, and iterating the
        store and the alerts (or reading the ruleset) afterwards still
        gives the cold records."""
        config = _tiny_study_config()
        cold = run_study(config, cache=tmp_path / "cache")
        cold_shard = ShardStore(tmp_path / "cold").save(ColumnarStudy.from_study(cold))
        # The cold run's store and alerts are column views too: build their
        # records before counting.
        cold_sessions, cold_alerts = list(cold.store), list(cold.alerts)

        built = {"sessions": 0, "alerts": 0, "rulesets": 0}

        def counting(kind, function):
            def wrapper(self, *args, **kwargs):
                built[kind] += 1
                return function(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            TcpSession, "__init__", counting("sessions", TcpSession.__init__)
        )
        monkeypatch.setattr(Alert, "__init__", counting("alerts", Alert.__init__))
        monkeypatch.setattr(
            ResolvedScenario,
            "build_ruleset",
            counting("rulesets", ResolvedScenario.build_ruleset),
        )
        warm = run_study(config, cache=tmp_path / "cache")
        for experiment_id in list_experiments():
            run_experiment(experiment_id, warm)
        warm_shard = ShardStore(tmp_path / "warm").save(ColumnarStudy.from_study(warm))
        assert warm.from_cache
        assert built == {"sessions": 0, "alerts": 0, "rulesets": 0}
        assert warm_shard.read_bytes() == cold_shard.read_bytes()

        assert list(warm.store) == cold_sessions
        assert list(warm.alerts) == cold_alerts
        assert _rules_published(warm.ruleset) == _rules_published(cold.ruleset)
        assert warm.ruleset is warm.ruleset
        assert built == {
            "sessions": len(cold.store), "alerts": len(cold.alerts), "rulesets": 1,
        }

    def test_warm_run_never_imports_numpy_ma(self, tmp_path):
        """A cache hit in a fresh interpreter leaves ``numpy.ma`` unimported
        (``np.unique`` imports it; the load checks sort instead)."""
        run_study(_tiny_study_config(), cache=tmp_path)
        script = (
            "import sys\n"
            "from repro.analysis.pipeline import StudyConfig, run_study\n"
            "config = StudyConfig(volume_scale=0.01, background_per_exploit=0.3,"
            " background_nvd_count=500)\n"
            "assert run_study(config, cache=sys.argv[1]).from_cache\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        warm = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert warm.returncode == 0, warm.stderr
        assert warm.stdout.strip() == "False"

    def test_changed_config_misses(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _tiny_study_config()
        run_study(config, cache=cache)
        changed = run_study(
            dataclasses.replace(config, seed=config.seed + 1), cache=cache
        )
        assert not changed.from_cache
        assert cache.hits == 0 and cache.misses == 2

    def test_key_ignores_execution_knobs(self):
        config = _tiny_study_config()
        assert study_key(config) == study_key(
            dataclasses.replace(config, workers=4)
        )
        assert study_key(config) != study_key(
            dataclasses.replace(config, volume_scale=0.02)
        )

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _tiny_study_config()
        run_study(config, cache=cache)
        (alerts_file,) = STAGES["alerts"].files
        (cache.entry_path(config) / alerts_file).write_bytes(b"garbage")
        assert cache.load(config) is None
        assert not cache.entry_path(config).exists()

    def test_cache_argument_forms(self, tmp_path):
        config = _tiny_study_config()
        result = run_study(config, cache=tmp_path)  # path form
        assert not result.from_cache
        again = run_study(config, cache=StudyCache(root=tmp_path))
        assert again.from_cache


class TestSidIndex:
    def _rule(self, sid, rev=1, pattern="x"):
        return parse_rule(
            f'alert tcp any any -> any any '
            f'(msg:"m"; content:"{pattern}"; sid:{sid}; rev:{rev};)'
        )

    def test_lookup_after_update_revision(self):
        ruleset = Ruleset()
        ruleset.add(self._rule(100), utc(2021, 6, 1))
        ruleset.update(self._rule(100, rev=2, pattern="y"), utc(2022, 1, 1))
        # Revision replaces the logic but keeps the original publication.
        assert ruleset.published_at(100) == utc(2021, 6, 1)
        assert ruleset.rule_for_sid(100).rev == 2
        # update() of an unseen sid falls through to add().
        ruleset.update(self._rule(200), utc(2022, 2, 1))
        assert ruleset.published_at(200) == utc(2022, 2, 1)
        with pytest.raises(ValueError):
            ruleset.add(self._rule(200), utc(2022, 3, 1))
        with pytest.raises(KeyError):
            ruleset.published_at(999)


class TestLoweredBufferCache:
    def test_lowered_computed_once(self):
        buffers = SessionBuffers(b"MiXeD CaSe PayLoad")
        from repro.nids.rule import HttpBuffer

        first = buffers.lowered(HttpBuffer.RAW)
        assert first == b"mixed case payload"
        assert buffers.lowered(HttpBuffer.RAW) is first

    def test_nocase_match_still_correct(self):
        rule = parse_rule(
            'alert tcp any any -> any any '
            '(msg:"m"; content:"NeEdLe"; nocase; sid:1;)'
        )
        session = TcpSession(
            session_id=1, start=utc(2022, 1, 1), src_ip=1, src_port=1,
            dst_ip=2, dst_port=80, payload=b"...nEeDlE...",
        )
        ruleset = Ruleset()
        ruleset.add(rule, utc(2021, 1, 1))
        assert ruleset.match_session(session) is not None
