"""Tests for the parallel study pipeline and the on-disk study cache.

Property-style equivalence: the multiprocess NIDS scan and the sharded
traffic generation must be *indistinguishable* from the serial paths —
same alerts (order and fields), same statistics, same arrival streams —
for any worker count and seed.  Plus cache behaviour: a second identical
study is served from disk without touching the heavy stages, and any
config change misses.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.analysis.pipeline as pipeline
from repro.analysis.pipeline import StudyConfig, run_study
from repro.cache import StudyCache, study_key
from repro.cache.study import STAGES
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.exploits.rulegen import build_study_ruleset
from repro.net.session import TcpSession
from repro.nids.engine import DetectionEngine
from repro.nids.matcher import SessionBuffers
from repro.nids.parser import parse_rule
from repro.nids.ruleset import Ruleset
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
    @pytest.fixture(autouse=True)
    def _force_pool(self, monkeypatch):
        # These worlds are far below the break-even size; without this the
        # serial fallback would make every equivalence here vacuous.
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_alerts_and_stats_identical(self, seeded_world, workers):
        _, _, store, ruleset, serial_alerts, serial_stats = seeded_world
        engine = DetectionEngine(ruleset, workers=workers)
        alerts = engine.scan(store)
        assert alerts == serial_alerts
        assert engine.stats == serial_stats
        # alerts_by_sid must match including insertion order.
        assert (
            list(engine.stats.alerts_by_sid.items())
            == list(serial_stats.alerts_by_sid.items())
        )

    def test_explicit_chunk_size(self, seeded_world):
        _, _, store, ruleset, serial_alerts, _ = seeded_world
        engine = DetectionEngine(ruleset, workers=2, chunk_size=97)
        assert engine.scan(store) == serial_alerts

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            DetectionEngine(Ruleset(), workers=0)

    def test_overlapping_scans_from_threads(self, seeded_world, monkeypatch):
        """Concurrent parallel scans must not read each other's pinned
        fork state (the module global is lock-guarded) — and must actually
        *overlap*: the lock covers only the pin → fork window, not the
        whole pool lifetime.

        The rendezvous barrier fires in each scan after its workers forked
        and before any chunk runs; both scans can only meet there if the
        first released the fork lock while still mid-scan.  With the old
        scan-long lock this deadlocks (and the barrier timeout fails the
        test) instead of passing serially.
        """
        import threading

        from repro.nids import parallel

        _, _, store, ruleset, serial_alerts, _ = seeded_world
        sessions = list(store)
        results = {}
        rendezvous = threading.Barrier(2, timeout=60)
        overlapped = []

        def hook():
            rendezvous.wait()
            overlapped.append(True)

        monkeypatch.setattr(parallel, "_after_fork_hook", hook)

        def scan(name, subset):
            engine = DetectionEngine(ruleset, workers=2)
            results[name] = engine.scan(subset)

        # Different-sized streams, so crossed fork state would be visible
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

        assert overlapped == [True, True]
        assert results["full"] == serial_alerts
        monkeypatch.setattr(parallel, "_after_fork_hook", None)
        serial_half = DetectionEngine(ruleset).scan(half)
        assert results["half"] == serial_half


class TestShardedGenerationEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_stream_identical(self, seeded_world, workers):
        seed, serial_arrivals, *_ = seeded_world
        generator = TrafficGenerator(_traffic_config(seed))
        assert generator.generate(workers=workers) == serial_arrivals

    def test_background_shards_worker_independent(self):
        config = _traffic_config(SEEDS[0], background_shards=4)
        generator = TrafficGenerator(config)
        serial = generator.generate()
        assert generator.generate(workers=3) == serial

    def test_background_shards_change_the_stream_not_its_size(self):
        base = TrafficGenerator(_traffic_config(SEEDS[0])).generate()
        sharded = TrafficGenerator(
            _traffic_config(SEEDS[0], background_shards=4)
        ).generate()
        assert len(sharded) == len(base)
        assert sharded != base  # a different (but equally valid) draw

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            TrafficGenerator(_traffic_config(SEEDS[0])).generate(workers=0)


def _tiny_study_config(**overrides) -> StudyConfig:
    defaults = dict(
        volume_scale=0.01, background_per_exploit=0.3, background_nvd_count=500
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


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
        assert sorted(second.timelines) == sorted(first.timelines)
        assert cache.hits == 1 and cache.misses == 1

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
