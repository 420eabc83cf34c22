"""Tests for the study cache's publish/verify/GC protocol.

The headline regression: a *torn* entry — a directory occupying a cache key
with no ``meta.json`` (crash debris, partial eviction, hand-deleted marker)
— must never permanently block the key.  Before the publish-protocol fix,
``save`` treated the resulting ``os.replace`` ``ENOTEMPTY`` as "a concurrent
writer won" and silently discarded every save, while ``load`` only evicted
entries that *had* a ``meta.json`` — so the key stayed wedged forever.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time
from datetime import timedelta
from pathlib import Path

import pytest

from repro.analysis.pipeline import StudyConfig
from repro.cache import (
    CACHE_SCHEMA,
    StudyCache,
    collect_garbage,
    verify_entry,
)
from repro.cache.study import STAGES
from repro.cli import main
from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.nids.ruleset import Alert
from repro.telescope.collector import CollectionStats
from repro.util.timeutil import utc

#: The stages' data files, by stage (never hand-typed, so a rename cannot
#: leave a test damaging a file the manifest does not list).
STORE_FILE, = STAGES["store"].files
ALERTS_FILE, = STAGES["alerts"].files


def _config(**overrides) -> StudyConfig:
    defaults = dict(
        volume_scale=0.01, background_per_exploit=0.3, background_nvd_count=500
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


def _tiny_payload():
    """Small but non-empty intermediates, so files have real content."""
    store = SessionStore()
    store.append(
        TcpSession(
            session_id=1, start=utc(2022, 1, 1), src_ip=167837953,
            src_port=40000, dst_ip=167838209, dst_port=80,
            payload=b"GET /index.html HTTP/1.1\r\n\r\n",
        )
    )
    alerts = [
        Alert(
            session_id=1, timestamp=utc(2022, 1, 2), sid=58722,
            cve_id="CVE-2021-44228", rule_published=utc(2021, 12, 12),
            dst_ip=167838209, dst_port=80, src_ip=167837953,
        )
    ]
    return store, alerts


def _save(cache: StudyCache, config: StudyConfig) -> Path:
    store, alerts = _tiny_payload()
    return cache.save(
        config,
        store=store,
        alerts=alerts,
        collection_stats=CollectionStats(arrivals_routed=1),
        ground_truth={1: "CVE-2021-44228"},
    )


class TestTornEntryRegression:
    def test_torn_entry_does_not_block_publish(self, tmp_path):
        """THE bug: debris without meta.json must not wedge the key forever."""
        cache = StudyCache(root=tmp_path)
        config = _config()
        torn = cache.entry_path(config)
        torn.mkdir(parents=True)
        (torn / ALERTS_FILE).write_bytes(b"partial write, no meta")

        _save(cache, config)

        loaded = cache.load(config)
        assert loaded is not None, "save was silently discarded"
        assert [a.sid for a in loaded.alerts] == [58722]
        assert cache.telemetry.blocked_slot_evictions == 1
        assert cache.telemetry.publish_failures == 0

    def test_load_evicts_torn_entry(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        torn = cache.entry_path(config)
        torn.mkdir(parents=True)
        (torn / STORE_FILE).write_bytes(b"junk")

        assert cache.load(config) is None
        assert not torn.exists(), "torn entry left blocking the key"
        assert cache.telemetry.integrity_failures == 1
        assert cache.telemetry.evictions == 1

    def test_deleted_meta_marker_recovers(self, tmp_path):
        """A hand-deleted meta.json is a torn entry like any other."""
        cache = StudyCache(root=tmp_path)
        config = _config()
        _save(cache, config)
        (cache.entry_path(config) / "meta.json").unlink()

        assert cache.load(config) is None
        _save(cache, config)
        assert cache.load(config) is not None

    def test_concurrent_complete_entry_wins_benignly(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        _save(cache, config)
        marker = cache.entry_path(config) / "meta.json"
        before = marker.read_bytes()

        # A second save finds a complete entry in place: publish loses the
        # race, the staged dir is dropped, and the entry is untouched.
        _save(cache, config)
        assert marker.read_bytes() == before
        assert cache.telemetry.publish_conflicts == 1
        assert not cache.staging_dirs()


class TestIntegrityVerification:
    def test_fresh_entry_verifies(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        _save(cache, _config())
        reports = cache.verify(deep=True)
        assert len(reports) == 1 and reports[0].ok

    def test_truncated_file_is_evicted_on_load(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        _save(cache, config)
        target = cache.entry_path(config) / STORE_FILE
        target.write_bytes(target.read_bytes()[:-5])

        assert cache.load(config) is None
        assert not cache.entry_path(config).exists()
        assert cache.telemetry.integrity_failures == 1

    def test_same_size_corruption_caught_by_checksum(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        _save(cache, config)
        target = cache.entry_path(config) / ALERTS_FILE
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one bit; size unchanged
        target.write_bytes(bytes(blob))

        report = verify_entry(
            cache.entry_path(config), deep=True, expect_schema=CACHE_SCHEMA
        )
        assert not report.ok
        assert any("checksum mismatch" in p for p in report.problems)
        assert cache.load(config) is None
        assert not cache.entry_path(config).exists()

    def test_shallow_verify_misses_what_deep_catches(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        _save(cache, config)
        target = cache.entry_path(config) / STORE_FILE
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))

        entry = cache.entry_path(config)
        assert verify_entry(entry, deep=False).ok
        assert not verify_entry(entry, deep=True).ok

    def test_record_count_mismatch_evicts(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        _save(cache, config)
        meta_path = cache.entry_path(config) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["records"]["alerts"] += 1
        text = json.dumps(meta, indent=2) + "\n"
        meta_path.write_text(text)
        # Keep the manifest consistent: only the count lies.
        assert cache.load(config) is None
        assert not cache.entry_path(config).exists()

    def test_recompute_after_eviction_roundtrips(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        _save(cache, config)
        (cache.entry_path(config) / STORE_FILE).write_bytes(b"x")
        assert cache.load(config) is None

        _save(cache, config)
        loaded = cache.load(config)
        assert loaded is not None
        assert len(loaded.store) == 1
        assert next(iter(loaded.store)).payload.startswith(b"GET /index.html")


def _racing_saver(root: str, attempts: int) -> None:
    cache = StudyCache(root=root)
    config = _config()
    for _ in range(attempts):
        _save(cache, config)


class TestConcurrentPublish:
    def test_two_processes_leave_one_valid_entry(self, tmp_path):
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        workers = [
            context.Process(target=_racing_saver, args=(str(tmp_path), 5))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        cache = StudyCache(root=tmp_path)
        assert len(cache.entries()) == 1
        assert not cache.staging_dirs()
        (report,) = cache.verify(deep=True)
        assert report.ok, report.problems
        assert cache.load(_config()) is not None


class TestGarbageCollection:
    def test_dead_pid_staging_dir_removed(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        _save(cache, _config())
        dead = cache.study_root / ("f" * 32 + ".tmp999999999")
        dead.mkdir()
        (dead / STORE_FILE).write_bytes(b"orphan")

        report = cache.gc()
        assert report.staging_removed == 1
        assert not dead.exists()
        assert report.entries_kept == 1

    def test_live_young_staging_dir_kept(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        cache.study_root.mkdir(parents=True)
        mine = cache.study_root / ("a" * 32 + f".tmp{os.getpid()}")
        mine.mkdir()

        report = cache.gc()
        assert report.staging_removed == 0
        assert mine.exists()
        # ... but a stale mtime overrides pid liveness (pid reuse).
        old = time.time() - 7200
        os.utime(mine, (old, old))
        assert cache.gc().staging_removed == 1

    def test_torn_entry_collected(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        cache.study_root.mkdir(parents=True)
        torn = cache.study_root / ("b" * 32)
        torn.mkdir()
        (torn / ALERTS_FILE).write_bytes(b"junk")

        report = cache.gc()
        assert report.torn_removed == 1
        assert not torn.exists()

    def test_age_bound_evicts_old_entries(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        _save(cache, config)
        old = time.time() - 40 * 86400
        meta = cache.entry_path(config) / "meta.json"
        os.utime(meta, (old, old))

        kept = cache.gc(max_age=timedelta(days=60))
        assert kept.expired_removed == 0
        evicted = cache.gc(max_age=timedelta(days=30))
        assert evicted.expired_removed == 1
        assert not cache.entry_path(config).exists()

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        old_config, new_config = _config(), _config(seed=99)
        _save(cache, old_config)
        _save(cache, new_config)
        stale = time.time() - 86400
        old_meta = cache.entry_path(old_config) / "meta.json"
        os.utime(old_meta, (stale, stale))

        report = collect_garbage(cache.study_root, max_bytes=1)
        # Both exceed one byte together; the older entry goes first, and GC
        # stops only when under the bound — here that means both go.
        assert report.size_evicted == 2
        assert report.removed_paths[-2] == cache.entry_path(old_config).name

    def test_size_bound_keeps_newest_when_it_fits(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        old_config, new_config = _config(), _config(seed=99)
        _save(cache, old_config)
        _save(cache, new_config)
        stale = time.time() - 86400
        old_meta = cache.entry_path(old_config) / "meta.json"
        os.utime(old_meta, (stale, stale))
        from repro.cache.gc import dir_bytes

        new_bytes = dir_bytes(cache.entry_path(new_config))

        report = cache.gc(max_bytes=new_bytes)
        assert report.size_evicted == 1
        assert not cache.entry_path(old_config).exists()
        assert cache.entry_path(new_config).exists()


class TestTelemetry:
    def test_counters_track_hit_miss_save(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        config = _config()
        assert cache.load(config) is None
        _save(cache, config)
        assert cache.load(config) is not None

        telemetry = cache.telemetry
        assert telemetry.misses == 1 and telemetry.hits == 1
        assert telemetry.saves == 1
        assert telemetry.bytes_written > 0
        assert telemetry.bytes_read == telemetry.bytes_written
        # Legacy aliases stay live.
        assert cache.hits == 1 and cache.misses == 1

    def test_stats_snapshot(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        _save(cache, _config())
        snapshot = cache.stats()
        assert snapshot["entry_count"] == 1
        assert snapshot["staging_count"] == 0
        assert snapshot["total_bytes"] > 0
        (entry,) = snapshot["entries"]
        assert entry["complete"]
        assert entry["records"] == {"sessions": 1, "alerts": 1}


class TestCacheCli:
    @pytest.fixture()
    def populated_root(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        _save(cache, _config())
        return tmp_path

    def test_stats(self, populated_root, capsys):
        assert main(["cache", "stats", "--cache-dir", str(populated_root)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out

    def test_stats_json(self, populated_root, capsys):
        assert main([
            "cache", "stats", "--json", "--cache-dir", str(populated_root)
        ]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["entry_count"] == 1

    def test_verify_ok_then_failing(self, populated_root, capsys):
        assert main([
            "cache", "verify", "--cache-dir", str(populated_root)
        ]) == 0
        assert "1 ok, 0 failing" in capsys.readouterr().out

        cache = StudyCache(root=populated_root)
        (entry,) = cache.entries()
        target = entry / ALERTS_FILE
        target.write_bytes(target.read_bytes()[:-3])
        assert main([
            "cache", "verify", "--cache-dir", str(populated_root)
        ]) == 1
        assert main([
            "cache", "verify", "--evict", "--cache-dir", str(populated_root)
        ]) == 0
        assert not entry.exists()

    def test_gc(self, populated_root, capsys):
        orphan = populated_root / "study" / ("c" * 32 + ".tmp999999999")
        orphan.mkdir()
        assert main(["cache", "gc", "--cache-dir", str(populated_root)]) == 0
        out = capsys.readouterr().out
        assert "staging dirs removed: 1" in out
        assert not orphan.exists()

    def test_clear(self, populated_root, capsys):
        assert main(["cache", "clear", "--cache-dir", str(populated_root)]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert StudyCache(root=populated_root).entries() == []


class TestKeySchema:
    def test_schema_bump_changes_keys(self):
        # Schema 2 keys must not collide with schema-1 entries on disk.
        from repro.cache import study_key

        config = _config()
        key = study_key(config)
        assert len(key) == 32
        assert key != study_key(dataclasses.replace(config, seed=1))


class TestManifestGc:
    """The rolling watch-manifest sweep: age/count bounds, newest kept."""

    @staticmethod
    def _manifest_dir(root: Path) -> Path:
        from repro.obs import manifests_root

        directory = manifests_root(root)
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    @staticmethod
    def _write_windows(directory: Path, prefix: str, count: int) -> list:
        paths = []
        for index in range(count):
            path = directory / f"{prefix}-{index:05d}.json"
            path.write_text(json.dumps({"window": index}))
            paths.append(path)
        return paths

    def test_count_bound_keeps_newest_per_prefix(self, tmp_path):
        from repro.cache import collect_manifest_garbage

        directory = self._manifest_dir(tmp_path)
        first = self._write_windows(directory, "watch-" + "a" * 32, 5)
        second = self._write_windows(directory, "watch-" + "b" * 32, 3)

        report = collect_manifest_garbage(directory, max_count=2)
        assert report.count_evicted == 4  # 3 from first run, 1 from second
        assert report.manifests_kept == 4
        # The newest window of each run always survives.
        assert first[-1].exists() and second[-1].exists()
        assert not first[0].exists() and not second[0].exists()

    def test_age_bound_spares_newest(self, tmp_path):
        from repro.cache import collect_manifest_garbage

        directory = self._manifest_dir(tmp_path)
        windows = self._write_windows(directory, "watch-" + "c" * 32, 3)
        stale = time.time() - 10 * 86400
        for path in windows:  # everything old, including the newest
            os.utime(path, (stale, stale))

        report = collect_manifest_garbage(
            directory, max_age=timedelta(days=1)
        )
        assert report.expired_removed == 2
        assert windows[-1].exists()  # resume point survives the age bound

    def test_batch_manifests_untouched(self, tmp_path):
        from repro.cache import collect_manifest_garbage

        directory = self._manifest_dir(tmp_path)
        batch = directory / ("d" * 32 + ".json")
        batch.write_text("{}")
        stale = time.time() - 365 * 86400
        os.utime(batch, (stale, stale))

        report = collect_manifest_garbage(
            directory, max_age=timedelta(days=1), max_count=1
        )
        assert not report.removed_anything
        assert batch.exists()

    def test_stale_staging_swept(self, tmp_path):
        from repro.cache import collect_manifest_garbage

        directory = self._manifest_dir(tmp_path)
        orphan = directory / ("watch-" + "e" * 32 + "-00000.json.tmp999999999")
        orphan.write_text("partial")

        report = collect_manifest_garbage(directory)
        assert report.staging_removed == 1
        assert not orphan.exists()

    def test_missing_directory_is_noop(self, tmp_path):
        from repro.cache import collect_manifest_garbage

        report = collect_manifest_garbage(tmp_path / "absent")
        assert not report.removed_anything
        assert report.manifests_kept == 0

    def test_cache_gc_cli_flags(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        _save(cache, _config())
        directory = self._manifest_dir(tmp_path)
        self._write_windows(directory, "watch-" + "f" * 32, 4)

        assert main([
            "cache", "gc", "--watch-max-count", "1",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert len(list(directory.glob("watch-*.json"))) == 1

    def test_gc_manifests_method(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        directory = self._manifest_dir(tmp_path)
        self._write_windows(directory, "watch-" + "9" * 32, 3)

        report = cache.gc_manifests(max_count=2)
        assert report.count_evicted == 1
        assert report.manifests_kept == 2
