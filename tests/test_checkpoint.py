"""Tests for the crash-recovery checkpoint store and its CLI surface.

The store's contract: a stage checkpoint is either absent or complete
(atomic publish), a corrupt one is indistinguishable from a missing one
(verified loads), and checkpoints are recovery state with an explicit end
of life (delete on success, gc by age).  The checkpoints of a key are its
partial cache entry, ``study/<key>.partial/``: the study cache lists,
collects and clears them, and never counts one as an entry.
"""

import json
import os
import time
from datetime import timedelta

import pytest

from repro.analysis.pipeline import StudyConfig, run_study
from repro.cache import CheckpointStore, StudyCache, study_key, verify_entry
from repro.cache import checkpoint as checkpoint_module
from repro.cache.checkpoint import encode_stage_alerts
from repro.cache.gc import STAGING_GRACE_SECONDS
from repro.cache.study import STAGES
from repro.cli import main
from repro.net.pcapstore import SessionStore
from repro.nids.ruleset import Alert
from repro.telescope.collector import CollectionStats
from repro.util.timeutil import utc

ALERTS = [
    Alert(
        session_id=index, timestamp=utc(2022, 1, 1 + index), sid=58722,
        cve_id="CVE-2021-44228", rule_published=utc(2021, 12, 10),
        dst_ip=2, dst_port=80, src_ip=1,
    )
    for index in range(3)
]


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(root=tmp_path)


def _save(store, key="key"):
    return store.save(key, "alerts", encode_stage_alerts(ALERTS))


def _record_path(store, key="key"):
    return store.dir_for(key) / "alerts.stage.json"


def _age(path, seconds):
    """Backdate a directory and everything in it by ``seconds``."""
    then = time.time() - seconds
    for child in [path, *path.iterdir()]:
        os.utime(child, (then, then))


def _partial_keys(root):
    return [path.name for path in StudyCache(root).partials()]


class TestBlobLifecycle:
    def test_roundtrip(self, store):
        path = _save(store)
        assert path.exists()
        assert path.parent == store.root / "study" / "key.partial"
        assert store.load("key", "alerts") == ALERTS
        assert store.telemetry.saves == 1
        assert store.telemetry.hits == 1
        assert store.telemetry.misses == 0

    def test_missing_blob_is_a_plain_miss(self, store):
        assert store.load("key", "alerts") is None
        assert store.telemetry.misses == 1
        assert store.telemetry.integrity_failures == 0

    def test_has_and_names(self, store):
        _save(store)
        assert store.names("key") == ["alerts"]
        assert store.names("unknown") == []
        assert sorted(os.listdir(store.dir_for("key"))) == [
            *STAGES["alerts"].files, "alerts.stage.json",
        ]

    def test_tampered_payload_is_evicted(self, store):
        path = _save(store)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # digest now wrong
        path.write_bytes(bytes(data))

        assert store.load("key", "alerts") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()  # evicted so the recompute can republish
        assert store.names("key") == []

    def test_garbage_bytes_are_evicted(self, store):
        _save(store)
        record = _record_path(store)
        record.write_bytes(b"not json at all")
        assert store.load("key", "alerts") is None
        assert store.telemetry.integrity_failures == 1
        assert not record.exists()

    def test_schema_mismatch_is_evicted(self, store):
        _save(store)
        record = _record_path(store)
        document = json.loads(record.read_text())
        document["schema"] = 999
        record.write_text(json.dumps(document))
        assert store.load("key", "alerts") is None
        assert not record.exists()

    def test_staging_never_published_on_failure(self, store, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", boom)
        with pytest.raises(OSError):
            _save(store)
        # Neither the stage nor its staging directory survives.
        assert store.names("key") == []
        assert list(store.dir_for("key").iterdir()) == []
        assert StudyCache(store.root).staging_dirs() == []

    def test_partial_deleted_before_a_move_is_recreated(
        self, store, monkeypatch
    ):
        """A concurrent run may delete the partial entry between a save's
        ``mkdir`` and its ``os.replace``; the save recreates it."""
        replace = os.replace
        deleted = []

        def racing_replace(source, target):
            if not deleted:
                deleted.append(store.delete("key"))
            return replace(source, target)

        monkeypatch.setattr("os.replace", racing_replace)
        _save(store)
        assert deleted == [True]
        monkeypatch.undo()
        assert store.load("key", "alerts") == ALERTS

    @pytest.mark.parametrize("bad", ["", "a/b", ".hidden", "../escape"])
    def test_invalid_keys_and_names_rejected(self, store, bad):
        payload = encode_stage_alerts(ALERTS)
        with pytest.raises(ValueError):
            store.save(bad, "alerts", payload)
        with pytest.raises(ValueError):
            store.save("key", bad, payload)

    def test_rejects_non_stage_payload(self, store):
        with pytest.raises(TypeError):
            store.save("key", "alerts", {"rows": []})


class TestPopulation:
    """The study cache owns the partial entries' population."""

    def test_delete_and_keys(self, store):
        _save(store, "one")
        _save(store, "two")
        assert _partial_keys(store.root) == ["one.partial", "two.partial"]
        assert store.delete("one")
        assert not store.delete("one")  # already gone
        assert _partial_keys(store.root) == ["two.partial"]

    def test_stats_lists_stages(self, store):
        _save(store)
        snapshot = StudyCache(store.root).stats()
        assert snapshot["entry_count"] == 0
        assert snapshot["partial_count"] == 1
        (info,) = snapshot["partials"]
        assert info["key"] == "key"
        assert info["stages"] == ["alerts"]
        assert info["bytes"] > 0
        assert time.time() - info["newest"] < 600

    def test_gc_by_age(self, store):
        _save(store, "stale")
        _save(store, "fresh")
        _age(store.dir_for("stale"), 2 * 86400)
        cache = StudyCache(store.root)
        report = cache.gc(max_age=timedelta(days=1))
        assert report.partials_removed == 1
        assert report.entries_removed == 0
        assert report.bytes_freed > 0
        assert _partial_keys(store.root) == ["fresh.partial"]
        # Without an age bound a partial entry with a stage is kept.
        _age(store.dir_for("fresh"), 2 * 86400)
        assert cache.gc().partials_removed == 0

    def test_gc_reaps_orphaned_staging(self, store):
        _save(store)
        orphan = store.root / "study" / "key.alerts.tmp999999999"
        orphan.mkdir()
        (orphan / "alerts.cols.zlib").write_bytes(b"partial")
        report = StudyCache(store.root).gc()
        assert report.staging_removed == 1
        assert report.partials_removed == 0  # the key itself is alive
        assert not orphan.exists()
        assert store.names("key") == ["alerts"]

    def test_gc_removes_empty_key_dirs(self, store):
        empty = store.dir_for("empty")
        empty.mkdir(parents=True)
        cache = StudyCache(store.root)
        # A fresh empty partial may be a stage save about to land.
        assert cache.gc().partials_removed == 0
        _age(empty, STAGING_GRACE_SECONDS + 60)
        assert cache.gc().partials_removed == 1
        assert _partial_keys(store.root) == []

    def test_clear(self, store):
        _save(store, "one")
        _save(store, "two")
        assert StudyCache(store.root).clear() == 2
        assert _partial_keys(store.root) == []

    def test_partial_is_never_an_entry(self, store):
        """A partial entry has no meta.json by design: it is not listed,
        verified, counted against a size bound, or collected as torn."""
        config = StudyConfig(volume_scale=0.01)
        cache = StudyCache(store.root)
        session_store = SessionStore()
        entry = cache.save(
            config, store=session_store, alerts=ALERTS,
            collection_stats=CollectionStats(), ground_truth={},
        )
        other = StudyConfig(volume_scale=0.02)
        _save(store, study_key(other))
        assert cache.entries() == [entry]
        assert [report.ok for report in cache.verify()] == [True]
        assert not cache.has(other)
        report = cache.gc(max_bytes=1)
        assert report.size_evicted == 1 and report.torn_removed == 0
        assert report.partials_removed == 0
        assert store.names(study_key(other)) == ["alerts"]

    def test_gc_removes_legacy_checkpoints_tree(self, tmp_path):
        """Stage checkpoints used to live in ``<root>/checkpoints/<key>/``;
        keyed by an older code fingerprint, nothing can read them."""
        legacy = tmp_path / "checkpoints" / ("d" * 32)
        legacy.mkdir(parents=True)
        (legacy / "alerts.cols.zlib").write_bytes(b"x" * 100)
        (legacy / "alerts.stage.json").write_bytes(b"{}")
        staging = legacy / "store.stage.tmp4242"
        staging.mkdir()
        (staging / "store.cols.zlib").write_bytes(b"y" * 50)

        report = StudyCache(tmp_path).gc()
        assert not (tmp_path / "checkpoints").exists()
        assert report.bytes_freed == 152
        assert "checkpoints" in report.removed_paths


class TestCheckpointCli:
    """Partial entries through the ``repro cache`` commands."""

    def _seed(self, tmp_path):
        store = CheckpointStore(root=tmp_path)
        _save(store, "deadbeef")
        return store

    def test_list(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "partial entries: 1" in out
        row = next(line for line in out.splitlines() if "deadbeef" in line)
        assert "alerts" in row

    def test_json(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["partial_count"] == 1
        assert snapshot["partials"][0]["stages"] == ["alerts"]

    def test_gc_flag(self, tmp_path, capsys):
        store = self._seed(tmp_path)
        # Young partial entries survive an age-bounded gc...
        assert main([
            "cache", "gc", "--cache-dir", str(tmp_path),
            "--max-age-days", "1",
        ]) == 0
        assert "partial entries removed: 0" in capsys.readouterr().out
        assert store.names("deadbeef") == ["alerts"]
        # ...and old ones go.
        _age(store.dir_for("deadbeef"), 2 * 86400)
        assert main([
            "cache", "gc", "--cache-dir", str(tmp_path),
            "--max-age-days", "1",
        ]) == 0
        assert "partial entries removed: 1" in capsys.readouterr().out
        assert _partial_keys(tmp_path) == []

    def test_clear_flag(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert _partial_keys(tmp_path) == []


# -- a concurrent run's cleanup --------------------------------------------------


def _config() -> StudyConfig:
    return StudyConfig(
        seed=7, volume_scale=0.01, background_per_exploit=0.3,
        background_nvd_count=500,
    )


def _entry_files(root, config):
    entry = StudyCache(root).entry_path(config)
    meta = json.loads((entry / "meta.json").read_text())
    return meta["files"], meta["records"]


@pytest.fixture(scope="module")
def undisturbed(tmp_path_factory):
    root = tmp_path_factory.mktemp("undisturbed")
    result = run_study(_config(), cache=root, manifest=False)
    return result, _entry_files(root, _config())


@pytest.mark.parametrize("interference", ["delete", "claim"])
def test_concurrent_cleanup_does_not_crash_a_stage_save(
    tmp_path, monkeypatch, undisturbed, interference
):
    """Another run deletes (at its end) or claims (in its cache save) the
    partial entry while this run is writing a stage into it: the stage save
    must land, and the run must publish the undisturbed run's entry."""
    config = _config()
    key = study_key(config)
    write_stage = checkpoint_module.write_stage

    def interfered(stage, directory, value):
        record = write_stage(stage, directory, value)
        partial = CheckpointStore(root=tmp_path).dir_for(key)
        if interference == "delete":
            CheckpointStore(root=tmp_path).delete(key)
        elif partial.exists():
            os.replace(partial, partial.with_name(f"{key}.tmp1"))
        return record

    monkeypatch.setattr(checkpoint_module, "write_stage", interfered)
    result = run_study(config, cache=tmp_path, manifest=False)
    plain, files = undisturbed
    assert _entry_files(tmp_path, config) == files
    assert verify_entry(StudyCache(tmp_path).entry_path(config), deep=True).ok
    assert result.alerts == plain.alerts
    assert list(result.store) == list(plain.store)
    assert _partial_keys(tmp_path) == []

