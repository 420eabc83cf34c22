"""Tests for the crash-recovery checkpoint store and its CLI surface.

The store's contract: a stage checkpoint is either absent or complete
(atomic publish), a corrupt one is indistinguishable from a missing one
(verified loads), and checkpoints are recovery state with an explicit end
of life (delete on success, gc by age).
"""

import json
from datetime import timedelta

import pytest

from repro.cache import CheckpointStore
from repro.cache.checkpoint import encode_stage_alerts
from repro.cache.study import STAGES
from repro.cli import main
from repro.nids.ruleset import Alert
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


class TestBlobLifecycle:
    def test_roundtrip(self, store):
        path = _save(store)
        assert path.exists()
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
        assert store.has("key", "alerts")
        assert not store.has("key", "store")
        assert store.names("key") == ["alerts"]
        assert store.names("unknown") == []

    def test_tampered_payload_is_evicted(self, store):
        path = _save(store)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # digest now wrong
        path.write_bytes(bytes(data))

        assert store.load("key", "alerts") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()  # evicted so the recompute can republish
        assert not store.has("key", "alerts")

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
        assert not store.has("key", "alerts")
        assert list(store.dir_for("key").iterdir()) == []

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
    def test_delete_and_keys(self, store):
        _save(store, "one")
        _save(store, "two")
        assert store.keys() == ["one", "two"]
        assert store.delete("one")
        assert not store.delete("one")  # already gone
        assert store.keys() == ["two"]

    def test_stats_lists_stages(self, store):
        _save(store)
        snapshot = store.stats()
        assert snapshot["key_count"] == 1
        (info,) = snapshot["keys"]
        assert info["stages"] == ["alerts"]
        assert sorted(info["stage_files"]) == sorted(STAGES["alerts"].files)
        assert info["bytes"] > 0

    def test_gc_by_age(self, store):
        _save(store, "stale")
        _save(store, "fresh")
        newest = store._key_info("stale")["newest"]
        removed = store.gc(
            max_age=timedelta(days=1),
            now=float(newest) + 2 * 86400,
        )
        # Both keys have the same mtime here, so both expire.
        assert removed == 2
        assert store.keys() == []

    def test_gc_reaps_orphaned_staging(self, store):
        _save(store)
        orphan = store.dir_for("key") / "alerts.stage.tmp12345"
        orphan.write_bytes(b"partial")
        assert store.gc() == 0  # key itself is alive
        assert not orphan.exists()

    def test_gc_removes_empty_key_dirs(self, store):
        store.dir_for("empty").mkdir(parents=True)
        assert store.gc() == 1
        assert store.keys() == []

    def test_clear(self, store):
        _save(store, "one")
        _save(store, "two")
        assert store.clear() == 2
        assert store.keys() == []


class TestCheckpointCli:
    def _seed(self, tmp_path):
        store = CheckpointStore(root=tmp_path)
        _save(store, "deadbeef")
        return store

    def test_list(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "checkpoints", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "deadbeef" in out
        assert "keys: 1" in out

    def test_json(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(
            ["cache", "checkpoints", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["key_count"] == 1
        assert snapshot["keys"][0]["stages"] == ["alerts"]

    def test_gc_flag(self, tmp_path, capsys):
        self._seed(tmp_path)
        # Young keys survive an age-bounded gc.
        assert main([
            "cache", "checkpoints", "--cache-dir", str(tmp_path),
            "--max-age-days", "1",
        ]) == 0
        assert "gc removed 0" in capsys.readouterr().out
        assert CheckpointStore(root=tmp_path).keys() == ["deadbeef"]

    def test_clear_flag(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(
            ["cache", "checkpoints", "--cache-dir", str(tmp_path), "--clear"]
        ) == 0
        assert "removed 1" in capsys.readouterr().out
        assert CheckpointStore(root=tmp_path).keys() == []
