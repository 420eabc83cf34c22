"""Crash-recovery checkpoints for in-flight pipeline work.

The study cache (:mod:`repro.cache.study`) persists *finished* runs; this
module persists *partial* ones.  A long scan that dies mid-way — worker
OOM, machine reboot, a ctrl-C — leaves behind per-stage and per-chunk
checkpoints keyed by the same content hash as the study cache, so the next
invocation of the same configuration recomputes only what is missing.

A checkpoint under ``<cache root>/checkpoints/<key>/`` is one of two kinds:

* a **stage** (``arrivals``, ``store``, ``alerts``) is the heavy stage's
  cache-entry data files themselves (``arrivals.jsonl.gz``,
  ``store.jsonl.gz`` + ``collection.json.gz``, ``alerts.jsonl.gz``),
  written once through the study cache's stage codecs, plus a
  ``<stage>.stage.json`` record holding the record count and each file's
  BLAKE2b digest and size.  The files are written in a ``.tmp<pid>``
  staging directory and moved into place with ``os.replace``; the record
  is written last, so a stage without one is incomplete.  Loading
  re-checks every digest; when the run finishes,
  :meth:`repro.cache.StudyCache.save` hard-links the files into the cache
  entry, so a stage is encoded and written exactly once per run;
* a **blob** (the parallel scan's ``chunk-*`` results) is one gzip JSON
  file ``<name>.json.gz``, an envelope ``{"schema", "digest", "payload"}``
  whose ``digest`` is the BLAKE2b hash of the canonical JSON encoding of
  the payload.  Payloads must therefore be JSON-native (dicts, lists,
  strings, numbers); anything that does not round-trip through JSON would
  self-invalidate on load.

Either kind is published atomically, so it is absent or complete.  A
checkpoint that fails its check on load (bit rot, truncation, schema
drift) counts an integrity failure, is deleted, and reads as a miss, so
the caller recomputes and republishes it.

Checkpoints are *recovery state, not a cache*: the pipeline deletes a key's
directory the moment the run it protected completes (its results then live
in the study cache), and :meth:`CheckpointStore.gc` reaps directories that
outlive ``max_age`` plus orphaned staging files.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.cache.integrity import file_entry
from repro.cache.study import STAGES, default_cache_root, write_stage

#: Bump when the blob envelope or the stage record layout changes.  2: the
#: stages are cache-entry data files plus a ``<stage>.stage.json`` record.
CHECKPOINT_SCHEMA = 2

_STAGING_RE = re.compile(r"\.tmp\d+$")
_STAGE_SUFFIX = ".stage.json"
_STAGE_DATA_FILES = frozenset(
    name for codec in STAGES.values() for name in codec.files
)


def _digest_payload(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


@dataclass(frozen=True)
class StagePayload:
    """A heavy stage's value, tagged for :meth:`CheckpointStore.save` to
    write as that stage's cache-entry files (see ``encode_stage_*``)."""

    stage: str
    value: Any


@dataclass
class CheckpointTelemetry:
    """Counters for one :class:`CheckpointStore` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    saves: int = 0
    integrity_failures: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class CheckpointStore:
    """Atomic, digest-verified store for partial pipeline results."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_root()
        self.telemetry = CheckpointTelemetry()

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a telemetry counter, mirrored into the process metrics
        registry as ``checkpoint.<name>`` (see ``StudyCache._count``)."""
        setattr(self.telemetry, name, getattr(self.telemetry, name) + amount)
        from repro.obs import get_registry

        get_registry().inc(f"checkpoint.{name}", amount)

    @property
    def checkpoint_root(self) -> Path:
        return self.root / "checkpoints"

    def dir_for(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid checkpoint key: {key!r}")
        return self.checkpoint_root / key

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid checkpoint name: {name!r}")

    def _blob_path(self, key: str, name: str) -> Path:
        self._check_name(name)
        if f"{name}.json.gz" in _STAGE_DATA_FILES:
            raise ValueError(f"checkpoint blob name {name!r} is a stage file")
        return self.dir_for(key) / f"{name}.json.gz"

    def _record_path(self, key: str, name: str) -> Path:
        self._check_name(name)
        return self.dir_for(key) / f"{name}{_STAGE_SUFFIX}"

    # -- save / load ---------------------------------------------------------

    def save(self, key: str, name: str, payload) -> Path:
        """Persist one checkpoint atomically; returns its path.

        A :class:`StagePayload` is written as its stage's data files (the
        path returned is the stage's first file); anything else is a
        JSON-native blob payload, staged in a ``.tmp<pid>`` sibling and
        published with one ``os.replace``, so a reader can never observe a
        torn blob — only the previous one or the new one.
        """
        if isinstance(payload, StagePayload):
            return self._save_stage(key, name, payload)
        path = self._blob_path(key, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
        envelope = {
            "schema": CHECKPOINT_SCHEMA,
            "digest": _digest_payload(payload),
            "created": time.time(),
            "payload": payload,
        }
        try:
            with gzip.open(staging, "wt", encoding="ascii", compresslevel=1) as handle:
                json.dump(envelope, handle)
            os.replace(staging, path)
        except BaseException:
            staging.unlink(missing_ok=True)
            raise
        self._count("saves")
        self._count("bytes_written", path.stat().st_size)
        return path

    def _save_stage(self, key: str, name: str, payload: StagePayload) -> Path:
        if name != payload.stage or name not in STAGES:
            raise ValueError(f"{payload.stage!r} stage saved as {name!r}")
        record_path = self._record_path(key, name)
        directory = record_path.parent
        staging = directory / f"{name}.stage.tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        try:
            record = write_stage(name, staging, payload.value)
            for file_name in record["files"]:
                os.replace(staging / file_name, directory / file_name)
            record.update(schema=CHECKPOINT_SCHEMA, stage=name, created=time.time())
            # The record goes last: its presence marks the stage complete.
            record_staging = staging / record_path.name
            record_staging.write_text(json.dumps(record), encoding="utf-8")
            os.replace(record_staging, record_path)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        self._count("saves")
        self._count(
            "bytes_written",
            sum(int(entry["bytes"]) for entry in record["files"].values()),
        )
        return directory / next(iter(record["files"]))

    def load(self, key: str, name: str):
        """The checkpoint's value, or None.

        For a stage this is the decoded stage value (what its
        ``encode_stage_*`` was given); for a blob, its payload.  A missing
        checkpoint is a plain miss; an unreadable one, a schema mismatch,
        or a digest, size or record-count mismatch counts an integrity
        failure, deletes the checkpoint, and is reported as a miss so the
        caller recomputes.
        """
        if name in STAGES and self._record_path(key, name).exists():
            return self._load_stage(key, name)
        path = self._blob_path(key, name)
        try:
            raw_size = path.stat().st_size
            with gzip.open(path, "rt", encoding="ascii") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError):
            self._invalidate([path])
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != CHECKPOINT_SCHEMA
            or "payload" not in envelope
            or envelope.get("digest") != _digest_payload(envelope["payload"])
        ):
            self._invalidate([path])
            return None
        self._count("hits")
        self._count("bytes_read", raw_size)
        return envelope["payload"]

    def _load_stage(self, key: str, name: str):
        codec = STAGES[name]
        directory = self.dir_for(key)
        paths = [self._record_path(key, name)]
        paths += [directory / file_name for file_name in codec.files]
        try:
            record = self.stage_record(key, name)
            if record is None:
                raise ValueError("unreadable stage record")
            for file_name, expected in record["files"].items():
                if file_entry(directory / file_name) != expected:
                    raise ValueError(f"{file_name} does not match its record")
            value = codec.read(directory)
            if codec.size(value) != record["records"]:
                raise ValueError("record count disagrees with the stage record")
        except (OSError, ValueError, KeyError, TypeError):
            self._invalidate(paths)
            return None
        self._count("hits")
        self._count(
            "bytes_read",
            sum(int(entry["bytes"]) for entry in record["files"].values()),
        )
        return value

    def stage_record(self, key: str, name: str) -> Optional[Dict[str, Any]]:
        """A stage's record (``records``, and per file its ``blake2b`` and
        ``bytes``), or None if the stage is absent or its record is not
        this schema's.  Reads the record only, not the data files."""
        try:
            record = json.loads(
                self._record_path(key, name).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        codec = STAGES.get(name)
        if (
            codec is None
            or not isinstance(record, dict)
            or record.get("schema") != CHECKPOINT_SCHEMA
            or not isinstance(record.get("files"), dict)
            or set(record["files"]) != set(codec.files)
        ):
            return None
        return record

    def _invalidate(self, paths: List[Path]) -> None:
        self._count("integrity_failures")
        self._count("misses")
        for path in paths:
            path.unlink(missing_ok=True)

    def has(self, key: str, name: str) -> bool:
        return (
            self._record_path(key, name).exists()
            or self._blob_path(key, name).exists()
        )

    def names(self, key: str) -> List[str]:
        """Checkpoint names present under a key: complete stages and blobs
        (sorted; staging files and stage data files excluded)."""
        directory = self.dir_for(key)
        if not directory.is_dir():
            return []
        names = set()
        for child in directory.iterdir():
            if _STAGING_RE.search(child.name) or child.name in _STAGE_DATA_FILES:
                continue
            if child.name.endswith(_STAGE_SUFFIX):
                names.add(child.name[: -len(_STAGE_SUFFIX)])
            elif child.name.endswith(".json.gz"):
                names.add(child.name[: -len(".json.gz")])
        return sorted(names)

    def delete(self, key: str) -> bool:
        """Drop one key's entire checkpoint directory; True if it existed."""
        directory = self.dir_for(key)
        existed = directory.exists()
        if existed:
            shutil.rmtree(directory, ignore_errors=True)
            self._count("deletes")
        return existed

    # -- population / lifecycle ---------------------------------------------

    def keys(self) -> List[str]:
        if not self.checkpoint_root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.checkpoint_root.iterdir()
            if child.is_dir()
        )

    def _key_info(self, key: str) -> Dict[str, object]:
        directory = self.checkpoint_root / key
        blobs = 0
        chunks = 0
        total = 0
        newest = 0.0
        stages: List[str] = []
        stage_files: Dict[str, int] = {}
        for child in directory.iterdir():
            if not child.is_file() or _STAGING_RE.search(child.name):
                continue
            try:
                stat = child.stat()
            except OSError:  # pragma: no cover - racing deletion
                continue
            total += stat.st_size
            newest = max(newest, stat.st_mtime)
            if child.name in _STAGE_DATA_FILES:
                stage_files[child.name] = stat.st_size
            elif child.name.endswith(_STAGE_SUFFIX):
                stages.append(child.name[: -len(_STAGE_SUFFIX)])
            else:
                blobs += 1
                if child.name.startswith("chunk-"):
                    chunks += 1
        return {
            "key": key,
            "blobs": blobs,
            "chunks": chunks,
            "stages": sorted(stages),
            "stage_files": dict(sorted(stage_files.items())),
            "bytes": total,
            "newest": newest,
        }

    def stats(self) -> Dict[str, object]:
        """Snapshot of the on-disk population plus this instance's counters."""
        keys = [self._key_info(key) for key in self.keys()]
        return {
            "root": str(self.root),
            "keys": keys,
            "key_count": len(keys),
            "total_bytes": sum(int(info["bytes"]) for info in keys),
            "telemetry": self.telemetry.as_dict(),
        }

    def gc(
        self,
        *,
        max_age: Optional[timedelta] = None,
        now: Optional[float] = None,
    ) -> int:
        """Remove stale checkpoint state; returns directories removed.

        Always deletes orphaned ``.tmp<pid>`` staging files and directories;
        with ``max_age``, additionally removes key directories whose newest
        file is older than the bound (an abandoned run nobody resumed).
        Key directories holding no blob and no complete stage go too.
        """
        if not self.checkpoint_root.is_dir():
            return 0
        now = time.time() if now is None else now
        removed = 0
        for key in self.keys():
            directory = self.checkpoint_root / key
            for child in directory.iterdir():
                if not _STAGING_RE.search(child.name):
                    continue
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
                else:
                    child.unlink(missing_ok=True)
            info = self._key_info(key)
            empty = info["blobs"] == 0 and not info["stages"]
            expired = (
                max_age is not None
                and now - float(info["newest"]) > max_age.total_seconds()
            )
            if empty or expired:
                shutil.rmtree(directory, ignore_errors=True)
                self._count("deletes")
                removed += 1
        return removed

    def clear(self) -> int:
        """Drop every checkpoint directory; returns how many were removed."""
        keys = self.keys()
        for key in keys:
            shutil.rmtree(self.checkpoint_root / key, ignore_errors=True)
        self._count("deletes", len(keys))
        return len(keys)


# -- pipeline stages ----------------------------------------------------------
#
# ``run_study`` checkpoints each heavy stage with
# ``store.save(key, stage, encode_stage_<stage>(...))`` and reads it back
# with ``store.load(key, stage)``.  The files are written by the study
# cache's stage codec, so a stage checkpoint and a published cache entry
# are the same files.


def encode_stage_arrivals(arrivals) -> StagePayload:
    """The arrival stream, as the ``arrivals`` stage."""
    return StagePayload("arrivals", arrivals)


def encode_stage_store(store, collection_stats, ground_truth) -> StagePayload:
    """The capture stage's session store, statistics and ground truth, as
    the ``store`` stage."""
    return StagePayload("store", (store, collection_stats, ground_truth))


def encode_stage_alerts(alerts) -> StagePayload:
    """The scan's alert list, as the ``alerts`` stage."""
    return StagePayload("alerts", alerts)
