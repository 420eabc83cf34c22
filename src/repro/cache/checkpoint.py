"""Crash-recovery checkpoints for in-flight pipeline work.

The study cache (:mod:`repro.cache.study`) persists *finished* runs; this
module persists *partial* ones.  A run that dies mid-way — OOM, machine
reboot, a ctrl-C — leaves behind per-stage checkpoints keyed by the same
content hash as the study cache, so the next invocation of the same
configuration recomputes only what is missing.

A checkpoint under ``<cache root>/checkpoints/<key>/`` is one heavy
**stage** (``store``, ``alerts``): the stage's cache-entry data file itself
(``store.cols.zlib``, ``alerts.cols.zlib``: compressed column containers),
written once through the study cache's stage codecs, plus a
``<stage>.stage.json`` record holding the record count and each file's
BLAKE2b digest and size.  The files are written in a ``.tmp<pid>`` staging
directory and moved into place with ``os.replace``; the record is written
last, so a stage is either absent or complete.  Loading re-checks every digest, and decoding re-checks the
container's columns and dtypes; when the run finishes,
:meth:`repro.cache.StudyCache.save` hard-links the files into the cache
entry, so a stage is encoded and written exactly once per run.

Traffic has no stage: the arrival stream is a pure function of the key,
so a resumed run regenerates it, and only when capture has to run again.

A checkpoint that fails its check on load (bit rot, truncation, schema
drift) counts an integrity failure, is deleted, and reads as a miss, so
the caller recomputes and republishes it.

Checkpoints are *recovery state, not a cache*: the pipeline deletes a key's
directory the moment the run it protected completes (its results then live
in the study cache), and :meth:`CheckpointStore.gc` reaps directories that
outlive ``max_age`` plus orphaned staging files.
"""

from __future__ import annotations

import dataclasses
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
from repro.cache.study import (
    STAGE_FILES,
    STAGES,
    default_cache_root,
    write_stage,
)

#: Bump when the stage record layout changes.  2: the stages are
#: cache-entry data files plus a ``<stage>.stage.json`` record.  (Stage
#: file formats are covered by ``CACHE_SCHEMA``, which is part of every
#: checkpoint key.)
CHECKPOINT_SCHEMA = 2

_STAGING_RE = re.compile(r"\.tmp\d+$")
_STAGE_SUFFIX = ".stage.json"


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

    def _record_path(self, key: str, name: str) -> Path:
        self._check_name(name)
        return self.dir_for(key) / f"{name}{_STAGE_SUFFIX}"

    # -- save / load ---------------------------------------------------------

    def save(self, key: str, name: str, payload: StagePayload) -> Path:
        """Persist one stage checkpoint atomically; returns the path of the
        stage's first data file.

        The data files are staged in a ``.tmp<pid>`` directory and moved
        into place; the stage record goes last, so a reader never observes
        a torn stage — only none or a complete one.
        """
        if not isinstance(payload, StagePayload):
            raise TypeError("a checkpoint is a StagePayload (encode_stage_*)")
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
        """The stage's decoded value (what its ``encode_stage_*`` was
        given), or None.

        A missing stage is a plain miss; an unreadable record, a schema
        mismatch, or a digest, size or record-count mismatch counts an
        integrity failure, deletes the stage, and is reported as a miss so
        the caller recomputes.
        """
        if name in STAGES and self._record_path(key, name).exists():
            return self._load_stage(key, name)
        self._count("misses")
        return None

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
        return self._record_path(key, name).exists()

    def names(self, key: str) -> List[str]:
        """The complete stages checkpointed under a key, sorted."""
        directory = self.dir_for(key)
        if not directory.is_dir():
            return []
        return sorted(
            child.name[: -len(_STAGE_SUFFIX)]
            for child in directory.iterdir()
            if child.name.endswith(_STAGE_SUFFIX)
        )

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
            if child.name in STAGE_FILES:
                stage_files[child.name] = stat.st_size
            elif child.name.endswith(_STAGE_SUFFIX):
                stages.append(child.name[: -len(_STAGE_SUFFIX)])
        return {
            "key": key,
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
        Key directories holding no complete stage go too.
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
            empty = not info["stages"]
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
    """Not a stage: the arrival stream is regenerated, never checkpointed.

    The name stays only because the benchmark's frozen tracing table
    (``perfbench/spans.py`` ``TARGETS``) resolves it with ``getattr``; it
    has no caller and goes with the next benchmark change.
    """
    raise ValueError("the arrival stream is not a checkpointed stage")


def encode_stage_store(store, collection_stats, ground_truth) -> StagePayload:
    """The capture stage's session store, statistics and ground truth, as
    the ``store`` stage."""
    return StagePayload("store", (store, collection_stats, ground_truth))


def encode_stage_alerts(alerts) -> StagePayload:
    """The scan's alert list, as the ``alerts`` stage."""
    return StagePayload("alerts", alerts)
