"""Crash-recovery checkpoints: the stages of a partial cache entry.

The study cache (:mod:`repro.cache.study`) persists *finished* runs; this
module persists the finished stages of one in flight.  A run that dies
mid-way — OOM, machine reboot, a ctrl-C — leaves its finished heavy stages
(``store``, ``alerts``) in ``<cache root>/study/<key>.partial/``, keyed by
the same content hash as the cache entry it will become, so the next
invocation of the same configuration recomputes only what is missing.

A stage in a partial entry is the stage's cache-entry data file itself
(``store.cols.zlib``, ``alerts.cols.zlib``: compressed column containers),
written once through the study cache's stage codecs, plus a
``<stage>.stage.json`` record holding ``CACHE_SCHEMA``, the record count
and the file's BLAKE2b digest and size.  Both are written in a
``<key>.<stage>.tmp<pid>`` sibling of the partial entry and moved into it
with ``os.replace``, the record last, so a stage is either absent or
complete, and a concurrent run deleting the partial entry cannot pull a
save's staging directory out from under it.  Loading re-checks every
digest, and decoding re-checks the container's columns and dtypes.  When
the run finishes, :meth:`repro.cache.StudyCache.save` claims the directory
and publishes it as the entry, so a stage is encoded and written exactly
once per run.

Traffic has no stage: the arrival stream is a pure function of the key,
so a resumed run regenerates it, and only when capture has to run again.

A stage that fails its check on load (bit rot, truncation, schema drift)
counts an integrity failure, is deleted, and reads as a miss, so the
caller recomputes and rewrites it.

:class:`CheckpointStore` is only a view of one root's partial entries;
their population is the study cache's (``repro cache stats`` lists them,
``repro cache gc`` reaps abandoned ones, ``repro cache clear`` drops them).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.cache.gc import partial_info
from repro.cache.study import (
    CACHE_SCHEMA,
    PUBLISH_ATTEMPTS,
    STAGE_RECORD_SUFFIX,
    STAGES,
    StudyCache,
    stage_record,
    write_stage,
)
from repro.obs.metrics import get_registry


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
    """Atomic, digest-verified stage files of one root's partial entries."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self._cache = StudyCache(root)
        self.root = self._cache.root
        self.telemetry = CheckpointTelemetry()

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a telemetry counter, mirrored into the process metrics
        registry as ``checkpoint.<name>`` (see ``StudyCache._count``)."""
        setattr(self.telemetry, name, getattr(self.telemetry, name) + amount)
        get_registry().inc(f"checkpoint.{name}", amount)

    def dir_for(self, key: str) -> Path:
        """The key's partial entry directory."""
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid checkpoint key: {key!r}")
        return self._cache.partial_path(key)

    # -- save / load ---------------------------------------------------------

    def save(self, key: str, name: str, payload: StagePayload) -> Path:
        """Write one stage into the key's partial entry; returns the path
        of the stage's data file.

        The files are staged beside the partial entry and moved into it,
        the stage record last, so a reader never observes a torn stage —
        only none or a complete one.
        """
        if not isinstance(payload, StagePayload):
            raise TypeError("a checkpoint is a StagePayload (encode_stage_*)")
        if name != payload.stage or name not in STAGES:
            raise ValueError(f"{payload.stage!r} stage saved as {name!r}")
        directory = self.dir_for(key)
        staging = directory.with_name(f"{key}.{name}.tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        try:
            record = write_stage(name, staging, payload.value)
            record.update(schema=CACHE_SCHEMA, stage=name, created=time.time())
            record_name = f"{name}{STAGE_RECORD_SUFFIX}"
            (staging / record_name).write_text(
                json.dumps(record), encoding="utf-8"
            )
            # The record goes last: its presence marks the stage complete.
            for file_name in [*record["files"], record_name]:
                _move_into(staging / file_name, directory)
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
        directory = self.dir_for(key)
        record_path = directory / f"{name}{STAGE_RECORD_SUFFIX}"
        if name not in STAGES or not record_path.exists():
            self._count("misses")
            return None
        codec = STAGES[name]
        try:
            record = stage_record(directory, name)
            if record is None:
                raise ValueError("the stage does not match its record")
            value = codec.read(directory)
            if codec.size(value) != record["records"]:
                raise ValueError("record count disagrees with the stage record")
        except (OSError, ValueError, KeyError, TypeError):
            self._count("integrity_failures")
            self._count("misses")
            for path in [record_path, *(directory / f for f in codec.files)]:
                path.unlink(missing_ok=True)
            return None
        self._count("hits")
        self._count(
            "bytes_read",
            sum(int(entry["bytes"]) for entry in record["files"].values()),
        )
        return value

    def names(self, key: str) -> List[str]:
        """The complete stages in the key's partial entry, sorted."""
        return partial_info(self.dir_for(key))[0]

    def delete(self, key: str) -> bool:
        """Drop the key's partial entry; True if it existed."""
        directory = self.dir_for(key)
        existed = directory.exists()
        if existed:
            shutil.rmtree(directory, ignore_errors=True)
            self._count("deletes")
        return existed


def _move_into(source: Path, directory: Path) -> None:
    """``os.replace`` a staged file into ``directory``, (re)creating the
    directory first: a concurrent run may delete or claim it at any time."""
    for attempt in range(1, PUBLISH_ATTEMPTS + 1):
        directory.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(source, directory / source.name)
            return
        except FileNotFoundError:
            if attempt == PUBLISH_ATTEMPTS or not source.exists():
                raise


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
