"""On-disk cache of a study run's heavy intermediates.

The pipeline's expensive stages — traffic generation, telescope capture,
and the NIDS scan — are pure functions of the :class:`StudyConfig` and the
code that implements them.  :class:`StudyCache` persists the outputs of
capture and scan (session store, collection statistics, ground truth;
alert list) under a content-addressed directory, so any process — the
CLI, the benchmark harness, the test suite — can reuse a study another
process already computed.  The arrival stream is not persisted: it is a
pure function of the key, and regenerating it is cheaper than writing it.

Keying and invalidation:

* the key digests every *semantic* config field (seed, scales, counts,
  delays) — execution knobs like ``workers`` are excluded, because they
  cannot change the result;
* the key also folds in :func:`repro.cache.fingerprint.code_fingerprint`,
  a digest of the stage modules' source bytes, so editing pipeline code
  invalidates every prior entry without version bookkeeping.

Durability (the publish/verify/GC protocol):

* entries are staged in a ``<key>.tmp<pid>`` sibling directory and
  published with one atomic ``os.replace``; ``meta.json`` is written last
  inside the staging dir, so a published entry is complete by construction;
* ``meta.json`` records a per-file BLAKE2b checksum, byte size, and record
  count; :meth:`StudyCache.load` verifies them and evicts on any mismatch;
* when the publishing rename fails because a directory already occupies the
  slot, the occupant is verified: a *complete* entry means a concurrent
  writer won an equivalent race (benign — the staging dir is dropped), while
  a *torn* one (crash debris, partial eviction, hand-deleted ``meta.json``)
  is evicted and the rename retried, bounded times — a torn entry can never
  permanently block its key;
* :meth:`StudyCache.gc` removes orphaned staging dirs and torn entries and
  applies optional age/size bounds (see :mod:`repro.cache.gc`);
* every hit, miss, eviction, verification failure, publish conflict, and
  byte moved is counted on :attr:`StudyCache.telemetry`.

Encoding: each heavy stage has one codec (:data:`STAGES`) that writes and
reads one data file, a column container (the shard's framing, see
:mod:`repro.store.shard`) written through one zlib stream: ``store`` holds
the session columns, a deduplicated payload heap and the ground truth,
with the collection statistics in the container header; ``alerts`` holds
the shard's own ``alert_*`` columns (:class:`repro.store.columnar.AlertTable`).
A loaded stage is a view over its checked columns, not a list of records:
the store builds its ``TcpSession`` records only when iterated, and the
alert table its ``Alert`` records only when read.
The crash checkpoints of :mod:`repro.cache.checkpoint` write the same files
with the same codec, so when a run checkpointed its stages,
:meth:`StudyCache.save` hard-links those files into the entry (copying when
linking fails) instead of encoding the records again.

The default root is ``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``
or the ``root=`` argument; ``XDG_CACHE_HOME`` is honoured).  The ``repro
cache`` CLI (``stats`` / ``verify`` / ``gc`` / ``clear``) operates on the
same layout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
import zlib
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional,
    Sequence, Tuple, Union,
)

from repro.cache.fingerprint import code_fingerprint
from repro.cache.gc import (
    GcReport,
    ManifestGcReport,
    STAGING_GRACE_SECONDS,
    collect_garbage,
    collect_manifest_garbage,
)
from repro.cache.integrity import (
    EntryReport,
    file_entry,
    read_meta,
    verify_entry,
)
import numpy as np

from repro.net.pcapstore import STORE_DTYPES, SessionColumns, SessionStore
from repro.nids.ruleset import Alert
from repro.store.columnar import (
    ALERT_DTYPES,
    MISSING,
    AlertTable,
    Interner,
    check_index,
    check_times,
)
from repro.store.shard import container_chunks, read_container
from repro.telescope.collector import CollectionStats

if TYPE_CHECKING:
    from repro.cache.checkpoint import CheckpointStore

#: Bump when the on-disk entry layout changes (not when pipeline code does —
#: the code fingerprint covers that).  2: per-file checksums and record
#: counts in ``meta.json``.  3: compressed column containers, no arrival
#: stream.
CACHE_SCHEMA = 3

#: How many times :meth:`StudyCache.save` will evict a stale occupant and
#: retry the publishing rename before giving the save up.
PUBLISH_ATTEMPTS = 4

#: Config fields that select *how* a study runs, not *what* it computes;
#: they are excluded from the cache key so e.g. ``workers=1`` and
#: ``workers=8`` share an entry.  ``feed_dir`` names *where* feed
#: snapshots live; the snapshots' *content* reaches the key through the
#: resolved scenario fingerprint, so moving files never re-keys but
#: editing them always does.
EXECUTION_FIELDS = frozenset({"workers", "feed_dir"})


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def _scenario_token(config) -> Optional[str]:
    """The scenario's contribution to the cache key, or None for none.

    The token is the resolved scenario's fingerprint (component refs +
    params + dataset content hashes) — but only when it *differs* from the
    paper-default composition resolved under the same config.  Params-only
    scenarios (``quick``, ``standard``, ``full``) therefore share entries
    with equivalent hand-built configs, and ``from_scenario
    ("paper-default")`` keys identically to a plain default config.
    """
    name = getattr(config, "scenario", None)
    if name is None:
        return None
    from repro.scenarios import resolve

    resolved = resolve(name, config)
    baseline = resolve("paper-default", config)
    if resolved.fingerprint == baseline.fingerprint:
        return None
    return resolved.fingerprint


def semantic_config(config) -> Dict[str, object]:
    """The key-relevant view of a (dataclass) study config."""
    semantic: Dict[str, object] = {}
    for field in dataclasses.fields(config):
        if field.name in EXECUTION_FIELDS:
            continue
        if field.name == "scenario":
            token = _scenario_token(config)
            if token is not None:
                semantic["scenario"] = token
            continue
        value = getattr(config, field.name)
        if isinstance(value, timedelta):
            value = value.total_seconds()
        semantic[field.name] = value
    return semantic


def study_key(config) -> str:
    """Content hash identifying one study's intermediates."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "code": code_fingerprint(),
            "config": semantic_config(config),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


# -- stage files ------------------------------------------------------------
#
# A stage file is one column container (:mod:`repro.store.shard`, the
# shard's framing) written through a single ``zlib`` stream, column by
# column, so no whole-file copy is ever held in memory.  Datetimes are
# int64 microseconds since the epoch (``MISSING`` for None); every stage
# produces naive UTC, and the encoder rejects an aware datetime.  The
# reader validates what it decompresses and raises ``ValueError`` on any
# damage, which the cache and the checkpoint store count as an integrity
# failure and a miss.

STORE_FILE = "store.cols.zlib"
ALERTS_FILE = "alerts.cols.zlib"
# ``store`` holds :data:`repro.net.pcapstore.STORE_DTYPES`, ``alerts``
# :data:`repro.store.columnar.ALERT_DTYPES`.

_STATS_COUNTERS = (
    "arrivals_routed",
    "sessions_captured",
    "tenancies_materialised",
    "arrivals_lost_to_preemption",
)


def _write_columns(
    path: Path,
    header: Dict[str, object],
    columns: Dict[str, np.ndarray],
    dtypes: Dict[str, str],
) -> None:
    compressor = zlib.compressobj(1)
    with open(path, "wb") as handle:
        for chunk in container_chunks(header, columns, dtypes):
            handle.write(compressor.compress(chunk))
        handle.write(compressor.flush())


def _read_columns(
    path: Path, dtypes: Dict[str, str]
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    decompressor = zlib.decompressobj()
    try:
        data = decompressor.decompress(path.read_bytes())
    except zlib.error as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    if not decompressor.eof or decompressor.unused_data:
        raise ValueError(f"{path.name}: truncated or trailing compressed data")
    return read_container(data, dtypes, source=path.name)


def _write_captured(directory: Path, captured: "Captured") -> int:
    store, collection_stats, ground_truth = captured
    # A captured or loaded store's columns are written as they are; a
    # record-built store is packed once.
    sessions = store.columns()
    if sessions.zone is not None:
        raise ValueError("only naive UTC datetimes are stored")
    cves = Interner()
    columns = {
        **sessions.columns,
        "truth_session": np.array(list(ground_truth), np.int64),
        "truth_cve": np.array(
            [cves.intern(truth) for truth in ground_truth.values()], np.int32
        ),
    }
    stats = {name: getattr(collection_stats, name) for name in _STATS_COUNTERS}
    stats["receiving_ips"] = sorted(collection_stats.receiving_ips)
    stats["source_ips"] = sorted(collection_stats.source_ips)
    _write_columns(
        directory / STORE_FILE,
        {"stats": stats, "cves": cves.values},
        columns,
        STORE_DTYPES,
    )
    return len(sessions)


def _read_captured(directory: Path) -> "Captured":
    """The ``store`` stage, checked column by column: the store is a view
    over the session columns (see :meth:`SessionStore.from_columns`), so
    everything its records would reject is rejected here, as
    ``ValueError``."""
    header, columns = _read_columns(directory / STORE_FILE, STORE_DTYPES)
    count = columns["session_id"].size
    if any(
        columns[name].size != count
        for name in STORE_DTYPES
        if name.startswith("session_")
    ) or columns["truth_session"].size != columns["truth_cve"].size:
        raise ValueError(f"{STORE_FILE}: columns differ in length")
    offsets = columns["payload_offset"]
    if (
        offsets.size == 0
        or offsets[0] != 0
        or offsets[-1] != columns["payload_heap"].size
        or bool((np.diff(offsets) < 0).any())
    ):
        raise ValueError(f"{STORE_FILE}: malformed payload heap")
    check_index(columns["session_payload"], 0, offsets.size - 1, "payload")
    start, end = columns["session_start"], columns["session_end"]
    check_times(start, "session start")
    closed = end != MISSING
    check_times(end[closed], "session end")
    if bool((end[closed] < start[closed]).any()):
        raise ValueError(f"{STORE_FILE}: a session ends before it starts")
    # Rows are in the store's iteration order (starts never decrease),
    # which a view and the scan over its columns rely on.
    if bool((np.diff(start) < 0).any()):
        raise ValueError(f"{STORE_FILE}: sessions out of order")
    truth_sessions = columns["truth_session"]
    # Sorted and compared, not ``np.unique``, which imports ``numpy.ma``
    # (13 ms in a fresh process that otherwise never needs it).
    ordered = np.sort(truth_sessions)
    if bool((ordered[1:] == ordered[:-1]).any()):
        raise ValueError(f"{STORE_FILE}: duplicate ground-truth sessions")
    cves = list(header["cves"])
    check_index(columns["truth_cve"], -1, len(cves), "ground-truth CVE")

    stats = header["stats"]
    collection_stats = CollectionStats(
        **{name: stats[name] for name in _STATS_COUNTERS},
        receiving_ips=set(stats["receiving_ips"]),
        source_ips=set(stats["source_ips"]),
    )
    table = [*cves, None]  # index -1 -> None
    ground_truth = dict(zip(
        truth_sessions.tolist(),
        map(table.__getitem__, columns["truth_cve"].tolist()),
    ))
    store = SessionStore.from_columns(SessionColumns(columns))
    return store, collection_stats, ground_truth


def _write_alerts(directory: Path, alerts: Sequence[Alert]) -> int:
    table = AlertTable.pack(alerts)
    table.check_naive()
    _write_columns(
        directory / ALERTS_FILE, {"cves": table.cves}, table.columns, ALERT_DTYPES
    )
    return len(table)


def _read_alerts(directory: Path) -> AlertTable:
    header, columns = _read_columns(directory / ALERTS_FILE, ALERT_DTYPES)
    return AlertTable(columns, header["cves"])


#: The capture stage's value: the session store, the collector's
#: statistics, and its ground truth (session id -> true CVE or None).
Captured = Tuple[SessionStore, CollectionStats, Dict[int, Optional[str]]]


@dataclass(frozen=True)
class StageCodec:
    """One heavy stage's value <-> its data files in a directory.

    ``write`` returns the stage's record count, which ``meta.json`` stores
    under ``count_key``; ``size`` recomputes that count from a value.
    """

    files: Tuple[str, ...]
    count_key: str
    write: Callable[[Path, Any], int]
    read: Callable[[Path], Any]
    size: Callable[[Any], int] = len


#: The heavy stages in pipeline order.  (Traffic is not one: the arrival
#: stream is a pure function of the study key, and regenerating it costs
#: less than writing it.)
STAGES: Dict[str, StageCodec] = {
    "store": StageCodec(
        (STORE_FILE,), "sessions", _write_captured, _read_captured,
        size=lambda captured: len(captured[0]),
    ),
    "alerts": StageCodec((ALERTS_FILE,), "alerts", _write_alerts, _read_alerts),
}

#: Every stage's data files: what a complete entry's manifest lists.
STAGE_FILES: Tuple[str, ...] = tuple(
    name for codec in STAGES.values() for name in codec.files
)


def write_stage(stage: str, directory: Path, value) -> Dict[str, Any]:
    """Write one stage's data files into ``directory``.

    Returns the stage's record: its record count and, per file, the
    ``meta.json`` manifest entry (BLAKE2b digest and byte size).
    """
    codec = STAGES[stage]
    count = codec.write(directory, value)
    return {
        "records": count,
        "files": {name: file_entry(directory / name) for name in codec.files},
    }


def _verify(entry: Path, *, deep: bool) -> EntryReport:
    """:func:`verify_entry` against this schema and these stage files."""
    return verify_entry(
        entry, deep=deep, expect_schema=CACHE_SCHEMA, expect_files=STAGE_FILES
    )


def _link_or_copy(source: Path, target: Path) -> None:
    """Hard-link ``source`` as ``target``; copy when linking fails (e.g.
    the two are on different devices)."""
    try:
        os.link(source, target)
    except OSError:
        shutil.copyfile(source, target)


# -- the cache itself -------------------------------------------------------


@dataclass
class CachedStudy:
    """One cache entry, loaded."""

    path: Path
    meta: dict
    store: SessionStore
    alerts: AlertTable
    collection_stats: CollectionStats
    ground_truth: Dict[int, Optional[str]]


@dataclass
class CacheTelemetry:
    """Counters for one :class:`StudyCache` instance's lifetime.

    ``publish_conflicts`` counts benign races (a complete concurrent entry
    won); ``blocked_slot_evictions`` counts the bug class this subsystem
    exists to prevent — a stale or torn directory squatting on a key and
    evicted so the save could publish.
    """

    hits: int = 0
    misses: int = 0
    saves: int = 0
    evictions: int = 0
    integrity_failures: int = 0
    publish_conflicts: int = 0
    blocked_slot_evictions: int = 0
    publish_failures: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class StudyCache:
    """Content-addressed store for study intermediates."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_root()
        self.telemetry = CacheTelemetry()

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a telemetry counter, mirrored into the process metrics.

        The dataclass stays the per-instance API; the process-wide registry
        (``cache.<name>``) aggregates across every cache instance so run
        manifests and ``repro metrics`` see cache behaviour in one place.
        """
        setattr(self.telemetry, name, getattr(self.telemetry, name) + amount)
        from repro.obs import get_registry

        get_registry().inc(f"cache.{name}", amount)

    # Backwards-compatible aliases for the original counters.
    @property
    def hits(self) -> int:
        return self.telemetry.hits

    @property
    def misses(self) -> int:
        return self.telemetry.misses

    @property
    def study_root(self) -> Path:
        return self.root / "study"

    def key(self, config) -> str:
        return study_key(config)

    def entry_path(self, config) -> Path:
        return self.study_root / self.key(config)

    def has(self, config) -> bool:
        return (self.entry_path(config) / "meta.json").exists()

    def _evict_dir(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)
        self._count("evictions")

    def load(self, config) -> Optional[CachedStudy]:
        """The cached entry for a config, or None.

        Missing, torn, and checksum-failing entries all count as misses;
        anything unusable occupying the slot is evicted so the recompute's
        :meth:`save` can publish.
        """
        path = self.entry_path(config)
        if not path.exists():
            self._count("misses")
            return None
        report = _verify(path, deep=True)
        if not report.ok:
            # Torn or corrupt: evict rather than leave it blocking the key.
            self._count("integrity_failures")
            self._count("misses")
            self._evict_dir(path)
            return None
        meta = report.meta
        records = meta.get("records", {})
        try:
            values = {stage: codec.read(path) for stage, codec in STAGES.items()}
            for stage, codec in STAGES.items():
                if codec.size(values[stage]) != records.get(codec.count_key):
                    raise ValueError("record counts disagree with meta.json")
        except (OSError, ValueError, KeyError, TypeError):
            self._count("integrity_failures")
            self._count("misses")
            self._evict_dir(path)
            return None
        self._count("hits")
        self._count("bytes_read", report.bytes)
        store, stats, ground_truth = values["store"]
        return CachedStudy(
            path=path,
            meta=meta,
            store=store,
            alerts=values["alerts"],
            collection_stats=stats,
            ground_truth=ground_truth,
        )

    def _publish(self, staging: Path, path: Path) -> bool:
        """Atomically move a staged entry into place; True if we published.

        A failed rename means *something* occupies the slot.  A complete
        entry there is a concurrent writer's equivalent result — benign
        loss, drop the staging dir.  Anything else (torn directory, debris)
        is evicted and the rename retried, at most :data:`PUBLISH_ATTEMPTS`
        times, so stale state can never permanently block the key.
        """
        for _ in range(PUBLISH_ATTEMPTS):
            try:
                os.replace(staging, path)
                return True
            except OSError:
                if _verify(path, deep=False).ok:
                    self._count("publish_conflicts")
                    shutil.rmtree(staging, ignore_errors=True)
                    return False
                self._count("blocked_slot_evictions")
                self._evict_dir(path)
        # Pathological contention: give the save up rather than spin.
        self._count("publish_failures")
        shutil.rmtree(staging, ignore_errors=True)
        return False

    def save(
        self,
        config,
        *,
        store: SessionStore,
        alerts: Sequence[Alert],
        collection_stats: CollectionStats,
        ground_truth: Dict[int, Optional[str]],
        checkpoints: Optional["CheckpointStore"] = None,
    ) -> Path:
        """Persist one study's intermediates; returns the entry path.

        With ``checkpoints``, every stage that store holds under this
        study's key is hard-linked (or copied) into the entry instead of
        being encoded again; the rest are written from the given values.

        Best-effort by design: after the publish protocol exhausts its
        retries (possible only under pathological contention) the save is
        dropped and counted in ``telemetry.publish_failures`` — a cache
        save must never fail an otherwise-successful study run.
        """
        path = self.entry_path(config)
        staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        values = {
            "store": (store, collection_stats, ground_truth),
            "alerts": alerts,
        }
        try:
            records: Dict[str, int] = {}
            manifest: Dict[str, Dict[str, object]] = {}
            for stage, codec in STAGES.items():
                record = None
                if checkpoints is not None:
                    record = self._link_stage(checkpoints, path.name, stage, staging)
                if record is None:
                    record = write_stage(stage, staging, values[stage])
                records[codec.count_key] = record["records"]
                manifest.update(record["files"])
            meta = {
                "schema": CACHE_SCHEMA,
                "key": path.name,
                "code": code_fingerprint(),
                "created": time.time(),
                "config": {
                    name: str(value)
                    for name, value in semantic_config(config).items()
                },
                "records": records,
                "files": manifest,
            }
            # meta.json written last: its presence marks the entry complete.
            (staging / "meta.json").write_text(
                json.dumps(meta, indent=2) + "\n", encoding="utf-8"
            )
            if self._publish(staging, path):
                self._count(
                    "bytes_written",
                    sum(int(entry["bytes"]) for entry in manifest.values()),
                )
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._count("saves")
        return path

    @staticmethod
    def _link_stage(
        checkpoints: "CheckpointStore", key: str, stage: str, staging: Path
    ) -> Optional[Dict[str, Any]]:
        """Link a checkpointed stage's files into ``staging``; its record,
        or None when the stage is not checkpointed or its files are missing
        or no longer match the record (the caller then writes the stage)."""
        record = checkpoints.stage_record(key, stage)
        if record is None:
            return None
        source = checkpoints.dir_for(key)
        try:
            for name, expected in record["files"].items():
                _link_or_copy(source / name, staging / name)
                if file_entry(staging / name) != expected:
                    raise ValueError(f"{name} changed since it was checkpointed")
        except (OSError, ValueError):
            # Unlink, never truncate: a linked file shares its checkpoint's
            # bytes.
            for name in record["files"]:
                (staging / name).unlink(missing_ok=True)
            return None
        return record

    # -- lifecycle / inspection --------------------------------------------

    def entries(self) -> List[Path]:
        """Entry directories (published or torn; staging dirs excluded)."""
        if not self.study_root.is_dir():
            return []
        return sorted(
            path
            for path in self.study_root.iterdir()
            if path.is_dir() and ".tmp" not in path.name
        )

    def staging_dirs(self) -> List[Path]:
        """Leftover ``<key>.tmp<pid>`` staging directories."""
        if not self.study_root.is_dir():
            return []
        return sorted(
            path
            for path in self.study_root.iterdir()
            if path.is_dir() and ".tmp" in path.name
        )

    def verify(self, *, deep: bool = True) -> List[EntryReport]:
        """Verify every entry against its manifest (no eviction)."""
        return [_verify(path, deep=deep) for path in self.entries()]

    def gc(
        self,
        *,
        max_age: Optional[timedelta] = None,
        max_bytes: Optional[int] = None,
        staging_grace: float = STAGING_GRACE_SECONDS,
    ) -> GcReport:
        """Collect garbage (see :func:`repro.cache.gc.collect_garbage`)."""
        report = collect_garbage(
            self.study_root,
            max_age=max_age,
            max_bytes=max_bytes,
            staging_grace=staging_grace,
        )
        self._count("evictions", report.entries_removed)
        return report

    def gc_manifests(
        self,
        *,
        max_age: Optional[timedelta] = None,
        max_count: Optional[int] = None,
        staging_grace: float = STAGING_GRACE_SECONDS,
    ) -> ManifestGcReport:
        """Bound the rolling ``watch-*`` manifests under this cache root
        (see :func:`repro.cache.gc.collect_manifest_garbage`)."""
        from repro.obs import manifests_root

        return collect_manifest_garbage(
            manifests_root(self.root),
            max_age=max_age,
            max_count=max_count,
            staging_grace=staging_grace,
        )

    def stats(self) -> Dict[str, object]:
        """Snapshot of the on-disk population plus this instance's counters."""
        entries = []
        total_bytes = 0
        for path in self.entries():
            meta = read_meta(path)
            report = _verify(path, deep=False)
            total_bytes += report.bytes
            entries.append(
                {
                    "key": path.name,
                    "complete": report.ok,
                    "bytes": report.bytes,
                    "created": (meta or {}).get("created"),
                    "records": (meta or {}).get("records", {}),
                    "config": (meta or {}).get("config", {}),
                }
            )
        return {
            "root": str(self.root),
            "entries": entries,
            "entry_count": len(entries),
            "staging_count": len(self.staging_dirs()),
            "total_bytes": total_bytes,
            "telemetry": self.telemetry.as_dict(),
        }

    def evict(self, config) -> bool:
        """Drop one entry; returns whether it existed."""
        path = self.entry_path(config)
        existed = path.exists()
        if existed:
            self._evict_dir(path)
        return existed

    def clear(self) -> int:
        """Drop every study entry (staging dirs included); returns how many
        were removed."""
        if not self.study_root.exists():
            return 0
        entries = [p for p in self.study_root.iterdir() if p.is_dir()]
        for entry in entries:
            shutil.rmtree(entry, ignore_errors=True)
        self._count("evictions", len(entries))
        return len(entries)
