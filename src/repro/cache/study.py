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
:mod:`repro.store.shard`) written through one zlib stream that opens with
the container's length (8 bytes, little-endian), so a reader inflates the
container into one buffer of that size.  ``store`` holds the session
columns, a deduplicated payload heap and the ground truth, with the six
collection counters in the container header; ``alerts`` holds the shard's
own ``alert_*`` columns (:class:`repro.store.columnar.AlertTable`).
A loaded stage is a view over its checked columns, not a list of records:
the store builds its ``TcpSession`` records only when iterated, and the
alert table its ``Alert`` records only when read.

Partial entries: while a run is in flight, each heavy stage it finishes is
written into ``<key>.partial/`` (:mod:`repro.cache.checkpoint`): the
stage's data file, then a ``<stage>.stage.json`` record of its count,
digest and size.  :meth:`StudyCache.save` claims that directory with one
``os.replace`` to its staging name, keeps every stage file that still
matches its record, writes the rest from memory, drops the records and
writes ``meta.json``, so each stage is encoded once per run and published
by rename.  A partial entry is never an entry: :meth:`StudyCache.entries`,
:meth:`StudyCache.verify` and the GC bounds skip it.

The default root is ``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``
or the ``root=`` argument; ``XDG_CACHE_HOME`` is honoured).  The ``repro
cache`` CLI (``stats`` / ``verify`` / ``gc`` / ``clear``) operates on the
same layout, partial entries included.
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
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

from repro.cache.fingerprint import code_fingerprint
from repro.cache.gc import (
    GcReport,
    ManifestGcReport,
    PARTIAL_SUFFIX,
    STAGE_RECORD_SUFFIX,
    STAGING_GRACE_SECONDS,
    collect_garbage,
    collect_manifest_garbage,
    partial_info,
    remove_dir,
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
from repro.obs.manifest import manifests_root
from repro.obs.metrics import get_registry
from repro.store.columnar import (
    ALERT_DTYPES,
    MISSING,
    AlertTable,
    Interner,
    check_index,
    check_times,
)
from repro.store.shard import LENGTH_BYTES, container_chunks, read_container
from repro.telescope.collector import CollectionStats

#: Bump when the on-disk entry layout changes (not when pipeline code does —
#: the code fingerprint covers that).  2: per-file checksums and record
#: counts in ``meta.json``.  3: compressed column containers, no arrival
#: stream.  4: each stream opens with the container's length; the store
#: header counts the distinct addresses instead of listing them.
CACHE_SCHEMA = 4

#: The directory the stage checkpoints lived in before they became partial
#: entries; ``StudyCache.gc`` removes it (nothing reads it).
LEGACY_CHECKPOINTS = "checkpoints"

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
# column, so no whole-file copy is ever held in memory; the stream opens
# with the container's length, which sizes the reader's buffer.  Datetimes
# are int64 microseconds since the epoch (``MISSING`` for None); every
# stage produces naive UTC, and the encoder rejects an aware datetime.
# The reader validates what it decompresses and raises ``ValueError`` on
# any damage, which the cache and the checkpoint store count as an
# integrity failure and a miss.

STORE_FILE = "store.cols.zlib"
ALERTS_FILE = "alerts.cols.zlib"
# ``store`` holds :data:`repro.net.pcapstore.STORE_DTYPES`, ``alerts``
# :data:`repro.store.columnar.ALERT_DTYPES`.

#: Deflate turns one byte into at most 1032.
_DEFLATE_MAX_RATIO = 1032

_STATS_COUNTERS = tuple(field.name for field in dataclasses.fields(CollectionStats))


def _write_columns(
    path: Path,
    header: Dict[str, object],
    columns: Dict[str, np.ndarray],
    dtypes: Dict[str, str],
) -> None:
    compressor = zlib.compressobj(1)
    with open(path, "wb") as handle:
        for chunk in container_chunks(header, columns, dtypes, length_prefix=True):
            handle.write(compressor.compress(chunk))
        handle.write(compressor.flush())


def _read_columns(
    path: Path, dtypes: Dict[str, str]
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Inflate a stage file and parse its container.

    The stream's first 8 bytes are the container's length.  They are
    inflated alone, by a bounded ``decompress`` that leaves the rest of
    the stream unconsumed, and ``flush`` inflates that rest into one
    buffer of the given size, which ``read_container`` wraps without a
    copy.  (A bounded ``decompress`` of the whole stream would still grow
    its buffer block by block and copy it whole at the end.)
    """
    data = path.read_bytes()
    decompressor = zlib.decompressobj()
    try:
        prefix = decompressor.decompress(data, LENGTH_BYTES)
        if len(prefix) != LENGTH_BYTES:
            raise ValueError(f"{path.name}: shorter than its length prefix")
        length = int.from_bytes(prefix, "little")
        # Checked before it is allocated: no deflate stream holds more.
        if not 0 < length <= _DEFLATE_MAX_RATIO * len(data):
            raise ValueError(f"{path.name}: a length prefix of {length} bytes")
        container = decompressor.flush(length)
    except zlib.error as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    if not decompressor.eof or decompressor.unused_data:
        raise ValueError(f"{path.name}: truncated or trailing compressed data")
    if len(container) != length:
        raise ValueError(
            f"{path.name}: {len(container)} bytes inflated, {length} expected"
        )
    return read_container(container, dtypes, source=path.name)


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
    _write_columns(
        directory / STORE_FILE,
        {"stats": collection_stats.as_dict(), "cves": cves.values},
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
        **{name: stats[name] for name in _STATS_COUNTERS}
    )
    ground_truth = _TruthColumns(truth_sessions, columns["truth_cve"], cves)
    store = SessionStore.from_columns(SessionColumns(columns))
    return store, collection_stats, ground_truth


class _TruthColumns(Mapping[int, Optional[str]]):
    """session_id -> ground-truth CVE over the ``truth_session`` and
    ``truth_cve`` columns (``truth_cve`` indexes ``cves``; -1 is None).
    ``len`` comes from the columns; the dict is built on the first lookup
    or iteration (only the attribution check reads it), in column order.
    """

    def __init__(
        self, sessions: np.ndarray, codes: np.ndarray, cves: List[str]
    ) -> None:
        self._columns = (sessions, codes, cves)
        self._dict: Optional[Dict[int, Optional[str]]] = None

    def _truth(self) -> Dict[int, Optional[str]]:
        if self._dict is None:
            sessions, codes, cves = self._columns
            table = [*cves, None]  # index -1 -> None
            self._dict = dict(zip(
                sessions.tolist(), map(table.__getitem__, codes.tolist())
            ))
        return self._dict

    def __getitem__(self, session_id: int) -> Optional[str]:
        return self._truth()[session_id]

    def __len__(self) -> int:
        return int(self._columns[0].size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._truth())


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
Captured = Tuple[SessionStore, CollectionStats, Mapping[int, Optional[str]]]


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


def stage_record(directory: Path, stage: str) -> Optional[Dict[str, Any]]:
    """A partial entry's ``<stage>.stage.json`` record (``records``, and
    per file its ``blake2b`` and ``bytes``) when it is readable, of this
    schema and this stage's, and every file it lists is on disk as
    recorded; else None."""
    try:
        record = json.loads(
            (directory / f"{stage}{STAGE_RECORD_SUFFIX}").read_text(
                encoding="utf-8"
            )
        )
        if (
            isinstance(record, dict)
            and record.get("schema") == CACHE_SCHEMA
            and isinstance(record.get("records"), int)
            and isinstance(record.get("files"), dict)
            and set(record["files"]) == set(STAGES[stage].files)
            and all(
                file_entry(directory / name) == expected
                for name, expected in record["files"].items()
            )
        ):
            return record
    except (OSError, ValueError):
        pass
    return None


def _verify(entry: Path, *, deep: bool) -> EntryReport:
    """:func:`verify_entry` against this schema and these stage files."""
    return verify_entry(
        entry, deep=deep, expect_schema=CACHE_SCHEMA, expect_files=STAGE_FILES
    )


# -- the cache itself -------------------------------------------------------


@dataclass
class CachedStudy:
    """One cache entry, loaded."""

    path: Path
    meta: dict
    store: SessionStore
    alerts: AlertTable
    collection_stats: CollectionStats
    ground_truth: Mapping[int, Optional[str]]


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

    def entry_path(self, config, *, key: Optional[str] = None) -> Path:
        """The entry directory of ``config``; ``key`` is its
        :func:`study_key` when the caller already holds it."""
        return self.study_root / (self.key(config) if key is None else key)

    def partial_path(self, key: str) -> Path:
        """The partial entry of a study key: its run's finished stages."""
        return self.study_root / f"{key}{PARTIAL_SUFFIX}"

    def has(self, config) -> bool:
        return (self.entry_path(config) / "meta.json").exists()

    def _evict_dir(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)
        self._count("evictions")

    def load(self, config, *, key: Optional[str] = None) -> Optional[CachedStudy]:
        """The cached entry for a config, or None (``key`` as for
        :meth:`entry_path`).

        Missing, torn, and checksum-failing entries all count as misses;
        anything unusable occupying the slot is evicted so the recompute's
        :meth:`save` can publish.
        """
        path = self.entry_path(config, key=key)
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
        key: Optional[str] = None,
        store: SessionStore,
        alerts: Sequence[Alert],
        collection_stats: CollectionStats,
        ground_truth: Mapping[int, Optional[str]],
    ) -> Path:
        """Persist one study's intermediates; returns the entry path.

        The key's partial entry, if any, is claimed as the staging
        directory: every stage in it that still matches its record is kept
        as it is, and the rest are written from the given values.  ``key``
        is as for :meth:`entry_path`.

        Best-effort by design: after the publish protocol exhausts its
        retries (possible only under pathological contention) the save is
        dropped and counted in ``telemetry.publish_failures`` — a cache
        save must never fail an otherwise-successful study run.
        """
        path = self.entry_path(config, key=key)
        staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        try:
            # One rename: a concurrent stage save recreates the partial
            # rather than writing into what this save publishes.
            os.replace(self.partial_path(path.name), staging)
        except FileNotFoundError:
            staging.mkdir(parents=True)
        values = {
            "store": (store, collection_stats, ground_truth),
            "alerts": alerts,
        }
        try:
            records: Dict[str, int] = {}
            manifest: Dict[str, Dict[str, object]] = {}
            for stage, codec in STAGES.items():
                record = stage_record(staging, stage)
                if record is None:
                    record = write_stage(stage, staging, values[stage])
                (staging / f"{stage}{STAGE_RECORD_SUFFIX}").unlink(missing_ok=True)
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

    # -- lifecycle / inspection --------------------------------------------

    def _dirs(self, keep: Callable[[str], bool]) -> List[Path]:
        if not self.study_root.is_dir():
            return []
        return sorted(
            path
            for path in self.study_root.iterdir()
            if path.is_dir() and keep(path.name)
        )

    def entries(self) -> List[Path]:
        """Entry directories (published or torn; staging dirs and partial
        entries excluded)."""
        return self._dirs(
            lambda name: ".tmp" not in name and not name.endswith(PARTIAL_SUFFIX)
        )

    def staging_dirs(self) -> List[Path]:
        """Leftover ``<key>.tmp<pid>`` staging directories."""
        return self._dirs(lambda name: ".tmp" in name)

    def partials(self) -> List[Path]:
        """Partial entries: ``<key>.partial`` directories of unpublished
        runs."""
        return self._dirs(lambda name: name.endswith(PARTIAL_SUFFIX))

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
        """Collect garbage (see :func:`repro.cache.gc.collect_garbage`),
        and the stage checkpoints' old ``checkpoints/`` tree."""
        report = collect_garbage(
            self.study_root,
            max_age=max_age,
            max_bytes=max_bytes,
            staging_grace=staging_grace,
        )
        legacy = self.root / LEGACY_CHECKPOINTS
        if legacy.is_dir():
            remove_dir(legacy, report)
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
        partials = []
        for path in self.partials():
            stages, size, newest = partial_info(path)
            partials.append({
                "key": path.name[: -len(PARTIAL_SUFFIX)],
                "stages": stages,
                "bytes": size,
                "newest": newest,
            })
        return {
            "root": str(self.root),
            "entries": entries,
            "entry_count": len(entries),
            "partials": partials,
            "partial_count": len(partials),
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
        """Drop every study entry (staging dirs and partial entries
        included); returns how many directories were removed."""
        if not self.study_root.exists():
            return 0
        entries = [p for p in self.study_root.iterdir() if p.is_dir()]
        for entry in entries:
            shutil.rmtree(entry, ignore_errors=True)
        self._count("evictions", len(entries))
        return len(entries)
