"""On-disk cache of a study run's heavy intermediates.

The pipeline's expensive stages — traffic generation, telescope capture,
and the NIDS scan — are pure functions of the :class:`StudyConfig` and the
code that implements them.  :class:`StudyCache` persists their outputs
(arrival stream, session store, alert list, collection statistics, ground
truth) under a content-addressed directory, so any process — the CLI, the
benchmark harness, the test suite — can reuse a study another process
already computed.

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
reads its data files.  The crash checkpoints of :mod:`repro.cache.checkpoint`
write the same files with the same codec, so when a run checkpointed its
stages, :meth:`StudyCache.save` hard-links those files into the entry
(copying when linking fails) instead of encoding the records again.

The default root is ``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``
or the ``root=`` argument; ``XDG_CACHE_HOME`` is honoured).  The ``repro
cache`` CLI (``stats`` / ``verify`` / ``gc`` / ``clear``) operates on the
same layout.
"""

from __future__ import annotations

import base64
import dataclasses
import gzip
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

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
    is_complete_entry,
    read_meta,
    verify_entry,
)
from repro.net.pcapstore import SessionStore, decode_session, encode_session
from repro.nids.ruleset import Alert
from repro.telescope.collector import CollectionStats
from repro.traffic.arrivals import ScanArrival

if TYPE_CHECKING:
    from repro.cache.checkpoint import CheckpointStore

#: Bump when the on-disk entry layout changes (not when pipeline code does —
#: the code fingerprint covers that).  2: per-file checksums and record
#: counts in ``meta.json``.
CACHE_SCHEMA = 2

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


# -- record serialisation ---------------------------------------------------
#
# Timestamps are naive datetimes written as ``YYYY-MM-DDTHH:MM:SS.ffffff``.
# ``isoformat(timespec="microseconds")`` writes exactly the string
# ``strftime("%Y-%m-%dT%H:%M:%S.%f")`` does (``timespec`` keeps the
# fraction when the microsecond is 0), and ``datetime.fromisoformat``
# parses it about thirty times faster than ``strptime``.


def _encode_alert(alert: Alert) -> dict:
    return {
        "session_id": alert.session_id,
        "timestamp": alert.timestamp.isoformat(timespec="microseconds"),
        "sid": alert.sid,
        "cve_id": alert.cve_id,
        "rule_published": alert.rule_published.isoformat(timespec="microseconds"),
        "dst_ip": alert.dst_ip,
        "dst_port": alert.dst_port,
        "src_ip": alert.src_ip,
    }


def _decode_alert(record: dict) -> Alert:
    return Alert(
        session_id=record["session_id"],
        timestamp=datetime.fromisoformat(record["timestamp"]),
        sid=record["sid"],
        cve_id=record["cve_id"],
        rule_published=datetime.fromisoformat(record["rule_published"]),
        dst_ip=record["dst_ip"],
        dst_port=record["dst_port"],
        src_ip=record["src_ip"],
    )


def _encode_arrival(arrival: ScanArrival) -> dict:
    return {
        "timestamp": arrival.timestamp.isoformat(timespec="microseconds"),
        "src_ip": arrival.src_ip,
        "src_port": arrival.src_port,
        "dst_port": arrival.dst_port,
        "payload": base64.b64encode(arrival.payload).decode("ascii"),
        "truth_cve": arrival.truth_cve,
        "variant_sid": arrival.variant_sid,
    }


def _decode_arrival(record: dict) -> ScanArrival:
    return ScanArrival(
        timestamp=datetime.fromisoformat(record["timestamp"]),
        src_ip=record["src_ip"],
        src_port=record["src_port"],
        dst_port=record["dst_port"],
        payload=base64.b64decode(record["payload"]),
        truth_cve=record["truth_cve"],
        variant_sid=record["variant_sid"],
    )


def _encode_stats(stats: CollectionStats) -> dict:
    return {
        "arrivals_routed": stats.arrivals_routed,
        "sessions_captured": stats.sessions_captured,
        "tenancies_materialised": stats.tenancies_materialised,
        "arrivals_lost_to_preemption": stats.arrivals_lost_to_preemption,
        "receiving_ips": sorted(stats.receiving_ips),
        "source_ips": sorted(stats.source_ips),
    }


def _decode_stats(record: dict) -> CollectionStats:
    return CollectionStats(
        arrivals_routed=record["arrivals_routed"],
        sessions_captured=record["sessions_captured"],
        tenancies_materialised=record["tenancies_materialised"],
        arrivals_lost_to_preemption=record["arrivals_lost_to_preemption"],
        receiving_ips=set(record["receiving_ips"]),
        source_ips=set(record["source_ips"]),
    )


def _write_jsonl(path: Path, records) -> int:
    """Write one JSON record per line, gzipped; returns the record count.

    Lines are encoded and compressed a batch at a time, which keeps memory
    bounded and the per-record cost to ``json.dumps``.
    """
    count = 0
    records = iter(records)
    with gzip.open(path, "wb", compresslevel=1) as handle:
        while True:
            lines = [json.dumps(record) for record in islice(records, 1024)]
            if not lines:
                return count
            count += len(lines)
            lines.append("")
            handle.write("\n".join(lines).encode("ascii"))


def _read_jsonl(path: Path):
    """The records of a :func:`_write_jsonl` file (blank lines skipped),
    decoded about 64 KB of lines per ``json.loads`` call."""
    with gzip.open(path, "rb") as handle:
        while True:
            lines = handle.readlines(1 << 16)
            if not lines:
                return
            yield from json.loads(
                b"[" + b",".join(line for line in lines if line.strip()) + b"]"
            )


# -- stage codecs -----------------------------------------------------------
#
# One codec per heavy stage, shared by the entry and the stage checkpoints
# (:mod:`repro.cache.checkpoint`): a checkpointed stage is the same files
# an entry holds, so publishing an entry from checkpoints links them.


def _write_arrivals(directory: Path, arrivals: List[ScanArrival]) -> int:
    return _write_jsonl(
        directory / "arrivals.jsonl.gz", map(_encode_arrival, arrivals)
    )


def _read_arrivals(directory: Path) -> List[ScanArrival]:
    return [
        _decode_arrival(record)
        for record in _read_jsonl(directory / "arrivals.jsonl.gz")
    ]


def _write_captured(directory: Path, captured: "Captured") -> int:
    store, collection_stats, ground_truth = captured
    count = _write_jsonl(directory / "store.jsonl.gz", map(encode_session, store))
    collection = {
        "stats": _encode_stats(collection_stats),
        "ground_truth": {
            str(session_id): truth for session_id, truth in ground_truth.items()
        },
    }
    with gzip.open(directory / "collection.json.gz", "wb", compresslevel=1) as handle:
        handle.write(json.dumps(collection).encode("ascii"))
    return count


def _read_captured(directory: Path) -> "Captured":
    store = SessionStore()
    store.extend(
        decode_session(record)
        for record in _read_jsonl(directory / "store.jsonl.gz")
    )
    with gzip.open(directory / "collection.json.gz", "rb") as handle:
        collection = json.loads(handle.read())
    ground_truth = {
        int(session_id): truth
        for session_id, truth in collection["ground_truth"].items()
    }
    return store, _decode_stats(collection["stats"]), ground_truth


def _write_alerts(directory: Path, alerts: List[Alert]) -> int:
    return _write_jsonl(directory / "alerts.jsonl.gz", map(_encode_alert, alerts))


def _read_alerts(directory: Path) -> List[Alert]:
    return [
        _decode_alert(record)
        for record in _read_jsonl(directory / "alerts.jsonl.gz")
    ]


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


#: The heavy stages in pipeline order.
STAGES: Dict[str, StageCodec] = {
    "arrivals": StageCodec(
        ("arrivals.jsonl.gz",), "arrivals", _write_arrivals, _read_arrivals
    ),
    "store": StageCodec(
        ("store.jsonl.gz", "collection.json.gz"), "sessions",
        _write_captured, _read_captured, size=lambda captured: len(captured[0]),
    ),
    "alerts": StageCodec(
        ("alerts.jsonl.gz",), "alerts", _write_alerts, _read_alerts
    ),
}


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
    """One cache entry, loaded (arrivals stay on disk until asked for)."""

    path: Path
    meta: dict
    store: SessionStore
    alerts: List[Alert]
    collection_stats: CollectionStats
    ground_truth: Dict[int, Optional[str]]

    def load_arrivals(self) -> List[ScanArrival]:
        """The cached arrival stream (lazy: rarely needed downstream)."""
        return _read_arrivals(self.path)


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
        report = verify_entry(path, deep=True, expect_schema=CACHE_SCHEMA)
        if not report.ok:
            # Torn or corrupt: evict rather than leave it blocking the key.
            self._count("integrity_failures")
            self._count("misses")
            self._evict_dir(path)
            return None
        meta = report.meta
        try:
            store, stats, ground_truth = _read_captured(path)
            alerts = _read_alerts(path)
            records = meta.get("records", {})
            if (
                len(store) != records.get("sessions")
                or len(alerts) != records.get("alerts")
            ):
                raise ValueError("record counts disagree with meta.json")
        except (OSError, ValueError, KeyError):
            self._count("integrity_failures")
            self._count("misses")
            self._evict_dir(path)
            return None
        self._count("hits")
        self._count("bytes_read", report.bytes)
        return CachedStudy(
            path=path,
            meta=meta,
            store=store,
            alerts=alerts,
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
                if is_complete_entry(path, expect_schema=CACHE_SCHEMA):
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
        arrivals: List[ScanArrival],
        store: SessionStore,
        alerts: List[Alert],
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
            "arrivals": arrivals,
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
        return [
            verify_entry(path, deep=deep, expect_schema=CACHE_SCHEMA)
            for path in self.entries()
        ]

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
            report = verify_entry(path, deep=False, expect_schema=CACHE_SCHEMA)
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
