"""Struct-of-arrays packing of a finished study.

The dataclass object graph a study produces (:class:`CveTimeline`,
:class:`Alert`, :class:`ExploitEvent`, ...) is the right shape for the
*write* side of the pipeline; the read side — "what is the D < A violation
rate", "which KEV CVEs did the telescope see first" — wants flat numpy
columns it can mask and reduce without touching a Python object per CVE.
:class:`ColumnarStudy` is that representation:

* every event timestamp is an ``int64`` count of **microseconds since the
  epoch** (the pipeline's datetimes are naive UTC; the conversion is exact
  integer arithmetic, so the dataclass path and the columnar path cannot
  disagree by a rounding error);
* missing timestamps use the :data:`MISSING` sentinel (``int64`` min), so
  "both events known" is a mask, not an ``is not None`` chain;
* CVE ids and vendor categories are interned into small string tables and
  referenced by index from every column (``-1`` = no reference);
* alerts, kept exploit events, KEV entries, and RCA decisions are parallel
  column groups in their canonical pipeline orders, so order-sensitive
  answers (delta series, overlap listings) reproduce the dataclass answers
  element for element.

Packing consumes a :class:`repro.analysis.pipeline.StudyResult` (batch) or
a :class:`repro.analysis.streaming.StudySnapshot` plus its bundle
(incremental); :mod:`repro.store.shard` persists the result as a binary
shard and reloads it zero-copy; :mod:`repro.store.kernels` answers queries
from the columns.  The alert column group (:func:`pack_alerts`, held by
an :class:`AlertTable`) is also the study cache's encoding of the scan's
alert list, so alerts have exactly one column encoding: the scan's list is
packed once, and the cache, the event derivation and the shard packer all
read that table.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from datetime import datetime, timedelta, tzinfo
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.lifecycle.events import CveTimeline, LifecycleEvent
from repro.util.timeutil import (  # noqa: F401 - the column codec, re-exported
    MISSING,
    datetimes,
    micros_column,
    zoned_datetimes,
    zoned_micros,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pipeline import StudyResult
    from repro.analysis.streaming import StudySnapshot
    from repro.datasets.loader import DatasetBundle
    from repro.nids.ruleset import Alert

#: The six lifecycle events in enum order; timeline timestamp columns are
#: named ``timeline_t_<letter>`` in this order.
EVENT_LETTERS = tuple(event.value for event in LifecycleEvent)

_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)

#: Column name -> dtype for every column a shard may carry.  The shard
#: format validates against this table, so a column can never be loaded
#: under the wrong dtype.
COLUMN_DTYPES: Dict[str, str] = {
    # timelines (one row per CVE timeline, in timeline-dict order)
    "timeline_cve": "int32",
    "timeline_category": "int16",
    **{f"timeline_t_{letter}": "int64" for letter in EVENT_LETTERS},
    # alerts (pipeline alert order)
    "alert_session": "int64",
    "alert_t": "int64",
    "alert_sid": "int32",
    "alert_cve": "int32",
    "alert_rule_published": "int64",
    "alert_src_ip": "int64",
    "alert_dst_ip": "int64",
    "alert_dst_port": "int32",
    # kept exploit events (the pipeline's kept_events order: by time, ties
    # by CVE id, then alert order)
    "event_cve": "int32",
    "event_t": "int64",
    "event_sid": "int32",
    "event_session": "int64",
    "event_mitigated": "uint8",
    # KEV catalog (bundle order)
    "kev_cve": "int32",
    "kev_added": "int64",
    "kev_published": "int64",
    # RCA decisions (decision order)
    "rca_cve": "int32",
    "rca_kept": "uint8",
    # per-CVE-table flags
    "cve_studied": "uint8",
}


def to_micros(when: Optional[datetime]) -> int:
    """Naive-UTC datetime -> int64 microseconds since the epoch.

    Exact integer arithmetic (no ``timestamp()``, which would apply the
    host timezone to the naive datetime).

    >>> to_micros(datetime(1970, 1, 1, 0, 0, 1))
    1000000
    >>> to_micros(None) == int(MISSING)
    True
    """
    if when is None:
        return int(MISSING)
    return (when - _EPOCH) // _US


def from_micros(stamp: int) -> Optional[datetime]:
    """Inverse of :func:`to_micros` (MISSING -> None).

    >>> from_micros(to_micros(datetime(2021, 12, 10, 3, 4, 5)))
    datetime.datetime(2021, 12, 10, 3, 4, 5)
    """
    if stamp == int(MISSING):
        return None
    return _EPOCH + timedelta(microseconds=int(stamp))


def check_index(column: np.ndarray, low: int, high: int, what: str) -> None:
    """Raise ``ValueError`` unless every value lies in ``[low, high)``."""
    if column.size and not low <= int(column.min()) <= int(column.max()) < high:
        raise ValueError(f"{what} index out of range")


#: The microsecond stamps a ``datetime`` can hold; :func:`datetimes` turns
#: a value outside them into an int, not a datetime.
_MIN_US = (datetime.min - _EPOCH) // _US
_MAX_US = (datetime.max - _EPOCH) // _US


def check_times(column: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless every value is a datetime's microsecond
    stamp (:data:`MISSING` is not)."""
    if column.size and not (
        _MIN_US <= int(column.min()) <= int(column.max()) <= _MAX_US
    ):
        raise ValueError(f"{what} missing or out of range")


class Interner:
    """Insertion-ordered string interning (value -> stable index)."""

    def __init__(self) -> None:
        self.values: List[str] = []
        self._index: Dict[str, int] = {}

    def intern(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        index = self._index.get(value)
        if index is None:
            index = len(self.values)
            self.values.append(value)
            self._index[value] = index
        return index


#: The tzinfos of an alert table's two time columns, ``alert_t`` and
#: ``alert_rule_published`` (see :func:`zoned_micros`); every stage
#: produces :data:`NAIVE` tables, and only those are stored.
Zones = Tuple[Optional[tzinfo], Optional[tzinfo]]
NAIVE: Zones = (None, None)

#: The alert column group (pipeline alert order): shared by the shard and
#: the study cache's ``alerts`` stage file.
ALERT_DTYPES: Dict[str, str] = {
    name: dtype for name, dtype in COLUMN_DTYPES.items()
    if name.startswith("alert_")
}


def _alert_columns(
    alerts: Sequence["Alert"], cves: Interner
) -> Tuple[Dict[str, np.ndarray], Zones]:
    """:func:`pack_alerts` that also packs aware times, returning the
    columns and their :data:`Zones`."""
    times, time_zone = zoned_micros([a.timestamp for a in alerts])
    published, published_zone = zoned_micros([a.rule_published for a in alerts])
    columns = {
        "alert_session": np.array([a.session_id for a in alerts], np.int64),
        "alert_t": times,
        "alert_sid": np.array([a.sid for a in alerts], np.int32),
        "alert_cve": np.array([cves.intern(a.cve_id) for a in alerts], np.int32),
        "alert_rule_published": published,
        "alert_src_ip": np.array([a.src_ip for a in alerts], np.int64),
        "alert_dst_ip": np.array([a.dst_ip for a in alerts], np.int64),
        "alert_dst_port": np.array([a.dst_port for a in alerts], np.int32),
    }
    return columns, (time_zone, published_zone)


def pack_alerts(alerts: Sequence["Alert"], cves: Interner) -> Dict[str, np.ndarray]:
    """The :data:`ALERT_DTYPES` columns of an alert list; CVE ids are
    interned into ``cves`` in alert order (None -> -1).  Raises
    ``ValueError`` for an aware time."""
    columns, zones = _alert_columns(alerts, cves)
    _check_naive(zones)
    return columns


def _check_naive(zones: Zones) -> None:
    if zones != NAIVE:
        raise ValueError("only naive UTC datetimes are stored")


def intern_codes(
    codes: np.ndarray, values: Sequence[str], cves: Interner
) -> np.ndarray:
    """``codes`` (indexes into ``values``; -1 is None) re-indexed into
    ``cves``, which interns the values in order of first appearance."""
    remap = np.full(len(values) + 1, -1, np.int32)  # last: -1 -> -1
    for code in dict.fromkeys(codes.tolist()):
        if code >= 0:
            remap[code] = cves.intern(values[code])
    return remap[codes]


class AlertTable(SequenceABC):
    """An alert list as its :data:`ALERT_DTYPES` columns plus the interned
    CVE table (``alert_cve`` indexes ``cves``; -1 is None).

    A read-only ``Sequence[Alert]``: ``len`` comes from the columns, and
    the :class:`Alert` records are unpacked once, on first iteration or
    indexing (or are the list the table was packed from).  ``==`` compares
    the records with any alert sequence.  Construction checks everything
    the records and their readers rely on — equal column lengths, CVE
    indexes in range, both timestamps present and within ``datetime``'s
    range — and raises ``ValueError`` otherwise.  ``zones`` is the
    :data:`Zones` of the time columns (aware alerts can be packed and
    compared, but only naive tables are stored).
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        cves: Sequence[str],
        alerts: Optional[List["Alert"]] = None,
        *,
        zones: Zones = NAIVE,
    ) -> None:
        count = columns["alert_session"].size
        if any(columns[name].size != count for name in ALERT_DTYPES):
            raise ValueError("alert columns differ in length")
        check_index(columns["alert_cve"], -1, len(cves), "alert CVE")
        check_times(columns["alert_t"], "alert time")
        check_times(columns["alert_rule_published"], "rule publication time")
        self.columns: Dict[str, np.ndarray] = dict(columns)
        self.cves: List[str] = list(cves)
        self.zones = zones
        self._alerts = alerts

    @classmethod
    def pack(cls, alerts: Iterable["Alert"]) -> "AlertTable":
        """``alerts`` as a table; a table is returned as it is."""
        if isinstance(alerts, AlertTable):
            return alerts
        alerts = list(alerts)
        cves = Interner()
        columns, zones = _alert_columns(alerts, cves)
        return cls(columns, cves.values, alerts, zones=zones)

    def check_naive(self) -> None:
        """Raise ``ValueError`` unless both time columns are naive UTC
        (what a stage file or a shard may hold)."""
        _check_naive(self.zones)

    def _records(self) -> List["Alert"]:
        if self._alerts is None:
            from repro.nids.ruleset import Alert

            columns = self.columns
            table = [*self.cves, None]  # index -1 -> None
            self._alerts = list(map(
                Alert,
                columns["alert_session"].tolist(),
                zoned_datetimes(columns["alert_t"], self.zones[0]),
                columns["alert_sid"].tolist(),
                [table[cve] for cve in columns["alert_cve"].tolist()],
                zoned_datetimes(
                    columns["alert_rule_published"], self.zones[1]
                ),
                columns["alert_dst_ip"].tolist(),
                columns["alert_dst_port"].tolist(),
                columns["alert_src_ip"].tolist(),
            ))
        return self._alerts

    def __len__(self) -> int:
        return int(self.columns["alert_session"].size)

    def __getitem__(self, index):
        return self._records()[index]

    def __iter__(self) -> Iterator["Alert"]:
        return iter(self._records())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (AlertTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and self._records() == list(other)

    def __repr__(self) -> str:
        return f"AlertTable({len(self)} alerts, {len(self.cves)} CVEs)"

    def columns_into(self, cves: Interner) -> Dict[str, np.ndarray]:
        """The columns with ``alert_cve`` re-indexed into ``cves``: what
        :func:`pack_alerts` of the records into ``cves`` gives, without
        the records (CVEs are interned in order of first appearance)."""
        self.check_naive()
        codes = intern_codes(self.columns["alert_cve"], self.cves, cves)
        return {**self.columns, "alert_cve": codes}


@dataclass
class ColumnarStudy:
    """One study snapshot as struct-of-arrays columns.

    ``meta`` carries the identity (the cache fingerprint that becomes the
    serving ``ETag``), provenance, and scalar counts; ``cves`` and
    ``categories`` are the interned string tables every ``*_cve`` /
    ``*_category`` column indexes into; ``columns`` maps the names in
    :data:`COLUMN_DTYPES` to numpy arrays (in-memory after packing,
    mmap-backed after a shard load).
    """

    meta: Dict[str, object]
    cves: List[str]
    categories: List[str]
    columns: Dict[str, np.ndarray]
    #: Keeps the mmap (and its file) alive for zero-copy loads.
    _backing: object = field(default=None, repr=False, compare=False)

    @property
    def etag(self) -> str:
        """The content fingerprint this snapshot was keyed under."""
        return str(self.meta["etag"])

    @property
    def n_timelines(self) -> int:
        return int(self.columns["timeline_cve"].size)

    @property
    def n_alerts(self) -> int:
        return int(self.columns["alert_t"].size)

    @property
    def n_events(self) -> int:
        return int(self.columns["event_t"].size)

    @property
    def n_kev(self) -> int:
        return int(self.columns["kev_added"].size)

    def col(self, name: str) -> np.ndarray:
        return self.columns[name]

    def timeline_times(self, letter: str) -> np.ndarray:
        """The int64 µs column of one lifecycle event (by letter)."""
        if letter not in EVENT_LETTERS:
            raise KeyError(f"unknown lifecycle event {letter!r}")
        return self.columns[f"timeline_t_{letter}"]

    def cve_index(self, cve_id: str) -> int:
        """Index of a CVE in the interned table (KeyError when absent)."""
        try:
            return self.cves.index(cve_id)
        except ValueError:
            raise KeyError(cve_id) from None

    # -- packing -----------------------------------------------------------

    @classmethod
    def from_study(cls, result: "StudyResult") -> "ColumnarStudy":
        """Pack a batch :class:`StudyResult` (ETag = its study cache key)."""
        from repro.cache import code_fingerprint, semantic_config
        from repro.cache import study_key as compute_study_key

        return cls._pack(
            etag=compute_study_key(result.config),
            code=code_fingerprint(),
            config={
                name: str(value)
                for name, value in semantic_config(result.config).items()
            },
            timelines=result.timelines,
            alerts=result.alerts,
            kept_events=result.kept_events,
            rca_decisions=result.rca_decisions,
            bundle=result.bundle,
            sessions=len(result.store),
            events_total=len(result.events),
        )

    @classmethod
    def from_snapshot(
        cls,
        snapshot: "StudySnapshot",
        bundle: "DatasetBundle",
        config,
        *,
        window_index: Optional[int] = None,
    ) -> "ColumnarStudy":
        """Pack an incremental :class:`StudySnapshot` mid-stream.

        The ETag is the study key suffixed with the window index (a rolling
        snapshot is a different immutable resource per window); after the
        final window the columns equal :meth:`from_study` of the batch run.
        """
        from repro.cache import code_fingerprint, semantic_config
        from repro.cache import study_key as compute_study_key

        key = compute_study_key(config)
        etag = key if window_index is None else f"{key}-w{window_index:05d}"
        return cls._pack(
            etag=etag,
            code=code_fingerprint(),
            config={
                name: str(value)
                for name, value in semantic_config(config).items()
            },
            timelines=snapshot.timelines,
            alerts=snapshot.alerts,
            kept_events=snapshot.kept_events,
            rca_decisions=snapshot.rca_decisions,
            bundle=bundle,
            sessions=snapshot.sessions_seen,
            events_total=len(snapshot.events),
        )

    @classmethod
    def _pack(
        cls,
        *,
        etag: str,
        code: str,
        config: Dict[str, str],
        timelines: Mapping[str, CveTimeline],
        alerts: Sequence,
        kept_events: Sequence,
        rca_decisions: Sequence,
        bundle: "DatasetBundle",
        sessions: int,
        events_total: int,
    ) -> "ColumnarStudy":
        from repro.datasets.catalog import profile_for
        from repro.lifecycle.exploit_events import EventTable

        cves = Interner()
        categories = Interner()
        columns: Dict[str, np.ndarray] = {}

        # Timelines, in the dict's iteration order (the order every
        # dataclass-path aggregation sees them in).
        timeline_list = list(timelines.values())
        n = len(timeline_list)
        timeline_cve = np.empty(n, dtype=np.int32)
        timeline_category = np.full(n, -1, dtype=np.int16)
        event_cols = {
            letter: np.full(n, MISSING, dtype=np.int64)
            for letter in EVENT_LETTERS
        }
        for row, timeline in enumerate(timeline_list):
            timeline_cve[row] = cves.intern(timeline.cve_id)
            try:
                category = profile_for(timeline.cve_id).category
            except KeyError:
                category = None
            timeline_category[row] = categories.intern(category)
            for event in LifecycleEvent:
                event_cols[event.value][row] = to_micros(timeline.time(event))
        columns["timeline_cve"] = timeline_cve
        columns["timeline_category"] = timeline_category
        for letter in EVENT_LETTERS:
            columns[f"timeline_t_{letter}"] = event_cols[letter]

        columns.update(AlertTable.pack(alerts).columns_into(cves))

        # The kept events' own columns (a record list is packed first).
        events = EventTable.pack(kept_events)
        if events.zone is not None:
            raise ValueError("only naive UTC datetimes are stored")
        columns["event_cve"] = intern_codes(
            events.columns["cve"], events.cves, cves
        )
        columns["event_t"] = events.columns["t"]
        columns["event_sid"] = events.columns["sid"]
        columns["event_session"] = events.columns["session"]
        columns["event_mitigated"] = events.columns["mitigated"].astype(np.uint8)

        kev_entries = list(bundle.kev)
        columns["kev_cve"] = np.fromiter(
            (cves.intern(entry.cve_id) for entry in kev_entries),
            np.int32, len(kev_entries),
        )
        columns["kev_added"] = np.fromiter(
            (to_micros(entry.date_added) for entry in kev_entries),
            np.int64, len(kev_entries),
        )
        columns["kev_published"] = np.fromiter(
            (to_micros(entry.published) for entry in kev_entries),
            np.int64, len(kev_entries),
        )

        columns["rca_cve"] = np.fromiter(
            (cves.intern(decision.cve_id) for decision in rca_decisions),
            np.int32, len(rca_decisions),
        )
        columns["rca_kept"] = np.fromiter(
            (decision.kept for decision in rca_decisions),
            np.uint8, len(rca_decisions),
        )

        studied_ids = {seed.cve_id for seed in bundle.studied}
        columns["cve_studied"] = np.fromiter(
            (cve_id in studied_ids for cve_id in cves.values),
            np.uint8, len(cves.values),
        )

        for name, array in columns.items():
            expected = COLUMN_DTYPES[name]
            if array.dtype != np.dtype(expected):  # pragma: no cover - guard
                raise TypeError(f"{name}: {array.dtype} != {expected}")

        meta: Dict[str, object] = {
            "etag": etag,
            "code": code,
            "config": config,
            "counts": {
                "sessions": int(sessions),
                "alerts": len(alerts),
                "events": int(events_total),
                "kept_events": len(kept_events),
                "kept_cves": sum(
                    1 for decision in rca_decisions if decision.kept
                ),
                "timelines": n,
                "kev": len(kev_entries),
            },
        }
        return cls(
            meta=meta,
            cves=list(cves.values),
            categories=list(categories.values),
            columns=columns,
        )
