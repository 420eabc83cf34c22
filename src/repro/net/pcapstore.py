"""Persistent session store — the retrospective ("wayback") substrate.

The paper's central methodological trick is *post-facto* evaluation: the full
two years of captured traffic are stored, and IDS signatures are evaluated
retroactively over the archive, so exploit traffic that predates a
signature's publication is still identified.  :class:`SessionStore` is that
archive: an append-only, time-ordered store of sessions with JSONL
persistence (payloads base64-encoded) and time-range replay.  Its one
in-memory encoding besides the records is :class:`SessionColumns`, the
``store`` stage's columns.
"""

from __future__ import annotations

import base64
import json
from bisect import bisect_left, bisect_right
from datetime import datetime, tzinfo
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Union,
)

import numpy as np

from repro.net.session import TcpSession
from repro.util.timeutil import zoned_datetimes, zoned_micros


#: The ``store`` stage's columns: one row per session (store order), the
#: deduplicated payload heap (``payload_offset`` has one more entry than
#: there are distinct payloads; ``session_payload`` indexes it), and the
#: ground truth (``truth_cve`` indexes the header's ``cves``; -1 is None).
#: Every column but the ground truth's is a :class:`SessionColumns`'.
STORE_DTYPES: Dict[str, str] = {
    "session_id": "int64",
    "session_start": "int64",
    "session_end": "int64",
    "session_src_ip": "uint32",
    "session_dst_ip": "uint32",
    "session_src_port": "uint16",
    "session_dst_port": "uint16",
    "session_established": "uint8",
    "session_payload": "int32",
    "payload_heap": "uint8",
    "payload_offset": "int64",
    "truth_session": "int64",
    "truth_cve": "int32",
}


class SessionColumns:
    """Sessions as the ``store`` stage's columns (:data:`STORE_DTYPES`,
    ground truth aside) with their payload heap: what capture emits, what
    a loaded stage file holds, what the scan reads, and what a
    :class:`SessionStore` can be a view over.

    Times are int64 microseconds (:func:`repro.util.timeutil.zoned_micros`;
    ``zone`` is their tzinfo, None for the naive UTC every stage produces).
    ``distinct``, when given, is the heap already split into its payloads.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        *,
        zone: Optional[tzinfo] = None,
        distinct: Optional[List[bytes]] = None,
    ) -> None:
        self.columns = columns
        self.zone = zone
        self._distinct = distinct

    @classmethod
    def from_heap(
        cls,
        ids: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        src_ips: Sequence[int],
        src_ports: Sequence[int],
        dst_ips: Sequence[int],
        dst_ports: Sequence[int],
        payload: np.ndarray,
        heap: Sequence[bytes],
        established: Sequence[bool],
        *,
        zone: Optional[tzinfo] = None,
    ) -> "SessionColumns":
        """Columns of rows given field by field (times in microseconds),
        whose payloads are indices into ``heap``, a list of distinct
        payloads that may hold entries no row uses.

        The heap is renumbered to first use in row order and the unused
        entries are left out, so the columns are the same whatever order
        the heap came in and whatever else it held.
        """
        used = list(dict.fromkeys(payload.tolist()))
        renumber = np.zeros(len(heap), np.int32)
        renumber[used] = np.arange(len(used), dtype=np.int32)
        distinct = list(map(heap.__getitem__, used))
        offsets = np.zeros(len(distinct) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(list(map(len, distinct)), dtype=np.int64)
        columns = {
            "session_id": ids,
            "session_start": starts,
            "session_end": ends,
            "session_src_ip": np.asarray(src_ips, np.uint32),
            "session_dst_ip": np.asarray(dst_ips, np.uint32),
            "session_src_port": np.asarray(src_ports, np.uint16),
            "session_dst_port": np.asarray(dst_ports, np.uint16),
            "session_established": np.asarray(established, np.uint8),
            "session_payload": renumber[payload],
            "payload_heap": np.frombuffer(b"".join(distinct), np.uint8),
            "payload_offset": offsets,
        }
        return cls(columns, zone=zone, distinct=distinct)

    @classmethod
    def pack(cls, sessions: Sequence[TcpSession]) -> "SessionColumns":
        """Columns of session records, in the given order."""
        starts, zone = zoned_micros([s.start for s in sessions])
        # A session's end is None or as aware as its start.
        ends, _ = zoned_micros([s.end for s in sessions])
        heap: Dict[bytes, int] = {}
        payload = [heap.setdefault(s.payload, len(heap)) for s in sessions]
        return cls.from_heap(
            np.array([s.session_id for s in sessions], np.int64),
            starts,
            ends,
            [s.src_ip for s in sessions],
            [s.src_port for s in sessions],
            [s.dst_ip for s in sessions],
            [s.dst_port for s in sessions],
            np.array(payload, np.int32),
            list(heap),
            [s.established for s in sessions],
            zone=zone,
        )

    def __len__(self) -> int:
        return int(self.columns["session_id"].size)

    def distinct_payloads(self) -> List[bytes]:
        """The heap's payloads, in heap order (split once)."""
        if self._distinct is None:
            heap = self.columns["payload_heap"].tobytes()
            bounds = self.columns["payload_offset"].tolist()
            self._distinct = [heap[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return self._distinct

    def payloads(self) -> Mapping[int, bytes]:
        """A read-only session_id -> payload ``Mapping``, built without any
        session; it reads each payload only when it is looked up."""
        return _RowPayloads(self.columns)

    def __iter__(self) -> Iterator[TcpSession]:
        """Every session, built from its row, in column order."""
        columns = self.columns
        return map(
            TcpSession,
            columns["session_id"].tolist(),
            zoned_datetimes(columns["session_start"], self.zone),
            columns["session_src_ip"].tolist(),
            columns["session_src_port"].tolist(),
            columns["session_dst_ip"].tolist(),
            columns["session_dst_port"].tolist(),
            map(
                self.distinct_payloads().__getitem__,
                columns["session_payload"].tolist(),
            ),
            zoned_datetimes(columns["session_end"], self.zone),
            columns["session_established"].astype(bool).tolist(),
        )


class _RowPayloads(Mapping[int, bytes]):
    """session_id -> payload over the session columns, read on demand: an
    id is found in the sorted ids, and only its row's payload is sliced
    from the heap (root-cause analysis reads a few dozen per CVE).  It
    equals ``dict(zip(ids, payloads))`` of the rows: a repeated id maps to
    its last row's payload, and ids iterate in order of first appearance.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self._columns = columns
        # Stable, so a repeated id's rows stay in column order.
        self._order = columns["session_id"].argsort(kind="stable")
        self._sorted_ids = columns["session_id"][self._order]

    def __getitem__(self, session_id: int) -> bytes:
        position = int(self._sorted_ids.searchsorted(session_id, "right")) - 1
        if position < 0 or self._sorted_ids[position] != session_id:
            raise KeyError(session_id)
        payload = int(self._columns["session_payload"][self._order[position]])
        low, high = self._columns["payload_offset"][payload:payload + 2].tolist()
        return self._columns["payload_heap"][low:high].tobytes()

    def __len__(self) -> int:
        return len(dict.fromkeys(self._sorted_ids.tolist()))

    def __iter__(self) -> Iterator[int]:
        return iter(dict.fromkeys(self._columns["session_id"].tolist()))


def encode_session(session: TcpSession) -> dict:
    """JSON-serialisable record for one session (inverse of
    :func:`decode_session`), the line format of :meth:`SessionStore.save`
    and :meth:`SessionStore.load`.

    Times are written as ``YYYY-MM-DDTHH:MM:SS.ffffff`` (the fraction is
    kept when it is 0), the same string ``strftime("%Y-%m-%dT%H:%M:%S.%f")``
    gives a naive datetime; ``fromisoformat`` reads it back far faster
    than ``strptime``."""
    return {
        "id": session.session_id,
        "start": session.start.isoformat(timespec="microseconds"),
        "end": (
            session.end.isoformat(timespec="microseconds")
            if session.end
            else None
        ),
        "src_ip": session.src_ip,
        "src_port": session.src_port,
        "dst_ip": session.dst_ip,
        "dst_port": session.dst_port,
        "payload": base64.b64encode(session.payload).decode("ascii"),
        "established": session.established,
    }


def decode_session(record: dict) -> TcpSession:
    """Rebuild a session from :func:`encode_session` output."""
    return TcpSession(
        session_id=record["id"],
        start=datetime.fromisoformat(record["start"]),
        end=(
            datetime.fromisoformat(record["end"]) if record.get("end") else None
        ),
        src_ip=record["src_ip"],
        src_port=record["src_port"],
        dst_ip=record["dst_ip"],
        dst_port=record["dst_port"],
        payload=base64.b64decode(record["payload"]),
        established=record.get("established", True),
    )


class SessionStore:
    """Time-indexed archive of captured TCP sessions.

    Sessions may be appended in any order; iteration and range queries are
    always in start-time order.  The index is rebuilt lazily, so bulk appends
    stay O(1) each.

    A store is filled either by :meth:`append` / :meth:`extend`, or as a
    view over :class:`SessionColumns` in iteration order
    (:meth:`from_columns`: what capture returns and a loaded stage file
    is).  :meth:`columns` is that encoding, packed once from the records
    of a store that has no columns; a view answers ``len()``,
    :meth:`columns` and :meth:`payloads` without building a record, and
    builds every :class:`TcpSession` once, in column order, on the first
    read of its records (iteration, :meth:`between`, :meth:`to_port`,
    :meth:`save`).  An append drops the columns.
    """

    def __init__(self) -> None:
        self._sessions: Optional[List[TcpSession]] = []
        self._sorted = True
        self._columns: Optional[SessionColumns] = None

    @classmethod
    def from_columns(cls, columns: SessionColumns) -> "SessionStore":
        """A store whose sessions are ``columns``' rows, built on first
        use; the rows are in iteration order (starts never decrease)."""
        store = cls()
        store._sessions = None
        store._columns = columns
        return store

    def __len__(self) -> int:
        if self._sessions is None:
            return len(self._columns)
        return len(self._sessions)

    def columns(self) -> SessionColumns:
        """The sessions as :class:`SessionColumns`, in iteration order."""
        if self._columns is None:
            self._ensure_sorted()
            self._columns = SessionColumns.pack(self._sessions)
        return self._columns

    def payloads(self) -> Mapping[int, bytes]:
        """session_id -> payload for every session (what root-cause
        analysis reads); a view answers from its columns, as a read-only
        mapping that reads a payload only when it is looked up."""
        if self._sessions is None:
            return self._columns.payloads()
        return {session.session_id: session.payload for session in self}

    def _records(self) -> List[TcpSession]:
        if self._sessions is None:
            self._sessions = list(self._columns)
        return self._sessions

    def append(self, session: TcpSession) -> None:
        sessions = self._records()
        self._columns = None
        if sessions and session.start < sessions[-1].start:
            self._sorted = False
        sessions.append(session)

    def extend(self, sessions: Iterable[TcpSession]) -> None:
        for session in sessions:
            self.append(session)

    def _ensure_sorted(self) -> None:
        sessions = self._records()
        if not self._sorted:
            sessions.sort(key=lambda s: (s.start, s.session_id))
            self._sorted = True

    def __iter__(self) -> Iterator[TcpSession]:
        self._ensure_sorted()
        return iter(self._sessions)

    def between(
        self, start: Optional[datetime] = None, end: Optional[datetime] = None
    ) -> Iterator[TcpSession]:
        """Replay sessions with start times in [start, end)."""
        self._ensure_sorted()
        starts = [s.start for s in self._sessions]
        lo = bisect_left(starts, start) if start is not None else 0
        hi = bisect_left(starts, end) if end is not None else len(starts)
        return iter(self._sessions[lo:hi])

    def to_port(self, port: int) -> Iterator[TcpSession]:
        """All sessions targeting a given telescope port."""
        return (s for s in self if s.dst_port == port)

    # -- persistence ------------------------------------------------------

    def save(self, path: Union[str, Path]) -> int:
        """Write the archive as JSONL; returns the number of records."""
        self._ensure_sorted()
        path = Path(path)
        with path.open("w", encoding="ascii") as handle:
            for session in self._sessions:
                handle.write(json.dumps(encode_session(session)) + "\n")
        return len(self._sessions)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SessionStore":
        """Load an archive written by :meth:`save`."""
        store = cls()
        with Path(path).open("r", encoding="ascii") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    store.append(decode_session(json.loads(line)))
        return store
