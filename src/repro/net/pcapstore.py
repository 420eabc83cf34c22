"""Persistent session store — the retrospective ("wayback") substrate.

The paper's central methodological trick is *post-facto* evaluation: the full
two years of captured traffic are stored, and IDS signatures are evaluated
retroactively over the archive, so exploit traffic that predates a
signature's publication is still identified.  :class:`SessionStore` is that
archive: an append-only, time-ordered store of sessions with JSONL
persistence (payloads base64-encoded) and time-range replay.
"""

from __future__ import annotations

import base64
import json
from bisect import bisect_left, bisect_right
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, List, Mapping, Optional, Protocol, Union

from repro.net.session import TcpSession


class SessionColumns(Protocol):
    """Column-stored sessions a :class:`SessionStore` can be a view over
    (the study cache's ``store`` stage file is one)."""

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[TcpSession]:
        """Every session, built from its row, in column order."""

    def payloads(self) -> Mapping[int, bytes]:
        """A read-only session_id -> payload ``Mapping``, built without any
        session; it may read each payload only when it is looked up."""


def encode_session(session: TcpSession) -> dict:
    """JSON-serialisable record for one session (inverse of
    :func:`decode_session`); shared by the store and the study cache.

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

    A store is filled either by :meth:`append` / :meth:`extend` (capture)
    or, from a loaded stage file, as a view over its columns
    (:meth:`from_columns`).  A view answers ``len()`` and :meth:`payloads`
    from the columns; the first read or write of its records (iteration,
    :meth:`between`, :meth:`to_port`, :meth:`save`, :meth:`append`) builds
    every :class:`TcpSession` once, in column order, through :meth:`extend`.
    """

    def __init__(self) -> None:
        self._sessions: List[TcpSession] = []
        self._sorted = True
        self._columns: Optional[SessionColumns] = None

    @classmethod
    def from_columns(cls, columns: "SessionColumns") -> "SessionStore":
        """A store whose sessions are ``columns``' rows, built on first use."""
        store = cls()
        store._columns = columns
        return store

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._sessions)

    def payloads(self) -> Mapping[int, bytes]:
        """session_id -> payload for every session (what root-cause
        analysis reads); a view answers from its columns, as a read-only
        mapping that reads a payload only when it is looked up."""
        if self._columns is not None:
            return self._columns.payloads()
        return {session.session_id: session.payload for session in self}

    def _materialise(self) -> None:
        columns, self._columns = self._columns, None
        self.extend(columns)

    def append(self, session: TcpSession) -> None:
        if self._columns is not None:
            self._materialise()
        if self._sessions and session.start < self._sessions[-1].start:
            self._sorted = False
        self._sessions.append(session)

    def extend(self, sessions: Iterable[TcpSession]) -> None:
        for session in sessions:
            self.append(session)

    def _ensure_sorted(self) -> None:
        if self._columns is not None:
            self._materialise()
        if not self._sorted:
            self._sessions.sort(key=lambda s: (s.start, s.session_id))
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
