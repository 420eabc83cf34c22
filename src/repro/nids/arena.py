"""Shared-memory session arenas: the zero-copy scan transfer plane.

A parallel scan used to ship work to its workers by value — fork-inherited
session lists on Linux, pickled chunk lists elsewhere — and the transfer
cost swamped the match work.  This module replaces that with a **frame
arena**: the whole session archive (plus the pickled ruleset) is serialized
*once* into a compact flat byte format backed by
:class:`multiprocessing.shared_memory.SharedMemory`, and workers receive
nothing but ``(start, stop)`` index pairs.  Each worker attaches to the
segment by name and decodes only the frames of its slice through
``memoryview`` windows — no per-session pickling, identical behaviour on
every start method.

Frame format (version 1, little-endian, no padding)::

    header   magic "RPARENA1" | version u32 | count u64
             | ruleset_off u64 | ruleset_len u64 | table_off u64
             | heap_off u64 | heap_len u64
    ruleset  opaque bytes (a pickled Ruleset; may be empty)
    table    count fixed-width records (see RECORD below)
    heap     payload bytes, deduplicated (archives repeat payloads heavily,
             so identical payloads share one heap extent)

Each record stores the full :class:`~repro.net.session.TcpSession` field
set: id, start/end timestamps (microseconds since epoch plus a fixed
UTC-offset in seconds, ``TZ_NAIVE`` marking naive datetimes), addresses,
ports, flags, and the payload's ``(offset, length)`` into the heap.
Decoding is exact: ``decode_sessions(encode_sessions(s)) == s`` field for
field, timezone included.  Only fixed-offset tzinfo is representable: an
exotic tzinfo raises :class:`ArenaFormatError` at encode time, and nothing
catches it, so a parallel scan of such sessions raises (pipeline sessions
are UTC).

Lifecycle (the part that must survive crashes):

* :meth:`SessionArena.build` creates the segment under a
  ``repro-arena-<pid>-<token>`` name and registers a
  :func:`weakref.finalize` finalizer, so the segment is closed *and
  unlinked* when the arena is garbage-collected or the interpreter exits —
  a scan that raises mid-way cannot leak ``/dev/shm`` space;
* :meth:`SessionArena.attach` (worker side) only ever closes — the creator
  pid alone unlinks, so a worker exiting never destroys a segment the
  parent is still scheduling chunks against;
* a run killed with SIGKILL skips finalizers by definition; those orphans
  are named after their owning pid so ``repro cache gc`` (and the next
  parallel scan) can sweep them with the same pid-liveness + grace policy
  as ``*.tmp<pid>`` staging dirs (:func:`repro.cache.gc.collect_shm_garbage`).
"""

from __future__ import annotations

import os
import struct
import weakref
from datetime import datetime, timedelta, timezone
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.session import TcpSession

#: /dev/shm name prefix for arena segments; the embedded pid is the basis
#: of the orphan-sweep policy in :mod:`repro.cache.gc`.
ARENA_NAME_PREFIX = "repro-arena-"

MAGIC = b"RPARENA1"
VERSION = 1

#: header: magic, version, count, ruleset_off, ruleset_len, table_off,
#: heap_off, heap_len
_HEADER = struct.Struct("<8sIQQQQQQ")

#: record: session_id, start_us, start_tz, end_us, end_tz, flags,
#: src_ip, dst_ip, src_port, dst_port, payload_off, payload_len
_RECORD = struct.Struct("<qqiqiBIIHHQI")

_FLAG_ESTABLISHED = 1
_FLAG_HAS_END = 2

#: start_tz/end_tz sentinel for naive datetimes (no tzinfo).
TZ_NAIVE = -(2**31)

_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)


class ArenaFormatError(ValueError):
    """A session cannot be framed (or a buffer is not a valid arena)."""


def _encode_datetime(value: datetime) -> Tuple[int, int]:
    """``datetime`` → ``(microseconds, utc_offset_seconds | TZ_NAIVE)``."""
    tz = value.tzinfo
    if tz is None:
        return (value - _EPOCH) // _US, TZ_NAIVE
    offset = value.utcoffset()
    if offset is None or offset % timedelta(seconds=1):
        raise ArenaFormatError(
            f"only fixed whole-second UTC offsets are frameable, got {tz!r}"
        )
    seconds = int(offset.total_seconds())
    if not -(2**31) < seconds < 2**31:  # pragma: no cover - datetime caps it
        raise ArenaFormatError(f"UTC offset out of range: {offset!r}")
    return (value.replace(tzinfo=None) - _EPOCH) // _US, seconds


def _decode_datetime(micros: int, tz_seconds: int) -> datetime:
    value = _EPOCH + micros * _US
    if tz_seconds == TZ_NAIVE:
        return value
    # timezone() returns the interned timezone.utc for a zero offset, so a
    # round-tripped aware datetime compares *and* reprs identically.
    return value.replace(tzinfo=timezone(timedelta(seconds=tz_seconds)))


def _check_range(name: str, value: int, bits: int, *, signed: bool) -> int:
    lo, hi = (-(2 ** (bits - 1)), 2 ** (bits - 1)) if signed else (0, 2**bits)
    if not lo <= value < hi:
        raise ArenaFormatError(f"{name} out of range for the frame: {value}")
    return value


def encode_sessions(
    sessions: Sequence[TcpSession], ruleset_blob: bytes = b""
) -> bytes:
    """Serialize sessions (+ an opaque ruleset blob) into one frame buffer.

    The ruleset blob is opaque bytes to this layer; in practice it is a
    *source-form* ruleset pickle (``Ruleset.__getstate__`` strips derived
    compile state), so the segment stays compact even for 10k-rule scaled
    rulesets — workers recompile once per blob digest and lazily per shard.

    Payloads are deduplicated into the heap; everything else is fixed-width,
    so record ``i`` lives at a computable offset and slices decode without
    touching the rest of the buffer.
    """
    count = len(sessions)
    ruleset_off = _HEADER.size
    table_off = ruleset_off + len(ruleset_blob)
    heap_off = table_off + count * _RECORD.size

    heap = bytearray()
    extents: Dict[bytes, Tuple[int, int]] = {}
    table = bytearray(count * _RECORD.size)
    pack = _RECORD.pack_into
    record_size = _RECORD.size
    for index, session in enumerate(sessions):
        payload = session.payload
        extent = extents.get(payload)
        if extent is None:
            extent = (heap_off + len(heap), len(payload))
            extents[payload] = extent
            heap += payload
        start_us, start_tz = _encode_datetime(session.start)
        if session.end is not None:
            end_us, end_tz = _encode_datetime(session.end)
            flags = _FLAG_HAS_END
        else:
            end_us, end_tz, flags = 0, TZ_NAIVE, 0
        if session.established:
            flags |= _FLAG_ESTABLISHED
        pack(
            table,
            index * record_size,
            _check_range("session_id", session.session_id, 64, signed=True),
            start_us,
            start_tz,
            end_us,
            end_tz,
            flags,
            _check_range("src_ip", session.src_ip, 32, signed=False),
            _check_range("dst_ip", session.dst_ip, 32, signed=False),
            session.src_port,
            session.dst_port,
            extent[0],
            extent[1],
        )

    header = _HEADER.pack(
        MAGIC, VERSION, count, ruleset_off, len(ruleset_blob),
        table_off, heap_off, len(heap),
    )
    return b"".join((header, ruleset_blob, bytes(table), bytes(heap)))


def _read_header(buf) -> Tuple[int, int, int, int, int, int]:
    if len(buf) < _HEADER.size:
        raise ArenaFormatError("buffer too small to be an arena frame")
    magic, version, count, ruleset_off, ruleset_len, table_off, heap_off, heap_len = (
        _HEADER.unpack_from(buf, 0)
    )
    if magic != MAGIC:
        raise ArenaFormatError(f"bad arena magic: {bytes(magic)!r}")
    if version != VERSION:
        raise ArenaFormatError(f"unsupported arena version: {version}")
    # A shared-memory segment may be page-rounded *past* the frame, but a
    # buffer ending short of the declared heap is torn, not decodable.
    if len(buf) < heap_off + heap_len:
        raise ArenaFormatError(
            f"truncated arena frame: {len(buf)} bytes, "
            f"header declares {heap_off + heap_len}"
        )
    return count, ruleset_off, ruleset_len, table_off, heap_off, heap_len


def frame_count(buf) -> int:
    """Number of sessions framed in a buffer produced by
    :func:`encode_sessions`."""
    return _read_header(buf)[0]


def frame_ruleset_blob(buf) -> bytes:
    """The opaque ruleset bytes embedded in the frame (may be empty)."""
    _, ruleset_off, ruleset_len, *_ = _read_header(buf)
    return bytes(memoryview(buf)[ruleset_off : ruleset_off + ruleset_len])


def decode_sessions(
    buf, start: int = 0, stop: Optional[int] = None
) -> List[TcpSession]:
    """Decode frames ``[start, stop)`` back into sessions.

    The buffer is sliced through one ``memoryview`` — only the records and
    payload extents of the requested window are ever materialized.
    """
    count, _, _, table_off, *_ = _read_header(buf)
    if stop is None:
        stop = count
    if not 0 <= start <= stop <= count:
        raise ArenaFormatError(
            f"slice [{start}, {stop}) outside frame count {count}"
        )
    view = memoryview(buf)
    unpack = _RECORD.unpack_from
    record_size = _RECORD.size
    sessions: List[TcpSession] = []
    append = sessions.append
    for index in range(start, stop):
        (
            session_id, start_us, start_tz, end_us, end_tz, flags,
            src_ip, dst_ip, src_port, dst_port, payload_off, payload_len,
        ) = unpack(view, table_off + index * record_size)
        append(
            TcpSession(
                session_id=session_id,
                start=_decode_datetime(start_us, start_tz),
                src_ip=src_ip,
                src_port=src_port,
                dst_ip=dst_ip,
                dst_port=dst_port,
                payload=bytes(view[payload_off : payload_off + payload_len]),
                end=(
                    _decode_datetime(end_us, end_tz)
                    if flags & _FLAG_HAS_END
                    else None
                ),
                established=bool(flags & _FLAG_ESTABLISHED),
            )
        )
    return sessions


def _fresh_name() -> str:
    return f"{ARENA_NAME_PREFIX}{os.getpid()}-{os.urandom(6).hex()}"


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Stop the attaching process's resource tracker from co-owning the
    segment.

    Only needed where workers run their *own* tracker (spawn-only
    platforms): before 3.13, attach registers the name there, and that
    tracker would unlink it (with a leak warning) when the worker exits
    even though the creator still owns it.  Fork children share the
    creator's tracker, where the duplicate registration is a set no-op
    balanced by the creator's eventual ``unlink`` — untracking there would
    instead *remove the creator's entry* and turn the unlink into tracker
    noise.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return
    try:  # pragma: no cover - spawn-only platforms
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _finalize_segment(
    shm: shared_memory.SharedMemory, owner: bool, owner_pid: int
) -> None:
    try:
        shm.close()
    except OSError:  # pragma: no cover - already closed
        pass
    # Forked children inherit the parent's arena object (and this
    # finalizer); only the creating process may destroy the name.
    if owner and os.getpid() == owner_pid:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class SessionArena:
    """One shared-memory segment holding a framed session archive.

    Create with :meth:`build` (parent, owns the name) or :meth:`attach`
    (workers, close-only).  Cleanup is automatic — a ``weakref.finalize``
    finalizer closes (and, for the owner, unlinks) the segment on garbage
    collection or interpreter exit — but callers on the happy path should
    still call :meth:`close` / :meth:`close_and_unlink` promptly.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, *, owner: bool
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._owner = owner
        self._count, _, _, _, self._heap_off, self._heap_len = _read_header(
            shm.buf
        )
        self._finalizer = weakref.finalize(
            self, _finalize_segment, shm, owner, os.getpid()
        )

    @classmethod
    def build(
        cls,
        sessions: Sequence[TcpSession],
        *,
        ruleset_blob: bytes = b"",
        name: Optional[str] = None,
    ) -> "SessionArena":
        """Frame ``sessions`` into a fresh owned segment."""
        frame = encode_sessions(sessions, ruleset_blob)
        shm = shared_memory.SharedMemory(
            name=name or _fresh_name(), create=True, size=max(1, len(frame))
        )
        # The segment may be page-rounded past the frame; the header's
        # offsets bound every read, so the tail slack is never decoded.
        shm.buf[: len(frame)] = frame
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SessionArena":
        """Attach to an existing segment by name (close-only)."""
        shm = shared_memory.SharedMemory(name=name)
        _untrack(shm)
        return cls(shm, owner=False)

    @property
    def name(self) -> str:
        return self._require().name

    @property
    def count(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        """Logical frame size (header through heap end), not the
        page-rounded segment size."""
        return self._heap_off + self._heap_len

    def _require(self) -> shared_memory.SharedMemory:
        if self._shm is None:
            raise ValueError("arena is closed")
        return self._shm

    def sessions(self, start: int = 0, stop: Optional[int] = None) -> List[TcpSession]:
        """Decode the sessions of slice ``[start, stop)``."""
        return decode_sessions(self._require().buf, start, stop)

    def ruleset_blob(self) -> bytes:
        return frame_ruleset_blob(self._require().buf)

    def close(self) -> None:
        """Detach from the segment (workers; owners keep the name alive)."""
        shm, self._shm = self._shm, None
        if shm is not None:
            self._finalizer.detach()
            try:
                shm.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def close_and_unlink(self) -> None:
        """Owner-side teardown: detach and destroy the name."""
        shm, self._shm = self._shm, None
        if shm is not None:
            self._finalizer.detach()
            _finalize_segment(shm, self._owner, os.getpid())

    def __enter__(self) -> "SessionArena":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owner:
            self.close_and_unlink()
        else:
            self.close()
