"""Arrivals: what the synthetic Internet sends toward the telescope.

An arrival is one attempted TCP session from a scanner: the telescope
decides which of its live IPs receives it.  Its ground truth (the CVE it
exploits, and for Log4Shell the Table 6 variant) is for validation only —
the detection pipeline never reads it (the NIDS must rediscover the
attribution from payload bytes alone).

Arrivals have one encoding, :class:`ArrivalColumns`: what
:meth:`TrafficGenerator.generate` returns and what
:meth:`DscopeCollector.collect` routes.  :class:`ScanArrival` is its row
view — what :meth:`TrafficGenerator.stream`, the streaming capture and
external arrival sources hand over one arrival at a time — and
:meth:`ArrivalColumns.from_rows` packs such rows back into columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, tzinfo
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.util.timeutil import zoned_datetimes, zoned_micros

#: Inclusive upper bounds of an arrival's address and ports.
_MAX_IP = 2**32 - 1
_MAX_PORT = 65535


@dataclass(frozen=True)
class ScanArrival:
    """One scanner-originated connection attempt."""

    timestamp: datetime
    src_ip: int
    src_port: int
    dst_port: int
    payload: bytes = field(repr=False)
    truth_cve: Optional[str] = None
    variant_sid: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.src_ip <= _MAX_IP:
            raise ValueError(f"src_ip out of range: {self.src_ip}")
        if not 0 <= self.src_port <= _MAX_PORT:
            raise ValueError(f"src_port out of range: {self.src_port}")
        if not 0 <= self.dst_port <= _MAX_PORT:
            raise ValueError(f"dst_port out of range: {self.dst_port}")

    @property
    def is_exploit(self) -> bool:
        """Ground-truth flag (validation only)."""
        return self.truth_cve is not None


def _checked(values: Sequence[int], high: int, name: str, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` column, each checked to lie in
    ``[0, high]`` before the cast (``astype`` would wrap silently)."""
    try:
        wide = np.asarray(values, dtype=np.int64)
    except OverflowError:
        wide = None
    if wide is None or ((wide < 0) | (wide > high)).any():
        bad = next(value for value in values if not 0 <= value <= high)
        raise ValueError(f"{name} out of range: {bad}")
    return wide.astype(dtype)


class ArrivalColumns(Sequence):
    """Arrivals as columns, in row order.

    * ``t``: int64 microseconds (:func:`repro.util.timeutil.zoned_micros`;
      ``zone`` is their tzinfo, None for naive UTC), as in
      :class:`~repro.net.pcapstore.SessionColumns`;
    * ``src_ip`` (uint32), ``src_port`` and ``dst_port`` (uint16);
    * ``payload``: int32 indices into ``heap``, a list of *distinct*
      payloads (entries no row uses are allowed; capture leaves them out);
    * ``truth``: int32 indices into ``cves`` (-1 for background traffic);
    * ``variant_sid``: int64 Log4Shell variant SIDs (-1 for none).

    It is a read-only ``Sequence[ScanArrival]``: a row is built only when
    it is read, and two arrival sequences are equal when their rows are.
    """

    __slots__ = (
        "t", "zone", "src_ip", "src_port", "dst_port", "payload", "heap",
        "truth", "cves", "variant_sid",
    )

    def __init__(
        self,
        t: np.ndarray,
        src_ip: np.ndarray,
        src_port: np.ndarray,
        dst_port: np.ndarray,
        payload: np.ndarray,
        heap: List[bytes],
        truth: np.ndarray,
        cves: Tuple[str, ...],
        variant_sid: np.ndarray,
        *,
        zone: Optional[tzinfo] = None,
    ) -> None:
        self.t = t
        self.zone = zone
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.heap = heap
        self.truth = truth
        self.cves = cves
        self.variant_sid = variant_sid

    @classmethod
    def pack(
        cls,
        times: Sequence[datetime],
        src_ips: Sequence[int],
        src_ports: Sequence[int],
        dst_ports: Sequence[int],
        payloads: Iterable[bytes],
        truth: Union[Optional[str], Sequence[Optional[str]]] = None,
        variant_sid: Union[Optional[int], Sequence[Optional[int]]] = None,
    ) -> "ArrivalColumns":
        """Columns of arrivals given field by field, in row order.

        Payloads are interned into the heap in row order.  ``truth`` and
        ``variant_sid`` are one value for every row (a traffic component)
        or one per row.  Raises ``ValueError`` for an address outside
        ``[0, 2**32)`` or a port outside ``[0, 65535]``.
        """
        t, zone = zoned_micros(times)
        count = t.size
        heap: Dict[bytes, int] = {}
        intern = heap.setdefault
        payload = [intern(value, len(heap)) for value in payloads]
        cves: Dict[str, int] = {}
        if truth is None or isinstance(truth, str):
            codes = np.full(count, -1 if truth is None else 0, np.int32)
            if truth is not None:
                cves[truth] = 0
        else:
            codes = np.array(
                [-1 if cve is None else cves.setdefault(cve, len(cves))
                 for cve in truth],
                np.int32,
            )
        if variant_sid is None or isinstance(variant_sid, int):
            sids = np.full(count, -1 if variant_sid is None else variant_sid,
                           np.int64)
        else:
            sids = np.array(
                [-1 if sid is None else sid for sid in variant_sid], np.int64
            )
        return cls(
            t,
            _checked(src_ips, _MAX_IP, "src_ip", np.uint32),
            _checked(src_ports, _MAX_PORT, "src_port", np.uint16),
            _checked(dst_ports, _MAX_PORT, "dst_port", np.uint16),
            np.array(payload, np.int32),
            list(heap),
            codes,
            tuple(cves),
            sids,
            zone=zone,
        )

    @classmethod
    def from_rows(cls, arrivals: Iterable[ScanArrival]) -> "ArrivalColumns":
        """Columns of :class:`ScanArrival` rows, in the given order."""
        rows = list(arrivals)
        return cls.pack(
            [arrival.timestamp for arrival in rows],
            [arrival.src_ip for arrival in rows],
            [arrival.src_port for arrival in rows],
            [arrival.dst_port for arrival in rows],
            [arrival.payload for arrival in rows],
            [arrival.truth_cve for arrival in rows],
            [arrival.variant_sid for arrival in rows],
        )

    @classmethod
    def of(cls, arrivals: Iterable[ScanArrival]) -> "ArrivalColumns":
        """``arrivals`` itself when it is columns, else its rows packed."""
        if isinstance(arrivals, cls):
            return arrivals
        return cls.from_rows(arrivals)

    @classmethod
    def concat(cls, parts: Sequence["ArrivalColumns"]) -> "ArrivalColumns":
        """The parts' rows one after another, over one merged heap and CVE
        table (each interned in part order)."""
        parts = [part for part in parts if len(part)] or list(parts[:1])
        if not parts:
            return cls.pack([], [], [], [], [])
        if len(parts) == 1:
            return parts[0]
        zone = parts[0].zone
        if any((part.zone is None) != (zone is None) for part in parts):
            raise ValueError("naive and aware arrival times mixed")
        heap: Dict[bytes, int] = {}
        cves: Dict[str, int] = {}
        payloads, codes = [], []
        for part in parts:
            remap = np.array(
                [heap.setdefault(value, len(heap)) for value in part.heap],
                np.int32,
            )
            payloads.append(remap[part.payload])
            # A trailing -1 maps the background code -1 onto itself.
            remap = np.array(
                [cves.setdefault(cve, len(cves)) for cve in part.cves] + [-1],
                np.int32,
            )
            codes.append(remap[part.truth])
        return cls(
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in ("t", "src_ip", "src_port", "dst_port")
            ),
            np.concatenate(payloads),
            list(heap),
            np.concatenate(codes),
            tuple(cves),
            np.concatenate([part.variant_sid for part in parts]),
            zone=zone,
        )

    def take(self, index: Union[slice, np.ndarray]) -> "ArrivalColumns":
        """The rows at ``index`` (a slice or an index array), over the same
        heap and CVE table."""
        return ArrivalColumns(
            self.t[index],
            self.src_ip[index],
            self.src_port[index],
            self.dst_port[index],
            self.payload[index],
            self.heap,
            self.truth[index],
            self.cves,
            self.variant_sid[index],
            zone=self.zone,
        )

    def with_payloads(
        self, payload: np.ndarray, heap: List[bytes]
    ) -> "ArrivalColumns":
        """The same arrivals sending ``heap[payload]`` instead."""
        return ArrivalColumns(
            self.t, self.src_ip, self.src_port, self.dst_port, payload, heap,
            self.truth, self.cves, self.variant_sid, zone=self.zone,
        )

    def sorted(self) -> "ArrivalColumns":
        """The rows stably sorted by time: tied arrivals keep their order."""
        return self.take(np.argsort(self.t, kind="stable"))

    def __len__(self) -> int:
        return int(self.t.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        position = range(len(self))[index]
        return next(iter(self.take(slice(position, position + 1))))

    def __iter__(self) -> Iterator[ScanArrival]:
        """Every row, built from the columns, in row order."""
        table = [*self.cves, None]  # code -1 -> None
        return map(
            ScanArrival,
            zoned_datetimes(self.t, self.zone),
            self.src_ip.tolist(),
            self.src_port.tolist(),
            self.dst_port.tolist(),
            map(self.heap.__getitem__, self.payload.tolist()),
            map(table.__getitem__, self.truth.tolist()),
            [None if sid < 0 else sid for sid in self.variant_sid.tolist()],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<ArrivalColumns: {len(self)} arrivals, {len(self.heap)} payloads>"
