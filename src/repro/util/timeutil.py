"""Time handling for lifecycle measurement.

The paper reports event offsets in a compact ``"90d 12h"`` notation (see
Appendix E).  This module parses and formats that notation, and provides a
:class:`TimeWindow` describing a measurement window such as DSCOPE's two-year
collection period.

All datetimes in this package are timezone-naive and interpreted as UTC.
Offsets are represented as :class:`datetime.timedelta` (aliased to
:data:`Duration` for readability in signatures).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone, tzinfo
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

Duration = timedelta

_OFFSET_RE = re.compile(
    r"^\s*(?P<sign>-)?\s*"
    r"(?:(?P<days>\d+)d)?\s*"
    r"(?:(?P<hours>\d+)h)?\s*"
    r"(?:(?P<minutes>\d+)m)?\s*$"
)


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0) -> datetime:
    """Construct a (naive, UTC-interpreted) datetime.

    >>> utc(2021, 12, 10)
    datetime.datetime(2021, 12, 10, 0, 0)
    """
    return datetime(year, month, day, hour, minute)


#: Sentinel for "timestamp unknown" in int64 microsecond columns.
MISSING = np.int64(np.iinfo(np.int64).min)

_EPOCH = datetime(1970, 1, 1)
_UTC_EPOCH = _EPOCH.replace(tzinfo=timezone.utc)
_US = timedelta(microseconds=1)


def micros_column(values: Sequence[Optional[datetime]]) -> np.ndarray:
    """Naive-UTC datetimes -> an int64 column of microseconds since the
    epoch (None -> :data:`MISSING`), by exact integer arithmetic.

    Raises ``ValueError`` for a timezone-aware datetime: subtracting the
    naive epoch from one fails, so no aware value is ever converted
    silently.  (Python arithmetic here is several times faster than
    ``np.array(values, "datetime64[us]")`` on datetime objects.)
    """
    missing = int(MISSING)
    try:
        return np.array(
            [missing if when is None else (when - _EPOCH) // _US for when in values],
            dtype=np.int64,
        )
    except TypeError as exc:
        raise ValueError(f"only naive UTC datetimes are stored: {exc}") from None


def datetimes(column: np.ndarray) -> List[Optional[datetime]]:
    """Inverse of :func:`micros_column` (:data:`MISSING` -> None), at C
    speed: :data:`MISSING` is NaT when the column is viewed as
    ``datetime64[us]``."""
    return column.view("datetime64[us]").tolist()


def zoned_micros(
    values: Sequence[Optional[datetime]],
) -> Tuple[np.ndarray, Optional[tzinfo]]:
    """:func:`micros_column` of datetimes that are all naive or all aware,
    and the tzinfo of the first aware one (None when naive).  An aware
    value is stored as its UTC instant; :func:`zoned_datetimes` gives it
    back in that tzinfo, equal to the original.  Raises ``ValueError`` when
    naive and aware values are mixed."""
    zone = next((when.tzinfo for when in values if when is not None), None)
    if zone is None:
        return micros_column(values), None
    missing = int(MISSING)
    try:
        column = np.array(
            [
                missing if when is None else (when - _UTC_EPOCH) // _US
                for when in values
            ],
            dtype=np.int64,
        )
    except TypeError as exc:
        raise ValueError(f"naive and aware datetimes mixed: {exc}") from None
    return column, zone


def zoned_datetimes(
    column: np.ndarray, zone: Optional[tzinfo]
) -> List[Optional[datetime]]:
    """Inverse of :func:`zoned_micros`."""
    values = datetimes(column)
    if zone is None:
        return values
    return [
        None if when is None
        else when.replace(tzinfo=timezone.utc).astimezone(zone)
        for when in values
    ]


def parse_offset(text: str) -> Duration:
    """Parse a paper-style offset such as ``"90d 12h"`` or ``"-121d 10h"``.

    The sign applies to the whole offset: ``"-0d 7h"`` is minus seven hours.

    >>> parse_offset("1d 12h")
    datetime.timedelta(days=1, seconds=43200)
    >>> parse_offset("-0d 7h")
    datetime.timedelta(days=-1, seconds=61200)
    """
    match = _OFFSET_RE.match(text)
    if match is None or not any(match.group(g) for g in ("days", "hours", "minutes")):
        raise ValueError(f"unparseable offset: {text!r}")
    magnitude = timedelta(
        days=int(match.group("days") or 0),
        hours=int(match.group("hours") or 0),
        minutes=int(match.group("minutes") or 0),
    )
    return -magnitude if match.group("sign") else magnitude


def format_offset(delta: Duration) -> str:
    """Format a timedelta in the paper's ``"90d 12h"`` notation.

    A nonzero minute component is emitted as a trailing ``Nm`` (the paper
    only prints whole hours, but dropping minutes silently would break the
    parse → format → parse round trip).

    >>> format_offset(timedelta(days=90, hours=12))
    '90d 12h'
    >>> format_offset(timedelta(hours=-7))
    '-0d 7h'
    >>> format_offset(timedelta(minutes=30))
    '0d 0h 30m'
    >>> parse_offset(format_offset(parse_offset("0d 0h 30m")))
    datetime.timedelta(seconds=1800)
    """
    sign = "-" if delta < timedelta(0) else ""
    magnitude = abs(delta)
    total_minutes = int(magnitude.total_seconds() // 60)
    total_hours, minutes = divmod(total_minutes, 60)
    text = f"{sign}{total_hours // 24}d {total_hours % 24}h"
    if minutes:
        text += f" {minutes}m"
    return text


def to_days(delta: Duration) -> float:
    """Convert a timedelta to fractional days."""
    return delta.total_seconds() / 86400.0


def to_hours(delta: Duration) -> float:
    """Convert a timedelta to fractional hours."""
    return delta.total_seconds() / 3600.0


def days(count: float) -> Duration:
    """Shorthand for ``timedelta(days=count)``."""
    return timedelta(days=count)


def hours(count: float) -> Duration:
    """Shorthand for ``timedelta(hours=count)``."""
    return timedelta(hours=count)


@dataclass(frozen=True)
class TimeWindow:
    """A half-open measurement window ``[start, end)``.

    DSCOPE's collection window is March 2021 through March 2023; analyses
    regularly need to clamp, iterate, and normalise timestamps relative to a
    window, so those operations live here.
    """

    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty window: {self.start} .. {self.end}")

    @property
    def duration(self) -> Duration:
        return self.end - self.start

    def contains(self, when: datetime) -> bool:
        """Whether ``when`` falls inside the half-open window."""
        return self.start <= when < self.end

    def clamp(self, when: datetime) -> datetime:
        """Clamp a timestamp into the window (end-exclusive by a minute)."""
        if when < self.start:
            return self.start
        if when >= self.end:
            return self.end - timedelta(minutes=1)
        return when

    def elapsed(self, when: datetime) -> Duration:
        """Offset of ``when`` from the window start (may be negative)."""
        return when - self.start

    def fraction(self, when: datetime) -> float:
        """Position of ``when`` in the window as a 0..1 fraction."""
        return self.elapsed(when) / self.duration

    def iter_days(self) -> Iterator[datetime]:
        """Yield the start of each UTC day overlapping the window."""
        cursor = self.start.replace(hour=0, minute=0, second=0, microsecond=0)
        while cursor < self.end:
            yield cursor
            cursor += timedelta(days=1)

    def intersect(self, other: "TimeWindow") -> Optional["TimeWindow"]:
        """Intersection with another window, or None when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end <= start:
            return None
        return TimeWindow(start, end)
