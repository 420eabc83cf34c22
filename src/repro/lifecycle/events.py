"""The CERT lifecycle event alphabet and per-CVE timelines.

Householder & Spring model a vulnerability's history as an ordering of six
events; the paper (and this reproduction) assigns each a concrete timestamp
from measurement:

========  ==========================  ======================================
Event     Name                        Source in the study
========  ==========================  ======================================
``V``     Vendor awareness            min(P, F, known disclosure dates)
``F``     Fix ready                   IDS rule availability
``D``     Fix deployed                immediate rule installation (= F)
``P``     Public awareness            NVD / crawled CVE information
``X``     Exploit public              Suciu et al. exploit evidence
``A``     Attacks                     first DSCOPE-observed exploit traffic
========  ==========================  ======================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.util.timeutil import Duration


class LifecycleEvent(enum.Enum):
    """The six CERT-model lifecycle events."""

    VENDOR_AWARE = "V"
    FIX_READY = "F"
    PUBLIC = "P"
    FIX_DEPLOYED = "D"
    EXPLOIT_PUBLIC = "X"
    ATTACK = "A"

    @classmethod
    def from_letter(cls, letter: str) -> "LifecycleEvent":
        for event in cls:
            if event.value == letter:
                return event
        raise ValueError(f"unknown lifecycle event {letter!r}")


# Convenient aliases matching the paper's notation.
V = LifecycleEvent.VENDOR_AWARE
F = LifecycleEvent.FIX_READY
P = LifecycleEvent.PUBLIC
D = LifecycleEvent.FIX_DEPLOYED
X = LifecycleEvent.EXPLOIT_PUBLIC
A = LifecycleEvent.ATTACK


@dataclass
class CveTimeline:
    """Timestamps of lifecycle events for one CVE (any may be unknown)."""

    cve_id: str
    times: Dict[LifecycleEvent, Optional[datetime]] = field(default_factory=dict)

    def time(self, event: LifecycleEvent) -> Optional[datetime]:
        return self.times.get(event)

    def has(self, *events: LifecycleEvent) -> bool:
        """Whether all given events have known timestamps."""
        return all(self.times.get(event) is not None for event in events)

    def set(self, event: LifecycleEvent, when: Optional[datetime]) -> None:
        self.times[event] = when

    def delta(
        self, later: LifecycleEvent, earlier: LifecycleEvent
    ) -> Optional[Duration]:
        """time(later) − time(earlier), or None if either is unknown.

        Note the argument order matches the paper's figure captions:
        ``delta(A, D)`` is the quantity plotted as "A − D".
        """
        late, early = self.times.get(later), self.times.get(earlier)
        if late is None or early is None:
            return None
        return late - early

    def precedes(
        self, first: LifecycleEvent, second: LifecycleEvent
    ) -> Optional[bool]:
        """Whether ``first`` strictly precedes ``second`` (None if unknown)."""
        a, b = self.times.get(first), self.times.get(second)
        if a is None or b is None:
            return None
        return a < b

    def known_events(self) -> Tuple[LifecycleEvent, ...]:
        return tuple(e for e in LifecycleEvent if self.times.get(e) is not None)

    def ordering(self) -> Tuple[LifecycleEvent, ...]:
        """Known events sorted by timestamp (stable on ties: V F P D X A)."""
        known = [(self.times[e], i, e) for i, e in enumerate(LifecycleEvent) if self.times.get(e)]
        return tuple(e for _, _, e in sorted(known))


def known_times(
    timelines: Mapping[str, CveTimeline], event: LifecycleEvent
) -> Dict[str, datetime]:
    """``cve_id → time(event)`` for every timeline where ``event`` is known.

    Built once before a loop over exploit events, so each event costs one
    dict lookup instead of a timeline lookup.
    """
    known: Dict[str, datetime] = {}
    for cve_id, timeline in timelines.items():
        when = timeline.time(event)
        if when is not None:
            known[cve_id] = when
    return known
