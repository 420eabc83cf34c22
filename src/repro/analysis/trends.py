"""Section 4 general trends: Figures 1, 3, 4 and the headline statistics.

* Figure 1 — studied CVEs binned by publication quarter: a steady stream of
  new threats across the window, with the expected end-of-study drop-off.
* Figure 3 — exploit events over study time (monthly): raw volume grows
  because old CVEs keep being targeted as new ones arrive.
* Figure 4 — events relative to their CVE's publication: the spike just
  after publication plus the months-long sustained tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.datasets.seed_cves import SEED_CVES, STUDY_WINDOW
from repro.lifecycle.events import CveTimeline, P, known_times
from repro.lifecycle.exploit_events import ExploitEvent
from repro.util.stats import bin_counts
from repro.util.timeutil import TimeWindow, to_days


def observed_cves_by_publication(
    *,
    window: TimeWindow = STUDY_WINDOW,
    bin_days: float = 91.0,
) -> List[Tuple[float, int]]:
    """Figure 1: count of studied CVEs per publication-date bin.

    X axis is days since window start; default bins are quarters.
    """
    offsets = [
        to_days(seed.published - window.start)
        for seed in SEED_CVES
        if window.contains(seed.published)
    ]
    return bin_counts(
        offsets, bin_width=bin_days, lo=0.0, hi=to_days(window.duration)
    )


def events_over_study(
    events: Iterable[ExploitEvent],
    *,
    window: TimeWindow = STUDY_WINDOW,
    bin_days: float = 30.0,
) -> List[Tuple[float, int]]:
    """Figure 3: exploit events per (monthly) bin over the study."""
    start = window.start
    # to_days(event.timestamp - start), without the call per event
    offsets = [
        (event.timestamp - start).total_seconds() / 86400.0 for event in events
    ]
    return bin_counts(
        offsets, bin_width=bin_days, lo=0.0, hi=to_days(window.duration)
    )


def events_relative_to_publication(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
    *,
    bin_days: float = 7.0,
    lo_days: float = -200.0,
    hi_days: float = 500.0,
) -> List[Tuple[float, int]]:
    """Figure 4: exploit events binned by days since their CVE's P."""
    published = known_times(timelines, P)
    offsets: List[float] = []
    for event in events:
        when = published.get(event.cve_id)
        if when is not None:
            # to_days(event.timestamp - when), without the call per event
            offsets.append((event.timestamp - when).total_seconds() / 86400.0)
    return bin_counts(offsets, bin_width=bin_days, lo=lo_days, hi=hi_days)


@dataclass(frozen=True)
class HeadlineStats:
    """The Section 4 narrative numbers."""

    unique_cves: int
    exploit_events: int
    unique_receiving_ips: int
    unique_exploit_sources: int
    vendors: int
    cwes: int
    assigners: int


def study_headline_stats(
    events: Iterable[ExploitEvent],
    *,
    receiving_ips: int,
) -> HeadlineStats:
    """Compute the paper's Section 4 headline statistics from a run."""
    from repro.datasets.catalog import (
        distinct_assigners,
        distinct_cwes,
        distinct_vendors,
    )

    events = list(events)
    return HeadlineStats(
        unique_cves=len({event.cve_id for event in events}),
        exploit_events=len(events),
        unique_receiving_ips=receiving_ips,
        unique_exploit_sources=len({event.src_ip for event in events}),
        vendors=len(distinct_vendors()),
        cwes=len(distinct_cwes()),
        assigners=len(distinct_assigners()),
    )


def events_by_vendor(
    events: Iterable[ExploitEvent],
) -> List[Tuple[str, int]]:
    """Exploit events per vendor, heaviest first (Section 4 diversity).

    Fake (RCA-injected) CVEs without catalog entries are skipped.
    """
    from repro.datasets.catalog import CVE_PROFILES

    counts: Dict[str, int] = {}
    for event in events:
        profile = CVE_PROFILES.get(event.cve_id)
        if profile is None:
            continue
        counts[profile.vendor] = counts.get(profile.vendor, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def events_by_cwe(
    events: Iterable[ExploitEvent],
) -> List[Tuple[str, int]]:
    """Exploit events per weakness class, heaviest first."""
    from repro.datasets.catalog import CVE_PROFILES

    counts: Dict[str, int] = {}
    for event in events:
        profile = CVE_PROFILES.get(event.cve_id)
        if profile is None:
            continue
        counts[profile.cwe] = counts.get(profile.cwe, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))
