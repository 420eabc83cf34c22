"""Mitigated vs unmitigated exposure over time (Section 6.2.1).

Two views of the same segmentation:

* :func:`unique_cve_bins` — Figure 6: in each 5-day bin after publication,
  how many *distinct* CVEs were targeted, split by whether an IDS rule was
  deployed during that bin;
* :func:`exposure_cdf` — Figure 7: the cumulative count of exploit
  *events* since publication, split by whether the matched signature was
  already deployed when the traffic arrived.

Finding 12's headline — 50% of unmitigated exposure lands within 30 days of
publication — falls out of the unmitigated CDF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.lifecycle.events import CveTimeline, D, P, known_times
from repro.lifecycle.exploit_events import ExploitEvent
from repro.util.stats import Ecdf
from repro.util.timeutil import to_days


@dataclass(frozen=True)
class CveBin(object):
    """One Figure 6 bar: a 5-day bin's distinct-CVE counts."""

    bin_start_days: float
    mitigated_cves: int
    unmitigated_cves: int

    @property
    def total(self) -> int:
        return self.mitigated_cves + self.unmitigated_cves


def unique_cve_bins(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
    *,
    bin_days: float = 5.0,
    lo_days: float = -60.0,
    hi_days: float = 400.0,
) -> List[CveBin]:
    """Distinct targeted CVEs per publication-relative bin (Figure 6).

    Following the caption — "CVEs are separated based on whether an IDS
    rule is available during that bin" — a CVE counts as *mitigated* in a
    bin when its rule deployment D falls before the bin's end, regardless
    of individual event flags.
    """
    published = known_times(timelines, P)
    deployed = known_times(timelines, D)
    rule_days = {
        cve_id: to_days(deployed[cve_id] - when)
        for cve_id, when in published.items()
        if cve_id in deployed
    }
    per_bin: Dict[float, Dict[str, bool]] = {}
    for event in events:
        cve_id = event.cve_id
        when = published.get(cve_id)
        if when is None:
            continue
        # to_days(event.timestamp - when), without the call per event
        days = (event.timestamp - when).total_seconds() / 86400.0
        if not lo_days <= days < hi_days:
            continue
        bin_start = lo_days + bin_days * int((days - lo_days) // bin_days)
        cves = per_bin.get(bin_start)
        if cves is None:
            cves = per_bin[bin_start] = {}
        # The flag depends on (bin, CVE) alone: set it once per pair.
        if cve_id not in cves:
            rule = rule_days.get(cve_id)
            cves[cve_id] = rule is not None and rule < bin_start + bin_days
    bins: List[CveBin] = []
    start = lo_days
    while start < hi_days:
        cves = per_bin.get(start, {})
        mitigated = sum(1 for flag in cves.values() if flag)
        bins.append(
            CveBin(
                bin_start_days=start,
                mitigated_cves=mitigated,
                unmitigated_cves=len(cves) - mitigated,
            )
        )
        start += bin_days
    return bins


def exposure_cdf(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
) -> Tuple[Ecdf, Ecdf]:
    """(mitigated, unmitigated) CDFs of events over days since publication
    (Figure 7)."""
    published = known_times(timelines, P)
    mitigated: List[float] = []
    unmitigated: List[float] = []
    for event in events:
        when = published.get(event.cve_id)
        if when is None:
            continue
        # to_days(event.timestamp - when), without the call per event
        (mitigated if event.mitigated else unmitigated).append(
            (event.timestamp - when).total_seconds() / 86400.0
        )
    return Ecdf.from_values(mitigated), Ecdf.from_values(unmitigated)


def mitigated_share(events: Iterable[ExploitEvent]) -> float:
    """Fraction of exploit events arriving after their signature deployed
    (the paper's "exploit traffic is prevented 95% of the time")."""
    events = list(events)
    if not events:
        raise ValueError("no exploit events")
    return sum(1 for event in events if event.mitigated) / len(events)


def unmitigated_half_life_days(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
) -> float:
    """Days after publication by which half the unmitigated exposure has
    occurred (Finding 12: ~30 days)."""
    return half_life_days(exposure_cdf(events, timelines)[1])


def half_life_days(unmitigated: Ecdf) -> float:
    """The median of an unmitigated exposure CDF (see
    :func:`unmitigated_half_life_days`)."""
    if unmitigated.n == 0:
        raise ValueError("no unmitigated events")
    return unmitigated.quantile(0.5)
