"""Differential oracle: the per-event artifact builders, frozen.

These are Table 5's and Figures 4, 6 and 7's builders as they were before
each one read its CVEs' timeline constants once:

* :func:`per_event_satisfaction` looks up every event's timeline and
  re-evaluates ``timeline.time(E)`` / ``satisfied_by(timeline)`` for every
  event × desideratum, keying its counts by ``Desideratum.label``;
* :func:`unique_cve_bins`, :func:`exposure_cdf` and
  :func:`events_relative_to_publication` look up P (and, for Figure 6, D)
  through the timeline once per event, and Figure 6 writes its flag once
  per event;
* :func:`events_over_study` (Figure 3) calls ``to_days`` once per event;
* :func:`downsample_cdf` builds the whole ``Ecdf.series()`` and then
  samples it.

They are kept verbatim so tests can assert the rewritten builders return
equal values on any input.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.desiderata import DESIDERATA
from repro.core.exposure import CveBin
from repro.core.skill import PAPER_BASELINES, SkillReport
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.lifecycle.events import A, CveTimeline, D, P
from repro.lifecycle.exploit_events import ExploitEvent
from repro.reporting.figures import FigureSeries
from repro.util.stats import Ecdf, bin_counts
from repro.util.timeutil import TimeWindow, to_days


def per_event_satisfaction(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
    *,
    baselines: Optional[Mapping[str, float]] = None,
) -> List[SkillReport]:
    resolved = dict(baselines) if baselines is not None else dict(PAPER_BASELINES)
    counts: Dict[str, List[int]] = {
        desideratum.label: [0, 0] for desideratum in DESIDERATA
    }
    for event in events:
        timeline = timelines.get(event.cve_id)
        if timeline is None:
            continue
        for desideratum in DESIDERATA:
            if desideratum.second is A:
                other = timeline.time(desideratum.first)
                if other is None:
                    continue
                outcome = other < event.timestamp
            else:
                cve_outcome = desideratum.satisfied_by(timeline)
                if cve_outcome is None:
                    continue
                outcome = cve_outcome
            bucket = counts[desideratum.label]
            bucket[1] += 1
            bucket[0] += int(outcome)
    return [
        SkillReport(
            desideratum=desideratum,
            satisfied=counts[desideratum.label][0],
            evaluated=counts[desideratum.label][1],
            baseline=resolved[desideratum.label],
        )
        for desideratum in DESIDERATA
    ]


def _days_since_publication(
    event: ExploitEvent, timelines: Mapping[str, CveTimeline]
) -> Optional[float]:
    timeline = timelines.get(event.cve_id)
    if timeline is None:
        return None
    published = timeline.time(P)
    if published is None:
        return None
    return to_days(event.timestamp - published)


def unique_cve_bins(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
    *,
    bin_days: float = 5.0,
    lo_days: float = -60.0,
    hi_days: float = 400.0,
) -> List[CveBin]:
    per_bin: Dict[float, Dict[str, bool]] = {}
    for event in events:
        days = _days_since_publication(event, timelines)
        if days is None or not lo_days <= days < hi_days:
            continue
        bin_start = lo_days + bin_days * int((days - lo_days) // bin_days)
        cves = per_bin.setdefault(bin_start, {})
        timeline = timelines[event.cve_id]
        deployed = timeline.time(D)
        published = timeline.time(P)
        rule_available = (
            deployed is not None
            and published is not None
            and to_days(deployed - published) < bin_start + bin_days
        )
        cves[event.cve_id] = rule_available
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
    mitigated: List[float] = []
    unmitigated: List[float] = []
    for event in events:
        days = _days_since_publication(event, timelines)
        if days is None:
            continue
        (mitigated if event.mitigated else unmitigated).append(days)
    return Ecdf.from_values(mitigated), Ecdf.from_values(unmitigated)


def unmitigated_half_life_days(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
) -> float:
    _, unmitigated = exposure_cdf(events, timelines)
    if unmitigated.n == 0:
        raise ValueError("no unmitigated events")
    return unmitigated.quantile(0.5)


def events_over_study(
    events: Iterable[ExploitEvent],
    *,
    window: TimeWindow = STUDY_WINDOW,
    bin_days: float = 30.0,
) -> List[Tuple[float, int]]:
    offsets = [to_days(event.timestamp - window.start) for event in events]
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
    offsets: List[float] = []
    for event in events:
        timeline = timelines.get(event.cve_id)
        if timeline is None:
            continue
        published = timeline.time(P)
        if published is None:
            continue
        offsets.append(to_days(event.timestamp - published))
    return bin_counts(offsets, bin_width=bin_days, lo=lo_days, hi=hi_days)


def downsample_cdf(cdf: Ecdf, *, points: int = 200) -> FigureSeries:
    series = cdf.series()
    if len(series) <= points:
        return FigureSeries(name="cdf", points=series)
    step = (len(series) - 1) / (points - 1)
    sampled = [series[round(i * step)] for i in range(points)]
    return FigureSeries(name="cdf", points=sampled)
