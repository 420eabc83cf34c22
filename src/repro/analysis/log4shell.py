"""The Log4Shell case study (Section 7.1: Figures 8-9, Table 6).

CVE-2021-44228's campaign is analysed at signature granularity: the
fifteen Table 6 SIDs partition the traffic into variants, whose staggered
appearance shows adversaries iterating obfuscations against deployed
defenses (Finding 14), while the overall session CDF shows the
burst-then-tail shape with a late resurgence (Finding 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.datasets.seed_cves import seed_by_id
from repro.datasets.seed_log4shell import (
    LOG4SHELL_CVE,
    LOG4SHELL_VARIANTS,
    variant_groups,
)
from repro.lifecycle.exploit_events import EventTable, ExploitEvent
from repro.util.stats import Ecdf
from repro.util.timeutil import TimeWindow, utc, zoned_micros


@dataclass(frozen=True)
class VariantObservation:
    """Measured Table 6 row: a SID's first attack relative to its rule."""

    sid: int
    group: str
    context: str
    match: str
    adaptation: Optional[str]
    events: int
    first_attack_minus_rule_days: Optional[float]


@dataclass(frozen=True)
class Log4ShellAnalysis:
    """All Section 7.1 quantities."""

    total_events: int
    sessions_cdf: Ecdf
    group_cdfs_december: Dict[str, Ecdf]
    variants: List[VariantObservation]
    resurgence_share_after_300d: float

    @property
    def first_week_share(self) -> float:
        """Fraction of sessions within a week of publication."""
        return self.sessions_cdf.at(7.0)


def analyse_log4shell(
    events: Mapping[str, Sequence[ExploitEvent]],
) -> Log4ShellAnalysis:
    """Analyse a study run's Log4Shell events (keyed by CVE id), from the
    campaign's :class:`EventTable` columns."""
    campaign = EventTable.pack(events.get(LOG4SHELL_CVE, ()))
    published = seed_by_id(LOG4SHELL_CVE).published

    offsets = campaign.days_since(published)
    sessions_cdf = Ecdf.from_values(offsets)

    # Figure 9: variant-group CDFs during December 2021.
    december = TimeWindow(utc(2021, 12, 1), utc(2022, 1, 1))
    (begin, end), _ = zoned_micros([december.start, december.end])
    times = campaign.columns["t"]
    sids = campaign.columns["sid"]
    in_december = (times >= begin) & (times < end)
    december_days = campaign.days_since(december.start)
    sid_to_group = {variant.sid: variant.group for variant in LOG4SHELL_VARIANTS}
    group_offsets: Dict[str, List[np.ndarray]] = {g: [] for g in variant_groups()}
    for sid, group in sid_to_group.items():
        rows = in_december & (sids == sid)
        if rows.any():
            group_offsets[group].append(december_days[rows])
    group_cdfs = {
        group: Ecdf.from_values(np.concatenate(values))
        for group, values in group_offsets.items()
        if values
    }

    variants: List[VariantObservation] = []
    for variant in LOG4SHELL_VARIANTS:
        rows = sids == variant.sid
        count = int(rows.sum())
        first_delta: Optional[float] = None
        if count:
            # Days are monotonic in time: the first event's is the minimum.
            rule_time = published + variant.rule_offset
            first_delta = float(campaign.days_since(rule_time)[rows].min())
        variants.append(
            VariantObservation(
                sid=variant.sid,
                group=variant.group,
                context=variant.context,
                match=variant.match,
                adaptation=variant.adaptation,
                events=count,
                first_attack_minus_rule_days=first_delta,
            )
        )

    late = int((offsets > 300.0).sum())
    resurgence = late / int(offsets.size) if offsets.size else 0.0

    return Log4ShellAnalysis(
        total_events=len(campaign),
        sessions_cdf=sessions_cdf,
        group_cdfs_december=group_cdfs,
        variants=variants,
        resurgence_share_after_300d=resurgence,
    )


def table6_rows(analysis: Log4ShellAnalysis) -> List[List[object]]:
    """Measured Table 6 in the paper's layout (group, SID, A − D, ...)."""
    rows: List[List[object]] = []
    for variant in analysis.variants:
        rows.append(
            [
                variant.group,
                variant.sid,
                None
                if variant.first_attack_minus_rule_days is None
                else round(variant.first_attack_minus_rule_days, 1),
                variant.context,
                variant.match,
                variant.adaptation or "",
                variant.events,
            ]
        )
    return rows
