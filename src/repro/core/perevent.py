"""Per-event desideratum satisfaction (paper Section 6.2, Table 5).

The per-CVE analysis treats each lifecycle event as a point in time, but
exposure is proportional to *traffic*: a CVE attacked once before its fix
and ten thousand times after is well-defended in practice.  Here each
exploit event is scored individually — the event's own timestamp stands in
for A, while V, F, P, D, X come from the CVE's timeline — and desiderata
rates are computed over events rather than CVEs.

This is how the paper finds D < A effective 95% of the time against 56%
per-CVE (Finding 10).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional

import numpy as np

from repro.core.desiderata import DESIDERATA
from repro.core.skill import PAPER_BASELINES, SkillReport
from repro.lifecycle.events import A, CveTimeline
from repro.lifecycle.exploit_events import EventTable, ExploitEvent
from repro.util.timeutil import zoned_micros


def per_event_satisfaction(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
    *,
    baselines: Optional[Mapping[str, float]] = None,
) -> List[SkillReport]:
    """Evaluate desiderata per exploit event (Table 5).

    For desiderata of the form ``E < A`` the event's timestamp is the A
    instance; desiderata not involving A (``F < P`` etc.) are constant per
    CVE and weighted by that CVE's event count, matching the paper's
    per-event aggregation.

    Each CVE's timeline is read once: its events are one time slice of
    the :class:`EventTable`, so the events satisfying ``E < A`` are the
    ones after the last timestamp ``<= time(E)`` (ties stay unsatisfied).
    """
    resolved = dict(baselines) if baselines is not None else dict(PAPER_BASELINES)
    satisfied = [0] * len(DESIDERATA)
    evaluated = [0] * len(DESIDERATA)
    for cve_id, group in EventTable.pack(events).by_cve().items():
        timeline = timelines.get(cve_id)
        if timeline is None:
            continue
        times = group.columns["t"]
        n = len(group)
        for index, desideratum in enumerate(DESIDERATA):
            if desideratum.second is A:
                other = timeline.time(desideratum.first)
                if other is None:
                    continue
                (bound,), _ = zoned_micros([other])
                hits = n - int(np.searchsorted(times, bound, side="right"))
            else:
                outcome = desideratum.satisfied_by(timeline)
                if outcome is None:
                    continue
                hits = n if outcome else 0
            evaluated[index] += n
            satisfied[index] += hits
    return [
        SkillReport(
            desideratum=desideratum,
            satisfied=satisfied[index],
            evaluated=evaluated[index],
            baseline=resolved[desideratum.label],
        )
        for index, desideratum in enumerate(DESIDERATA)
    ]


def per_event_table(reports: Iterable[SkillReport]) -> List[List[object]]:
    """Rows in the paper's Table 5 layout."""
    rows: List[List[object]] = []
    for report in reports:
        observed = report.observed
        rows.append(
            [
                report.desideratum.label,
                "~1.00" if observed > 0.995 else round(observed, 2),
                round(report.baseline, 2 if report.baseline >= 0.05 else 3),
                round(report.skill, 2),
            ]
        )
    return rows
