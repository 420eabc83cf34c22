"""Vectorized read-side aggregations over a :class:`ColumnarStudy`.

Every kernel here answers a question the analysis layer already answers
from dataclasses — window deltas and CDFs (:mod:`repro.core.windows`), the
skill table (:mod:`repro.core.skill`), vendor rollups
(:mod:`repro.analysis.vendors`), the KEV comparison
(:mod:`repro.analysis.kev_compare`), the live A-before-P rate
(:mod:`repro.analysis.streaming`) — but as array reductions over the
packed columns, without touching a Python object per CVE or per event.

The contract, enforced by the equivalence tests, is **value identity**,
not just approximation:

* day gaps are computed as ``(delta_us / 1e6) / 86400.0`` — exactly the
  arithmetic ``timedelta.total_seconds() / 86400.0`` performs, so every
  float matches the dataclass path bit for bit;
* samples are collected in the same order the dataclass path collects
  them (timeline-dict order for deltas, sorted-CVE order for the KEV
  overlap), so the resulting :class:`Ecdf` objects are equal element for
  element;
* rollups construct the *same dataclasses* (:class:`SkillReport`,
  :class:`CategorySummary`, :class:`KevComparison`) from vectorized
  counts, so every derived property (skill, rates, medians) agrees by
  construction.
"""

from __future__ import annotations

import statistics
from datetime import datetime
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.kev_compare import KevComparison
from repro.analysis.vendors import CategorySummary
from repro.core.desiderata import DESIDERATA
from repro.core.skill import SkillReport, _resolve_baselines
from repro.datasets.catalog import VENDOR_CATEGORY_KINDS
from repro.lifecycle.events import LifecycleEvent
from repro.lifecycle.exploit_events import earliest_micros
from repro.store.columnar import MISSING, ColumnarStudy, from_micros
from repro.util.stats import Ecdf
from repro.util.timeutil import days_column

_US_PER_SECOND = 1e6
_SECONDS_PER_DAY = 86400.0


def delta_days(
    study: ColumnarStudy, later: LifecycleEvent, earlier: LifecycleEvent
) -> np.ndarray:
    """The "later − earlier" gap in days per timeline with both known.

    Same values in the same (timeline) order as
    :func:`repro.core.windows.delta_series`.
    """
    late = study.timeline_times(later.value)
    early = study.timeline_times(earlier.value)
    known = (late != MISSING) & (early != MISSING)
    return days_column(late[known] - early[known])


def window_cdf(
    study: ColumnarStudy, later: LifecycleEvent, earlier: LifecycleEvent
) -> Ecdf:
    """The gap CDF (equal to :func:`repro.core.windows.window_cdf`)."""
    return Ecdf.from_values(delta_days(study, later, earlier))


def narrow_violations(
    study: ColumnarStudy,
    later: LifecycleEvent,
    earlier: LifecycleEvent,
    *,
    within_days: float = 30.0,
) -> Tuple[int, int]:
    """(violations within the window, total violations) — Finding 5."""
    gaps = delta_days(study, later, earlier)
    violations = gaps[gaps <= 0]
    return int((violations > -within_days).sum()), int(violations.size)


def satisfaction_counts(study: ColumnarStudy) -> Dict[str, Tuple[int, int]]:
    """(satisfied, evaluated) per desideratum label, over all timelines.

    One strict-< comparison per desideratum over the whole timeline set;
    counts equal a :func:`repro.core.skill.compute_skill` pass.
    """
    counts: Dict[str, Tuple[int, int]] = {}
    for desideratum in DESIDERATA:
        first = study.timeline_times(desideratum.first.value)
        second = study.timeline_times(desideratum.second.value)
        known = (first != MISSING) & (second != MISSING)
        satisfied = int((first[known] < second[known]).sum())
        counts[desideratum.label] = (satisfied, int(known.sum()))
    return counts


def skill_rollup(
    study: ColumnarStudy,
    *,
    baselines: Optional[Mapping[str, float]] = None,
) -> List[SkillReport]:
    """Table 4 from columns: the same :class:`SkillReport` rows
    :func:`repro.core.skill.compute_skill` builds from timelines."""
    resolved = _resolve_baselines(baselines, None)
    counts = satisfaction_counts(study)
    return [
        SkillReport(
            desideratum=desideratum,
            satisfied=counts[desideratum.label][0],
            evaluated=counts[desideratum.label][1],
            baseline=resolved[desideratum.label],
        )
        for desideratum in DESIDERATA
    ]


def a_before_p_rate(study: ColumnarStudy) -> Optional[float]:
    """The headline zero-day rate: share of timelines (both events known)
    whose first attack precedes publication.  None when nothing is known —
    matching :attr:`repro.analysis.streaming.StudySnapshot.a_before_p_rate`.
    """
    attack = study.timeline_times("A")
    public = study.timeline_times("P")
    known = (attack != MISSING) & (public != MISSING)
    evaluated = int(known.sum())
    if evaluated == 0:
        return None
    return int((attack[known] < public[known]).sum()) / evaluated


def vendor_rollup(study: ColumnarStudy) -> List[CategorySummary]:
    """Per-vendor-category CVD outcomes, equal to
    :func:`repro.analysis.vendors.category_summaries`.

    Medians go through ``statistics.median`` on the masked day gaps so
    even the two-middle averaging matches the dataclass path exactly.
    """
    category_col = study.col("timeline_category")
    deployed = study.timeline_times("D")
    public = study.timeline_times("P")
    attack = study.timeline_times("A")
    lag_known = (deployed != MISSING) & (public != MISSING)
    outcome_known = (deployed != MISSING) & (attack != MISSING)

    summaries: List[CategorySummary] = []
    for category in VENDOR_CATEGORY_KINDS:
        try:
            index = study.categories.index(category)
        except ValueError:
            members = np.zeros(category_col.shape, dtype=bool)
        else:
            members = category_col == index
        lag_rows = members & lag_known
        lags = days_column(deployed[lag_rows] - public[lag_rows])
        outcome_rows = members & outcome_known
        evaluated = int(outcome_rows.sum())
        defense_first = int(
            (deployed[outcome_rows] < attack[outcome_rows]).sum()
        )
        summaries.append(
            CategorySummary(
                category=category,
                cves=int(members.sum()),
                median_fix_lag_days=(
                    statistics.median([float(lag) for lag in lags])
                    if lags.size else None
                ),
                defense_first_rate=(
                    defense_first / evaluated if evaluated else None
                ),
                pre_publication_rules=int((lags < 0).sum()),
            )
        )
    return summaries


def first_attack_micros(study: ColumnarStudy) -> Dict[int, int]:
    """Earliest kept-event timestamp (µs) per CVE table index.

    The shard's side of
    :meth:`repro.lifecycle.exploit_events.EventTable.first_attacks` over
    kept events, through the same reduction.
    """
    return earliest_micros(
        study.col("event_cve"), study.col("event_t"), len(study.cves)
    )


def first_attacks(study: ColumnarStudy) -> Dict[str, datetime]:
    """:func:`first_attack_micros` with CVE ids and datetimes."""
    return {
        study.cves[index]: from_micros(stamp)  # type: ignore[misc]
        for index, stamp in first_attack_micros(study).items()
    }


def kev_rollup(study: ColumnarStudy) -> KevComparison:
    """The Section 7.2 comparison from columns, equal to
    :func:`repro.analysis.kev_compare.compare_with_kev` over the study's
    measured first attacks."""
    kev_cve = study.col("kev_cve")
    kev_added = study.col("kev_added")
    kev_published = study.col("kev_published")

    published_known = kev_published != MISSING
    a_minus_p = days_column(
        kev_added[published_known] - kev_published[published_known]
    )

    # Later catalog rows override earlier ones for the same CVE, exactly
    # like the ``{entry.cve_id: entry}`` dict the dataclass path joins on.
    added_by_index: Dict[int, int] = {
        int(index): int(added)
        for index, added in zip(kev_cve, kev_added)
    }

    firsts = first_attack_micros(study)
    by_id = sorted(
        (study.cves[index], index, stamp)
        for index, stamp in firsts.items()
    )
    overlap: List[str] = []
    deltas: List[float] = []
    for cve_id, index, first_seen in by_id:
        added = added_by_index.get(index)
        if added is None:
            continue
        overlap.append(cve_id)
        deltas.append(
            ((first_seen - added) / _US_PER_SECOND) / _SECONDS_PER_DAY
        )

    studied = study.col("cve_studied")
    dscope_only = sorted(
        cve_id
        for cve_id, index, _ in by_id
        if studied[index] and index not in added_by_index
    )
    return KevComparison(
        kev_in_window=study.n_kev,
        overlap_cves=overlap,
        dscope_only_cves=dscope_only,
        kev_a_minus_p=Ecdf.from_values(a_minus_p),
        first_seen_delta=Ecdf.from_values(deltas),
    )


def kept_cves(study: ColumnarStudy) -> List[str]:
    """CVEs surviving root-cause analysis, sorted (``StudyResult.kept_cves``)."""
    rca_cve = study.col("rca_cve")
    rca_kept = study.col("rca_kept")
    return sorted(study.cves[int(index)] for index in rca_cve[rca_kept == 1])


def dropped_cves(study: ColumnarStudy) -> List[str]:
    """CVEs pruned as signature false positives, sorted."""
    rca_cve = study.col("rca_cve")
    rca_kept = study.col("rca_kept")
    return sorted(study.cves[int(index)] for index in rca_cve[rca_kept == 0])


def mitigated_share(study: ColumnarStudy) -> Optional[float]:
    """Per-event mitigated share over kept events (None when no events)."""
    mitigated = study.col("event_mitigated")
    if mitigated.size == 0:
        return None
    return int(mitigated.sum()) / int(mitigated.size)
