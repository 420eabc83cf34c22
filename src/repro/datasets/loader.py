"""Bundle builder: one call that assembles every dataset the study merges.

:class:`DatasetBundle` is the reproduction's equivalent of the paper's
Table 2 — each field is one data source, and downstream stages (lifecycle
assembly, analyses, benchmarks) consume the bundle rather than the
individual builders.  Sources are pluggable: :func:`build_bundle` consumes
a :class:`repro.datasets.sources.DatasetPlan` mapping each slot to a
:class:`~repro.datasets.sources.DatasetSource`, so swapping a synthetic
feed for a real one is a plan change, not a code change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.catalog import CVE_PROFILES, CveProfile
from repro.datasets.kev import kev_cvss_scores
from repro.datasets.records import (
    CveRecord,
    ExploitEvidence,
    KevEntry,
    RuleHistoryEntry,
    TalosReport,
)
from repro.datasets.seed_cves import SEED_CVES, SeedCve
from repro.datasets.sources import DEFAULT_SEED, DatasetPlan  # noqa: F401  re-exported
from repro.datasets.suciu import evidence_index
from repro.datasets.talos import rule_index
from repro.util.timeutil import TimeWindow


@dataclass
class DatasetBundle:
    """All data sources for one study run (paper Table 2)."""

    window: TimeWindow
    seed: int
    studied: List[SeedCve]
    nvd: List[CveRecord]
    #: CVSS scores of the "all CVEs" population (Figure 2), in fetch order.
    #: A tuple, not an ndarray, so bundles compare with ``==``.
    nvd_background: Tuple[float, ...]
    kev: List[KevEntry]
    kev_cvss: Dict[str, float]
    rule_history: List[RuleHistoryEntry]
    talos_reports: List[TalosReport]
    exploit_evidence: List[ExploitEvidence]

    def profile(self, cve_id: str) -> CveProfile:
        """Categorical catalog entry for a studied CVE."""
        return CVE_PROFILES[cve_id]

    @property
    def rules_by_cve(self) -> Dict[str, RuleHistoryEntry]:
        return rule_index(self.rule_history)

    @property
    def evidence_by_cve(self) -> Dict[str, ExploitEvidence]:
        return evidence_index(self.exploit_evidence)

    @property
    def kev_by_cve(self) -> Dict[str, KevEntry]:
        return {entry.cve_id: entry for entry in self.kev}

    @property
    def reports_by_cve(self) -> Dict[str, TalosReport]:
        return {report.cve_id: report for report in self.talos_reports}


def build_bundle(plan: DatasetPlan) -> DatasetBundle:
    """Assemble the study bundle by fetching every source in ``plan``.

    Cross-source derivations stay here: KEV CVSS scores are assigned from
    the plan seed over whatever KEV entries the source produced, and KEV
    entries missing a ``published`` date (real feeds don't carry one) are
    backfilled from the NVD slot when possible.  The background CVSS column
    is range-checked as a whole, the check a record's ``__post_init__``
    makes per score.
    """
    kev_entries = list(plan.sources["kev"].fetch())
    nvd_records = list(plan.sources["nvd"].fetch())
    published_by_cve = {record.cve_id: record.published for record in nvd_records}
    kev_entries = [
        entry
        if entry.published is not None
        else KevEntry(
            cve_id=entry.cve_id,
            date_added=entry.date_added,
            published=published_by_cve.get(entry.cve_id),
            vendor=entry.vendor,
            product=entry.product,
        )
        for entry in kev_entries
    ]
    background = tuple(plan.sources["nvd_background"].fetch())
    scores = np.asarray(background)
    outside = ~((scores >= 0.0) & (scores <= 10.0))  # NaN is outside too
    if outside.any():
        score = background[int(outside.argmax())]
        raise ValueError(f"nvd_background CVSS out of range: {score}")
    return DatasetBundle(
        window=plan.window,
        seed=plan.seed,
        studied=list(SEED_CVES),
        nvd=nvd_records,
        nvd_background=background,
        kev=kev_entries,
        kev_cvss=kev_cvss_scores(kev_entries, seed=plan.seed),
        rule_history=list(plan.sources["rule_history"].fetch()),
        talos_reports=list(plan.sources["talos_reports"].fetch()),
        exploit_evidence=list(plan.sources["exploit_evidence"].fetch()),
    )
