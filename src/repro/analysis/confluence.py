"""The Atlassian Confluence case study (Appendix C, Figure 12).

CVE-2022-26134 validates the aggregate findings on a single mass-exploited
CVE: a post-publication burst with IDS mitigation deployed quickly enough
that nearly all exploit sessions were coverable (the paper reports 99.6%
mitigated), plus a *growing* rate of exploitation into the present as
adversaries target legacy installs (Finding 18).

The related CVE-2022-28938 exhibits Finding 19's untargeted-exploitation
phenomenon: OGNL-injection traffic matching the signature long before
publication, not aimed at Confluence's port — general-purpose scanning for
a weakness class that happens to trigger a specific product's bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.datasets.seed_cves import seed_by_id
from repro.lifecycle.exploit_events import EventTable, ExploitEvent
from repro.util.stats import Ecdf
from repro.util.timeutil import zoned_micros

CONFLUENCE_CVE = "CVE-2022-26134"
EARLY_OGNL_CVE = "CVE-2022-28938"
CONFLUENCE_PORT = 8090


@dataclass(frozen=True)
class ConfluenceAnalysis:
    """All Appendix C quantities."""

    total_sessions: int
    sessions_cdf: Ecdf
    mitigated_share: float
    late_half_share: float
    early_ognl_events: int
    early_ognl_on_confluence_port: int

    @property
    def early_ognl_untargeted(self) -> bool:
        """Finding 19: leading OGNL traffic did not target Confluence's
        port, so the scanning was generic rather than product-specific."""
        if self.early_ognl_events == 0:
            return False
        return (
            self.early_ognl_on_confluence_port / self.early_ognl_events < 0.5
        )


def analyse_confluence(
    events: Mapping[str, Sequence[ExploitEvent]],
) -> ConfluenceAnalysis:
    """Analyse a study run's Confluence events (keyed by CVE id), from the
    :class:`EventTable` columns."""
    campaign = EventTable.pack(events.get(CONFLUENCE_CVE, ()))
    offsets = campaign.days_since(seed_by_id(CONFLUENCE_CVE).published)
    cdf = Ecdf.from_values(offsets)

    total = len(campaign)
    mitigated = (
        int(campaign.columns["mitigated"].sum()) / total if total else 0.0
    )
    # Finding 18's "increasing rate to date": share of sessions in the
    # second half of the CVE's post-publication lifetime.
    if total:
        horizon = float(offsets.max())
        late_half = int((offsets > horizon / 2).sum())
        late_share = late_half / total
    else:
        late_share = 0.0

    ognl = EventTable.pack(events.get(EARLY_OGNL_CVE, ()))
    (published,), _ = zoned_micros([seed_by_id(EARLY_OGNL_CVE).published])
    early = ognl.columns["t"] < published
    on_port = int((ognl.columns["dst_port"][early] == CONFLUENCE_PORT).sum())

    return ConfluenceAnalysis(
        total_sessions=total,
        sessions_cdf=cdf,
        mitigated_share=mitigated,
        late_half_share=late_share,
        early_ognl_events=int(early.sum()),
        early_ognl_on_confluence_port=on_port,
    )
