"""CVE impact distributions (Figure 2).

The paper compares CVSS CDFs across three populations: the 63 studied CVEs
(median 9.8 — the telescope's network-exploitable vantage point skews
high), CISA KEV (high-skewed but broader), and all CVEs published
2021-2023 (the familiar NVD mix peaking in the HIGH band).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.datasets.loader import DatasetBundle
from repro.util.stats import Ecdf


@dataclass(frozen=True)
class ImpactCdfs:
    """The three Figure 2 curves."""

    studied: Ecdf
    kev: Ecdf
    all_cves: Ecdf

    def medians(self) -> Dict[str, float]:
        return {
            "studied": self.studied.quantile(0.5),
            "kev": self.kev.quantile(0.5),
            "all": self.all_cves.quantile(0.5),
        }

    def critical_share(self, threshold: float = 9.0) -> Dict[str, float]:
        """Fraction of each population at or above a CVSS threshold."""
        return {
            "studied": 1.0 - self.studied.at(threshold - 1e-9),
            "kev": 1.0 - self.kev.at(threshold - 1e-9),
            "all": 1.0 - self.all_cves.at(threshold - 1e-9),
        }


def impact_cdfs(bundle: DatasetBundle) -> ImpactCdfs:
    """Build the Figure 2 CDFs from a dataset bundle."""
    studied = Ecdf.from_values(seed.impact for seed in bundle.studied)
    kev = Ecdf.from_values(
        bundle.kev_cvss[entry.cve_id] for entry in bundle.kev
    )
    all_cves = Ecdf.from_values(bundle.nvd_background)
    return ImpactCdfs(studied=studied, kev=kev, all_cves=all_cves)
