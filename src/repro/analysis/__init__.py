"""Study analyses: the code behind every figure and finding.

* :mod:`repro.analysis.pipeline` — the end-to-end study runner (traffic →
  telescope → NIDS → RCA → timelines), the reproduction's ``main()``.
* :mod:`repro.analysis.trends` — Section 4 general trends (Figures 1, 3, 4).
* :mod:`repro.analysis.impact` — CVSS impact CDFs (Figure 2).
* :mod:`repro.analysis.kev_compare` — the CISA KEV comparison (Section 7.2,
  Figures 10-11).
* :mod:`repro.analysis.log4shell` — the Log4Shell case study (Section 7.1,
  Figures 8-9, Table 6).
* :mod:`repro.analysis.confluence` — the Confluence case study (Appendix C,
  Figure 12).
"""

from repro.analysis.pipeline import StudyConfig, StudyResult, run_study
from repro.analysis.trends import (
    events_over_study,
    events_relative_to_publication,
    observed_cves_by_publication,
    study_headline_stats,
)
from repro.analysis.impact import impact_cdfs
from repro.analysis.kev_compare import KevComparison, compare_with_kev
from repro.analysis.log4shell import Log4ShellAnalysis, analyse_log4shell
from repro.analysis.confluence import ConfluenceAnalysis, analyse_confluence
from repro.analysis.vendors import category_summaries, sophistication_gap_days
from repro.analysis.evolution import cohort_skills
from repro.analysis.coverage import attribution_quality

__all__ = [
    "StudyConfig",
    "StudyResult",
    "run_study",
    "events_over_study",
    "events_relative_to_publication",
    "observed_cves_by_publication",
    "study_headline_stats",
    "impact_cdfs",
    "KevComparison",
    "compare_with_kev",
    "Log4ShellAnalysis",
    "analyse_log4shell",
    "ConfluenceAnalysis",
    "analyse_confluence",
    "category_summaries",
    "sophistication_gap_days",
    "cohort_skills",
    "attribution_quality",
]
