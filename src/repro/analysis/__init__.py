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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.pipeline": ("StudyConfig", "StudyResult", "run_study"),
    "repro.analysis.trends": (
        "events_over_study", "events_relative_to_publication",
        "observed_cves_by_publication", "study_headline_stats",
    ),
    "repro.analysis.impact": ("impact_cdfs",),
    "repro.analysis.kev_compare": ("KevComparison", "compare_with_kev"),
    "repro.analysis.log4shell": ("Log4ShellAnalysis", "analyse_log4shell"),
    "repro.analysis.confluence": ("ConfluenceAnalysis", "analyse_confluence"),
    "repro.analysis.vendors": ("category_summaries", "sophistication_gap_days"),
    "repro.analysis.evolution": ("cohort_skills",),
    "repro.analysis.coverage": ("attribution_quality",),
})
