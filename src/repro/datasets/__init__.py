"""Dataset layer: record schemata, paper-derived seed tables, and synthetic
builders for the six data sources the paper merges.

The paper's raw inputs (two years of DSCOPE pcap, the commercial Talos
ruleset, crawled Talos/NVD/KEV/Suciu feeds) are proprietary or unavailable;
per the reproduction plan (DESIGN.md §2) we rebuild each source
synthetically, *seeded by the paper's own published per-CVE table*
(Appendix E) so that every downstream lifecycle statistic is pinned to the
paper's measurements.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.datasets.records": (
        "CveRecord", "ExploitEvidence", "KevEntry", "RuleHistoryEntry", "TalosReport",
    ),
    "repro.datasets.seed_cves": ("SEED_CVES", "SeedCve", "STUDY_WINDOW"),
    "repro.datasets.seed_log4shell": ("LOG4SHELL_VARIANTS", "Log4ShellVariant"),
    "repro.datasets.loader": ("DatasetBundle", "build_bundle"),
    "repro.datasets.sources": ("DatasetPlan", "DatasetSource", "default_plan"),
})
