"""Dataset layer: record schemata, paper-derived seed tables, and synthetic
builders for the six data sources the paper merges.

The paper's raw inputs (two years of DSCOPE pcap, the commercial Talos
ruleset, crawled Talos/NVD/KEV/Suciu feeds) are proprietary or unavailable;
per the reproduction plan (DESIGN.md §2) we rebuild each source
synthetically, *seeded by the paper's own published per-CVE table*
(Appendix E) so that every downstream lifecycle statistic is pinned to the
paper's measurements.
"""

from repro.datasets.records import (
    CveRecord,
    ExploitEvidence,
    KevEntry,
    RuleHistoryEntry,
    TalosReport,
)
from repro.datasets.seed_cves import SEED_CVES, SeedCve, STUDY_WINDOW
from repro.datasets.seed_log4shell import LOG4SHELL_VARIANTS, Log4ShellVariant
from repro.datasets.loader import DatasetBundle, build_bundle
from repro.datasets.sources import (
    DatasetPlan,
    DatasetSource,
    default_plan,
)

__all__ = [
    "CveRecord",
    "ExploitEvidence",
    "KevEntry",
    "RuleHistoryEntry",
    "TalosReport",
    "SEED_CVES",
    "SeedCve",
    "STUDY_WINDOW",
    "LOG4SHELL_VARIANTS",
    "Log4ShellVariant",
    "DatasetBundle",
    "DatasetPlan",
    "DatasetSource",
    "build_bundle",
    "default_plan",
]
