#!/usr/bin/env python3
"""Early warning: telescope observations vs the CISA KEV catalog.

Reproduces Section 7.2: for CVEs present in both datasets, how much earlier
(or later) did the telescope observe first exploitation than the official
Known Exploited Vulnerabilities catalog recorded it?  The paper's headline:
DSCOPE sees 59% of overlapping CVEs first, half of them more than 30 days
before the KEV addition — telescopes as an early-warning feed for
vulnerability prioritisation.

    python examples/kev_early_warning.py
"""

import argparse

from repro import StudyConfig, run_study
from repro.analysis.kev_compare import compare_with_kev
from repro.util.tables import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--top", type=int, default=12,
                        help="rows of the largest leads to print")
    args = parser.parse_args()

    print(f"running study (volume scale {args.scale}) ...")
    result = run_study(StudyConfig(volume_scale=args.scale,
                                   background_nvd_count=2000))
    firsts = result.kept_events.first_attacks()
    comparison = compare_with_kev(result.bundle, firsts)

    print(f"\nKEV entries published in the study window: "
          f"{comparison.kev_in_window}")
    print(f"studied CVEs also in KEV: {comparison.overlap_count} "
          f"(DSCOPE-only: {len(comparison.dscope_only_cves)})")
    print(f"telescope saw exploitation first: "
          f"{comparison.dscope_first_rate:.0%}  (paper: 59%)")
    print(f"telescope over 30 days earlier: "
          f"{comparison.dscope_month_earlier_rate:.0%}  (paper: 50%)")
    print(f"KEV additions predating NVD publication: "
          f"{comparison.kev_pre_publication_rate:.0%}  (paper: 18%)")

    kev_by_cve = result.bundle.kev_by_cve
    leads = []
    for cve_id in comparison.overlap_cves:
        delta_days = (firsts[cve_id] - kev_by_cve[cve_id].date_added).days
        leads.append((delta_days, cve_id))
    leads.sort()

    rows = [
        [cve_id, firsts[cve_id].date(), kev_by_cve[cve_id].date_added.date(),
         f"{-delta}d earlier" if delta < 0 else f"{delta}d later"]
        for delta, cve_id in leads[: args.top]
    ]
    print()
    print(render_table(
        ["CVE", "first telescope attack", "KEV addition", "telescope lead"],
        rows,
        title=f"Largest telescope leads over KEV (top {args.top})",
    ))


if __name__ == "__main__":
    main()
