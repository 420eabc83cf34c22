"""Registry mapping experiment ids (table/figure numbers) to regeneration
functions.

Every function takes a :class:`~repro.analysis.pipeline.StudyResult` and
returns an :class:`ExperimentResult` holding the measured quantities next to
the paper's reported values, plus printable text in the paper's layout.
The benchmark harness (one bench per experiment) and EXPERIMENTS.md are both
driven from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.confluence import analyse_confluence
from repro.analysis.impact import impact_cdfs
from repro.analysis.kev_compare import compare_with_kev
from repro.analysis.log4shell import analyse_log4shell, table6_rows
from repro.analysis.pipeline import StudyResult
from repro.analysis.trends import (
    events_over_study,
    events_relative_to_publication,
    observed_cves_by_publication,
    study_headline_stats,
)
from repro.core.desiderata import desiderata_matrix
from repro.core.exposure import (
    exposure_cdf,
    half_life_days,
    mitigated_share,
    unique_cve_bins,
)
from repro.core.hypothetical import ids_vendor_inclusion_experiment
from repro.core.perevent import per_event_satisfaction
from repro.core.skill import compute_skill, mean_skill
from repro.core.windows import narrow_violations, violation_rate, window_cdf
from repro.lifecycle.events import A, D, F, P, V, X
from repro.reporting.figures import downsample_cdf, figure_series
from repro.reporting.tables import render_skill_table, render_table3, render_table6
from repro.util.tables import render_table


@dataclass
class ExperimentResult:
    """Outcome of regenerating one paper artifact."""

    experiment_id: str
    title: str
    paper: Dict[str, float]
    measured: Dict[str, float]
    text: str = ""

    def deviations(self) -> Dict[str, float]:
        """measured − paper for keys present in both."""
        return {
            key: self.measured[key] - self.paper[key]
            for key in self.paper
            if key in self.measured
        }


def _table3(result: StudyResult) -> ExperimentResult:
    text = render_table3("householder-spring") + "\n\n" + render_table3("this-work")
    return ExperimentResult(
        experiment_id="table3",
        title="Desiderata matrices (Householder-Spring vs this work)",
        paper={},
        measured={},
        text=text,
    )


def _table4(result: StudyResult) -> ExperimentResult:
    reports = compute_skill(result.timelines.values())
    measured = {report.desideratum.label: report.observed for report in reports}
    measured["mean skill"] = mean_skill(reports)
    paper = {
        "V < A": 0.90, "F < P": 0.13, "F < X": 0.74, "F < A": 0.56,
        "D < P": 0.13, "D < X": 0.74, "D < A": 0.56, "P < A": 0.90,
        "X < A": 0.39, "mean skill": 0.37,
    }
    return ExperimentResult(
        experiment_id="table4",
        title="Per-CVE desideratum satisfaction and skill",
        paper=paper,
        measured=measured,
        text=render_skill_table(reports, title="Table 4 (measured)"),
    )


def _table5(result: StudyResult) -> ExperimentResult:
    reports = per_event_satisfaction(result.kept_events, result.timelines)
    measured = {report.desideratum.label: report.observed for report in reports}
    paper = {
        "V < A": 1.00, "F < P": 0.01, "F < X": 0.54, "F < A": 0.95,
        "D < P": 0.01, "D < X": 0.54, "D < A": 0.95, "P < A": 0.99,
        "X < A": 0.95,
    }
    return ExperimentResult(
        experiment_id="table5",
        title="Per-event desideratum satisfaction",
        paper=paper,
        measured=measured,
        text=render_skill_table(reports, title="Table 5 (measured)"),
    )


def _table6(result: StudyResult) -> ExperimentResult:
    analysis = analyse_log4shell(result.events_per_cve)
    rows = table6_rows(analysis)
    measured = {
        f"sid {variant.sid} observed": float(variant.events > 0)
        for variant in analysis.variants
    }
    measured["variants observed"] = sum(
        1.0 for variant in analysis.variants if variant.events > 0
    )
    return ExperimentResult(
        experiment_id="table6",
        title="Log4Shell mitigation variants",
        paper={"variants observed": 15.0},
        measured=measured,
        text=render_table6(rows),
    )


def _fig1(result: StudyResult) -> ExperimentResult:
    bins = observed_cves_by_publication()
    series = figure_series("studied CVEs per quarter", bins)
    nonzero = sum(1 for _, count in bins if count > 0)
    return ExperimentResult(
        experiment_id="fig1",
        title="Observed CVEs by public availability",
        paper={"quarters with new CVEs (of 8)": 8.0},
        measured={"quarters with new CVEs (of 8)": float(nonzero)},
        text=series.summary(max_points=10),
    )


def _fig2(result: StudyResult) -> ExperimentResult:
    cdfs = impact_cdfs(result.bundle)
    medians = cdfs.medians()
    paper = {"studied median": 9.8, "kev median higher than all": 1.0,
             "studied median higher than kev": 1.0}
    measured = {
        "studied median": medians["studied"],
        "kev median higher than all": float(medians["kev"] > medians["all"]),
        "studied median higher than kev": float(
            medians["studied"] >= medians["kev"]
        ),
    }
    text = "\n".join(
        [
            downsample_cdf(cdfs.studied, points=12).summary(max_points=12),
            downsample_cdf(cdfs.kev, points=12).summary(max_points=12),
            downsample_cdf(cdfs.all_cves, points=12).summary(max_points=12),
        ]
    )
    return ExperimentResult(
        experiment_id="fig2",
        title="CDF of CVE impact: studied vs KEV vs all",
        paper=paper,
        measured=measured,
        text=text,
    )


def _fig3(result: StudyResult) -> ExperimentResult:
    bins = events_over_study(result.kept_events)
    counts = [count for _, count in bins]
    half = len(counts) // 2
    first_half, second_half = sum(counts[:half]), sum(counts[half:])
    return ExperimentResult(
        experiment_id="fig3",
        title="Timeline of CVE exploit events during study",
        paper={"second half share exceeds first": 1.0},
        measured={
            "second half share exceeds first": float(second_half > first_half),
            "total events": float(sum(counts)),
        },
        text=figure_series("events per 30d", bins).summary(max_points=12),
    )


def _fig4(result: StudyResult) -> ExperimentResult:
    bins = events_relative_to_publication(result.kept_events, result.timelines)
    post = {start: count for start, count in bins if start >= 0}
    peak_bin = max(post, key=post.get) if post else 0.0
    return ExperimentResult(
        experiment_id="fig4",
        title="CVE exploit events relative to publication date",
        paper={"peak within 60d of publication": 1.0},
        measured={
            "peak within 60d of publication": float(0 <= peak_bin <= 60),
            "peak bin start (days)": float(peak_bin),
        },
        text=figure_series("events per 7d vs publication", bins).summary(max_points=12),
    )


def _fig5(result: StudyResult) -> ExperimentResult:
    timelines = result.timelines.values()
    cdf_ad = window_cdf(timelines, A, D)
    cdf_pd = window_cdf(timelines, P, D)
    cdf_ap = window_cdf(timelines, A, P)
    narrow, total = narrow_violations(timelines, A, D, within_days=30.0)
    paper = {
        "P(D < A)": 0.56,
        "P(D < P)": 0.13,
        "P(P < A)": 0.90,
        "narrow D<A violations dominate": 1.0,
    }
    measured = {
        "P(D < A)": 1.0 - violation_rate(cdf_ad),
        "P(D < P)": 1.0 - violation_rate(cdf_pd),
        "P(P < A)": 1.0 - violation_rate(cdf_ap),
        "narrow D<A violations dominate": float(narrow >= total / 2),
    }
    text = "\n".join(
        [
            figure_series("A - D (days)", cdf_ad).summary(),
            figure_series("P - D (days)", cdf_pd).summary(),
            figure_series("A - P (days)", cdf_ap).summary(),
        ]
    )
    return ExperimentResult(
        experiment_id="fig5",
        title="Time-series representation of desiderata (CDFs)",
        paper=paper,
        measured=measured,
        text=text,
    )


def _fig6(result: StudyResult) -> ExperimentResult:
    bins = unique_cve_bins(result.kept_events, result.timelines)
    # Finding 11: beyond the first bin, mitigated CVEs dominate most bins.
    post = [b for b in bins if b.bin_start_days >= 5 and b.total > 0]
    dominated = sum(1 for b in post if b.mitigated_cves >= b.unmitigated_cves)
    share = dominated / len(post) if post else 0.0
    rows = [
        [b.bin_start_days, b.mitigated_cves, b.unmitigated_cves]
        for b in bins
        if b.total > 0
    ][:20]
    return ExperimentResult(
        experiment_id="fig6",
        title="CVEs observed relative to publication, by mitigation",
        paper={"mitigated-majority bins after day 5": 0.75},
        measured={"mitigated-majority bins after day 5": share},
        text=render_table(["bin start (d)", "mitigated", "unmitigated"], rows,
                          title="Figure 6 (first 20 non-empty bins)"),
    )


def _fig7(result: StudyResult) -> ExperimentResult:
    mitigated_cdf, unmitigated_cdf = exposure_cdf(
        result.kept_events, result.timelines
    )
    share = mitigated_share(result.kept_events)
    half_life = half_life_days(unmitigated_cdf)
    paper = {
        "mitigated share": 0.95,
        "unmitigated half-life (days)": 30.0,
    }
    measured = {
        "mitigated share": share,
        "unmitigated half-life (days)": half_life,
    }
    text = "\n".join(
        [
            downsample_cdf(mitigated_cdf, points=10).summary(max_points=10),
            downsample_cdf(unmitigated_cdf, points=10).summary(max_points=10),
        ]
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="CDF of exploit events since disclosure, by mitigation",
        paper=paper,
        measured=measured,
        text=text,
    )


def _fig8(result: StudyResult) -> ExperimentResult:
    analysis = analyse_log4shell(result.events_per_cve)
    paper = {"early concentration": 1.0, "late resurgence share": 0.10}
    measured = {
        "early concentration": float(analysis.first_week_share > 0.2),
        "late resurgence share": analysis.resurgence_share_after_300d,
        "first week share": analysis.first_week_share,
    }
    return ExperimentResult(
        experiment_id="fig8",
        title="CDF of Log4Shell TCP sessions over time",
        paper=paper,
        measured=measured,
        text=downsample_cdf(analysis.sessions_cdf, points=12).summary(max_points=12),
    )


def _fig9(result: StudyResult) -> ExperimentResult:
    analysis = analyse_log4shell(result.events_per_cve)
    groups = analysis.group_cdfs_december
    # Group E's signature released in March, but its variant traffic
    # already circulated in December (A − D is negative), so all five
    # groups appear.
    paper = {"groups active in December (of 5)": 5.0}
    measured = {"groups active in December (of 5)": float(len(groups))}
    text = "\n".join(
        figure_series(f"group {name}", cdf).summary(max_points=6)
        for name, cdf in sorted(groups.items())
    )
    return ExperimentResult(
        experiment_id="fig9",
        title="CDF of Log4Shell traffic variants, December 2021",
        paper=paper,
        measured=measured,
        text=text,
    )


def _fig10(result: StudyResult) -> ExperimentResult:
    comparison = compare_with_kev(
        result.bundle, result.kept_events.first_attacks()
    )
    paper = {"KEV A<P rate": 0.18, "KEV CVEs in window": 424.0}
    measured = {
        "KEV A<P rate": comparison.kev_pre_publication_rate,
        "KEV CVEs in window": float(comparison.kev_in_window),
    }
    return ExperimentResult(
        experiment_id="fig10",
        title="A - P for Known Exploited Vulnerabilities",
        paper=paper,
        measured=measured,
        text=downsample_cdf(comparison.kev_a_minus_p, points=12).summary(max_points=12),
    )


def _fig11(result: StudyResult) -> ExperimentResult:
    comparison = compare_with_kev(
        result.bundle, result.kept_events.first_attacks()
    )
    paper = {
        "overlap CVEs": 44.0,
        "DSCOPE-first rate": 0.59,
        ">30d earlier rate": 0.50,
    }
    measured = {
        "overlap CVEs": float(comparison.overlap_count),
        "DSCOPE-first rate": comparison.dscope_first_rate,
        ">30d earlier rate": comparison.dscope_month_earlier_rate,
    }
    return ExperimentResult(
        experiment_id="fig11",
        title="Earliest exploitation: DSCOPE vs CISA KEV",
        paper=paper,
        measured=measured,
        text=downsample_cdf(comparison.first_seen_delta, points=12).summary(max_points=12),
    )


def _fig12(result: StudyResult) -> ExperimentResult:
    analysis = analyse_confluence(result.events_per_cve)
    paper = {"mitigated share": 0.996, "untargeted early OGNL": 1.0}
    measured = {
        "mitigated share": analysis.mitigated_share,
        "untargeted early OGNL": float(analysis.early_ognl_untargeted),
        "late-half share": analysis.late_half_share,
    }
    return ExperimentResult(
        experiment_id="fig12",
        title="CDF of CVE-2022-26134 targeted TCP sessions",
        paper=paper,
        measured=measured,
        text=downsample_cdf(analysis.sessions_cdf, points=12).summary(max_points=12),
    )


def _appendix_d(result: StudyResult) -> ExperimentResult:
    timelines = result.timelines.values()
    pairs = [
        ("Fig 13: A - V", A, V, 0.90),
        ("Fig 14: P - F", P, F, 0.13),
        ("Fig 15: X - F", X, F, 0.74),
        ("Fig 16: A - F", A, F, 0.56),
        ("Fig 17: X - D", X, D, 0.74),
        ("Fig 18: A - X", A, X, 0.39),
    ]
    paper: Dict[str, float] = {}
    measured: Dict[str, float] = {}
    lines: List[str] = []
    for label, later, earlier, paper_rate in pairs:
        cdf = window_cdf(timelines, later, earlier)
        rate = 1.0 - violation_rate(cdf)
        key = f"P({earlier.value} < {later.value})"
        paper[f"{label} {key}"] = paper_rate
        measured[f"{label} {key}"] = rate
        lines.append(figure_series(label, cdf).summary(max_points=6))
    return ExperimentResult(
        experiment_id="appendixD",
        title="Appendix D desiderata time-difference CDFs",
        paper=paper,
        measured=measured,
        text="\n".join(lines),
    )


def _finding7(result: StudyResult) -> ExperimentResult:
    outcome = ids_vendor_inclusion_experiment(result.timelines)
    paper = {
        "D<A before": 0.54,
        "D<A after": 0.65,
        "skill improvement": 0.32,
    }
    measured = {
        "D<A before": outcome.satisfied_before,
        "D<A after": outcome.satisfied_after,
        "skill improvement": outcome.skill_improvement,
    }
    text = (
        f"IDS-vendor inclusion: D<A {outcome.satisfied_before:.2f} -> "
        f"{outcome.satisfied_after:.2f} "
        f"(skill {outcome.skill_before:.2f} -> {outcome.skill_after:.2f}, "
        f"{outcome.cves_shifted} CVEs shifted)"
    )
    return ExperimentResult(
        experiment_id="finding7",
        title="Hypothetical: include IDS vendors in disclosure",
        paper=paper,
        measured=measured,
        text=text,
    )


EXPERIMENTS: Dict[str, Callable[[StudyResult], ExperimentResult]] = {
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "table6": _table6,
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "appendixD": _appendix_d,
    "finding7": _finding7,
}


def list_experiments() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str, result: StudyResult) -> ExperimentResult:
    """Regenerate one paper artifact from a study run."""
    try:
        function = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {list_experiments()}"
        ) from None
    return function(result)
