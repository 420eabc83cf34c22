"""Benchmarks for the extension analyses (beyond the paper's artifacts).

Each bench exercises one extension on the shared full-scale run, asserts
its headline claim, and persists a report next to the per-figure results:

* vendor-sophistication gap (Section 8.1 quantified);
* CVD-skill evolution across publication cohorts (Section 4's outlook);
* the auto-patch counterfactual (Recommendation 1 quantified);
* multi-party coordination metrics (MPCVD view of the dataset);
* live-IDS vs wayback detection (what retroactive scanning adds);
* attribution quality against generator ground truth.
"""

from repro.analysis.coverage import attribution_quality
from repro.analysis.evolution import cohort_skills
from repro.analysis.vendors import category_summaries, sophistication_gap_days
from repro.core.autopatch import auto_patch_sweep
from repro.core.mpcvd import generate_mpcvd_cases, summarise_cases
from repro.lifecycle.exploit_events import EventTable
from repro.nids.live import compare_live_vs_wayback


def test_vendor_sophistication(benchmark, study_full, results_dir):
    summaries = benchmark.pedantic(
        category_summaries, args=(study_full.timelines,), rounds=3, iterations=1
    )
    lines = ["category  cves  median_D-P_days  D<A_rate  prepub_rules"]
    for summary in summaries:
        lines.append(
            f"{summary.category:20s}  {summary.cves:4d}  "
            f"{summary.median_fix_lag_days!s:>15}  "
            f"{summary.defense_first_rate!s:>8}  "
            f"{summary.pre_publication_rules:12d}"
        )
    gap = sophistication_gap_days(study_full.timelines)
    lines.append(f"\nIoT-vs-enterprise median fix lag gap: {gap:.1f} days")
    (results_dir / "ext_vendor_sophistication.txt").write_text(
        "\n".join(lines) + "\n"
    )
    assert gap > 14.0


def test_cohort_evolution(benchmark, study_full, results_dir):
    cohorts = benchmark.pedantic(
        cohort_skills, args=(study_full.timelines,), rounds=3, iterations=1
    )
    lines = ["cohort  cves  mean_skill  D<A_rate"]
    for cohort in cohorts:
        lines.append(
            f"{cohort.label}  {cohort.cves:4d}  "
            f"{cohort.mean_skill if cohort.mean_skill is None else round(cohort.mean_skill, 2)!s:>10}  "
            f"{cohort.defense_first_rate if cohort.defense_first_rate is None else round(cohort.defense_first_rate, 2)!s:>8}"
        )
    (results_dir / "ext_cohort_evolution.txt").write_text("\n".join(lines) + "\n")
    assert sum(cohort.cves for cohort in cohorts) == 64


def test_autopatch_counterfactual(benchmark, study_full, results_dir):
    outcomes = benchmark.pedantic(
        auto_patch_sweep,
        args=(study_full.kept_events, study_full.timelines),
        rounds=2,
        iterations=1,
    )
    lines = ["delay_days  mitigated_share  exposure_avoided"]
    for outcome in outcomes:
        lines.append(
            f"{outcome.delay_days:10.1f}  {outcome.policy_share:15.3f}  "
            f"{outcome.exposure_avoided:16.3f}"
        )
    (results_dir / "ext_autopatch.txt").write_text("\n".join(lines) + "\n")
    instant = outcomes[0]
    assert instant.exposure_avoided > 0.5
    assert instant.policy_share > instant.baseline_share


def test_mpcvd_summary(benchmark, study_full, results_dir):
    cases = generate_mpcvd_cases(study_full.timelines)
    summary = benchmark.pedantic(
        summarise_cases, args=(cases,), rounds=3, iterations=1
    )
    (results_dir / "ext_mpcvd.txt").write_text(
        f"cases: {summary.cases}\n"
        f"parties aware before publication: {summary.mean_aware_before_public:.2f}\n"
        f"parties with fix before publication: {summary.mean_fix_before_public:.2f}\n"
        f"fully coordinated disclosures: {summary.fully_coordinated_rate:.2f}\n"
        f"median fix spread (days): {summary.median_fix_spread_days:.1f}\n"
    )
    assert summary.fully_coordinated_rate < 0.3


def test_live_vs_wayback(benchmark, study_full, results_dir):
    sessions = list(study_full.store)

    comparison = benchmark.pedantic(
        compare_live_vs_wayback,
        args=(study_full.ruleset, sessions),
        rounds=1,
        iterations=1,
    )
    (results_dir / "ext_live_vs_wayback.txt").write_text(
        f"sessions: {comparison.sessions}\n"
        f"retrospective alerts: {comparison.retrospective_alerts}\n"
        f"live alerts: {comparison.live_alerts}\n"
        f"missed live (zero-day evidence): {comparison.missed_live} "
        f"({comparison.missed_share:.1%})\n"
    )
    assert comparison.missed_live > 0
    assert comparison.missed_share > 0.02


def test_attribution_quality(benchmark, study_full, results_dir):
    events = EventTable.from_alerts(study_full.alerts)
    quality = benchmark.pedantic(
        attribution_quality,
        args=(events, study_full.ground_truth),
        rounds=2,
        iterations=1,
    )
    (results_dir / "ext_attribution.txt").write_text(
        f"exploit sessions: {quality.exploit_sessions}\n"
        f"recall: {quality.recall:.4f}\n"
        f"precision: {quality.precision:.4f}\n"
        f"injected FP alerts (for RCA): {quality.injected_fp_alerts}\n"
        f"unexpected background alerts: {quality.unexpected_background_alerts}\n"
    )
    assert quality.recall == 1.0
    assert quality.precision == 1.0
    assert quality.unexpected_background_alerts == 0


def test_adoption_curve_exposure(benchmark, study_full, results_dir):
    """Gradual patch adoption vs the point-in-time D assumption (the
    paper's open question 3 quantified)."""
    from repro.core.adoption import AdoptionCurve, expected_exposure

    def sweep():
        rows = []
        for half_life in (0.0, 3.0, 14.0, 60.0):
            curve = AdoptionCurve(
                half_life_days=half_life,
                ceiling=1.0 if half_life == 0.0 else 0.95,
            )
            outcome = expected_exposure(
                study_full.kept_events, study_full.timelines, curve=curve
            )
            rows.append((half_life, outcome))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["half_life_days  expected_compromised_share  vs_point_model"]
    for half_life, outcome in rows:
        lines.append(
            f"{half_life:14.1f}  {outcome.expected_share:26.3f}  "
            f"{outcome.underestimate_factor:14.2f}x"
        )
    (results_dir / "ext_adoption.txt").write_text("\n".join(lines) + "\n")
    by_half_life = {half_life: outcome for half_life, outcome in rows}
    assert (
        by_half_life[60.0].expected_compromises
        > by_half_life[3.0].expected_compromises
    )
