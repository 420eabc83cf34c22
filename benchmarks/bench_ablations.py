"""Ablation benchmarks for the study's methodological choices.

Each ablation flips one design decision the paper (or DESIGN.md) calls out
and quantifies its effect:

* port-insensitive rule rewriting (Section 3.1) — how much exploit traffic
  port-constrained rules would miss;
* the registered-user rule-feed delay (Section 5 footnote 2) — how a 30-day
  delay collapses defense-before-attack;
* paper-published vs exactly computed Markov luck baselines — how the skill
  picture shifts;
* telescope instance lifetime — IP coverage vs capture, the DSCOPE design
  parameter;
* the root-cause-analysis threshold — false-positive pruning robustness;
* bootstrap confidence intervals for Table 4's skills.
"""

from datetime import timedelta

from repro.analysis.pipeline import StudyConfig, run_study
from repro.core.bootstrap import bootstrap_skill
from repro.core.histories import HOUSEHOLDER_SPRING_MODEL
from repro.core.skill import compute_skill, mean_skill
from repro.datasets.loader import build_bundle
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.datasets.sources import default_plan
from repro.exploits.rulegen import build_study_ruleset
from repro.lifecycle.assembly import assemble_timelines
from repro.lifecycle.exploit_events import EventTable
from repro.lifecycle.rca import RootCauseAnalysis
from repro.nids.engine import DetectionEngine
from repro.telescope.collector import DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.traffic.generator import TrafficConfig, TrafficGenerator


def _small_store():
    arrivals = TrafficGenerator(
        TrafficConfig(volume_scale=0.02, background_per_exploit=0.5)
    ).generate()
    collector = DscopeCollector(window=STUDY_WINDOW)
    store = collector.collect(arrivals)
    exploit_count = sum(1 for a in arrivals if a.truth_cve is not None)
    return store, exploit_count


def test_ablation_port_insensitivity(benchmark, results_dir):
    """Port-constrained rules miss off-port and pre-publication scanning."""
    store, exploit_count = _small_store()
    insensitive = build_study_ruleset(port_insensitive=True)
    sensitive = build_study_ruleset(port_insensitive=False)

    def scan_both():
        hits_insensitive = len(DetectionEngine(insensitive).scan(store))
        hits_sensitive = len(DetectionEngine(sensitive).scan(store))
        return hits_insensitive, hits_sensitive

    hits_insensitive, hits_sensitive = benchmark.pedantic(
        scan_both, rounds=2, iterations=1
    )
    missed = 1.0 - hits_sensitive / hits_insensitive
    (results_dir / "ablation_ports.txt").write_text(
        f"port-insensitive alerts: {hits_insensitive}\n"
        f"port-sensitive alerts:   {hits_sensitive}\n"
        f"traffic missed by port-constrained rules: {missed:.1%}\n"
    )
    # The generator sprays ~15% of post-publication traffic off-port and all
    # pre-publication traffic across ports; constrained rules must miss a
    # meaningful share.
    assert missed > 0.10


def test_ablation_rule_feed_delay(benchmark, results_dir):
    """The 30-day registered-user delay collapses D < A."""

    def sweep():
        rows = []
        for delay in (0, 7, 30, 90):
            bundle = build_bundle(
                default_plan(rule_delay_days=delay, background_count=100)
            )
            timelines = assemble_timelines(bundle)
            reports = {
                r.desideratum.label: r
                for r in compute_skill(timelines.values())
            }
            rows.append((delay, reports["D < A"].observed, reports["D < A"].skill))
        return rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)
    lines = ["delay_days  D<A_satisfied  D<A_skill"]
    for delay, satisfied, skill_value in rows:
        lines.append(f"{delay:10d}  {satisfied:13.2f}  {skill_value:9.2f}")
    (results_dir / "ablation_rule_delay.txt").write_text("\n".join(lines) + "\n")
    by_delay = {delay: satisfied for delay, satisfied, _ in rows}
    assert by_delay[0] > by_delay[30] > by_delay[90]
    # Footnote 2: the delay "drastically reduces the effectiveness of IDS".
    assert by_delay[0] - by_delay[30] > 0.10


def test_ablation_baseline_model(benchmark, results_dir):
    """Paper-published vs computed Markov baselines."""
    bundle = build_bundle(default_plan(background_count=100))
    timelines = assemble_timelines(bundle)

    def both():
        paper = compute_skill(timelines.values())
        markov = compute_skill(timelines.values(), model=HOUSEHOLDER_SPRING_MODEL)
        return paper, markov

    paper, markov = benchmark.pedantic(both, rounds=3, iterations=1)
    lines = ["desideratum  paper_skill  markov_skill"]
    for p, m in zip(paper, markov):
        lines.append(
            f"{p.desideratum.label:11s}  {p.skill:11.2f}  {m.skill:12.2f}"
        )
    lines.append(
        f"mean         {mean_skill(paper):11.2f}  {mean_skill(markov):12.2f}"
    )
    (results_dir / "ablation_baselines.txt").write_text("\n".join(lines) + "\n")
    # Qualitative agreement: both models find CVD skillful on average and
    # agree D-desiderata carry large positive skill.
    assert mean_skill(paper) > 0.2 and mean_skill(markov) > 0.2


def test_ablation_telescope_lifetime(benchmark, results_dir):
    """Instance lifetime trades unique-IP coverage for per-IP dwell."""
    arrivals = TrafficGenerator(
        TrafficConfig(volume_scale=0.01, background_per_exploit=0.2)
    ).generate()

    def sweep():
        rows = []
        for minutes in (1, 10, 60):
            collector = DscopeCollector(
                TelescopeConfig(instance_lifetime=timedelta(minutes=minutes)),
                window=STUDY_WINDOW,
            )
            store = collector.collect(arrivals)
            rows.append(
                (minutes, collector.expected_unique_ips, len(store))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["lifetime_min  expected_unique_ips  sessions_captured"]
    for minutes, unique_ips, sessions in rows:
        lines.append(f"{minutes:12d}  {unique_ips:19,d}  {sessions:17,d}")
    (results_dir / "ablation_telescope.txt").write_text("\n".join(lines) + "\n")
    by_lifetime = {minutes: unique for minutes, unique, _ in rows}
    assert by_lifetime[1] > by_lifetime[10] > by_lifetime[60]
    # Capture volume is lifetime-independent (arrivals always land on a
    # live instance); coverage is the lever.
    assert len({sessions for _, _, sessions in rows}) == 1


def test_ablation_rca_threshold(benchmark, results_dir):
    """RCA pruning is robust across a wide threshold band."""
    result = run_study(
        StudyConfig(volume_scale=0.02, background_per_exploit=0.5,
                    background_nvd_count=500)
    )
    grouped = EventTable.from_alerts(result.alerts).by_cve()

    def sweep():
        rows = []
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            rca = RootCauseAnalysis(result.store, exploit_threshold=threshold)
            kept, _ = rca.filter(grouped)
            rows.append((threshold, len(kept)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["threshold  kept_cves"] + [
        f"{threshold:9.1f}  {kept:9d}" for threshold, kept in rows
    ]
    (results_dir / "ablation_rca.txt").write_text("\n".join(lines) + "\n")
    # 64 genuine CVEs survive and 2 fakes are dropped at every threshold in
    # the band — the decision is not a knife edge.
    assert all(kept == 64 for _, kept in rows)


def test_skill_confidence_intervals(benchmark, study_full, results_dir):
    """Bootstrap CIs for Table 4 (the Section 8 measurement extension)."""
    report = benchmark.pedantic(
        bootstrap_skill,
        args=(list(study_full.timelines.values()),),
        kwargs=dict(resamples=1000),
        rounds=2,
        iterations=1,
    )
    lines = ["desideratum  skill  95% CI"]
    for interval in report.intervals:
        lines.append(
            f"{interval.desideratum.label:11s}  {interval.skill_point:5.2f}  "
            f"[{interval.skill_low:5.2f}, {interval.skill_high:5.2f}]"
            f"{'  *' if interval.significantly_skillful else ''}"
        )
    lines.append(
        f"mean skill   {report.mean_skill_point:5.2f}  "
        f"[{report.mean_skill_low:5.2f}, {report.mean_skill_high:5.2f}]"
    )
    (results_dir / "skill_confidence.txt").write_text("\n".join(lines) + "\n")
    assert report.mean_skill_low > 0.2  # CVD skill is significant
    assert report.interval("X < A").skill_high < 0.15  # and X<A is not
