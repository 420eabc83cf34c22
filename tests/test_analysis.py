"""Tests for the analysis layer, driven by the shared small-scale study run."""

import pytest

from repro.analysis.confluence import (
    CONFLUENCE_CVE,
    EARLY_OGNL_CVE,
    analyse_confluence,
)
from repro.analysis.impact import impact_cdfs
from repro.analysis.kev_compare import compare_with_kev
from repro.analysis.log4shell import analyse_log4shell, table6_rows
from repro.analysis.trends import (
    events_over_study,
    events_relative_to_publication,
    observed_cves_by_publication,
    study_headline_stats,
)
from repro.datasets.seed_log4shell import LOG4SHELL_VARIANTS


class TestTrends:
    def test_fig1_covers_study_quarters(self):
        bins = observed_cves_by_publication()
        assert sum(count for _, count in bins) == 64
        nonzero = [start for start, count in bins if count > 0]
        assert nonzero[0] == 0.0  # CVEs from the first quarter onwards

    def test_fig3_volume_grows(self, study):
        bins = events_over_study(study.kept_events)
        counts = [count for _, count in bins]
        half = len(counts) // 2
        assert sum(counts[half:]) > sum(counts[:half])

    def test_fig4_peak_near_publication(self, study):
        bins = events_relative_to_publication(study.kept_events, study.timelines)
        post = {start: count for start, count in bins if start >= 0}
        peak = max(post, key=post.get)
        assert 0 <= peak <= 60

    def test_headline_stats(self, study):
        stats = study_headline_stats(
            study.kept_events,
            receiving_ips=study.collection_stats.unique_receiving_ips,
        )
        assert stats.unique_cves == 64
        assert stats.vendors == 40
        assert stats.cwes == 25
        assert stats.assigners == 19
        assert stats.unique_exploit_sources > 100


class TestImpact:
    def test_fig2_orderings(self, bundle):
        cdfs = impact_cdfs(bundle)
        medians = cdfs.medians()
        assert medians["studied"] == 9.8
        assert medians["studied"] >= medians["kev"] > medians["all"]

    def test_critical_share_ordering(self, bundle):
        share = impact_cdfs(bundle).critical_share(9.0)
        assert share["studied"] > share["kev"] > share["all"]


class TestKevComparison:
    @pytest.fixture(scope="class")
    def comparison(self, study):
        return compare_with_kev(study.bundle, study.kept_events.first_attacks())

    def test_counts(self, comparison):
        assert comparison.kev_in_window == 424
        assert comparison.overlap_count == 44
        assert len(comparison.dscope_only_cves) == 20  # 64 - 44

    def test_dscope_first_rate(self, comparison):
        assert comparison.dscope_first_rate == pytest.approx(0.59, abs=0.08)

    def test_month_earlier_rate(self, comparison):
        assert comparison.dscope_month_earlier_rate == pytest.approx(0.50, abs=0.12)

    def test_kev_pre_publication_rate(self, comparison):
        assert comparison.kev_pre_publication_rate == pytest.approx(0.18, abs=0.08)


class TestLog4ShellAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self, study):
        return analyse_log4shell(study.events_per_cve)

    def test_all_variants_observed(self, analysis):
        assert all(v.events > 0 for v in analysis.variants)

    def test_group_a_dominates_december(self, analysis):
        sizes = {g: cdf.n for g, cdf in analysis.group_cdfs_december.items()}
        assert sizes["A"] == max(sizes.values())

    def test_resurgence_present(self, analysis):
        assert analysis.resurgence_share_after_300d > 0.05

    def test_early_concentration(self, analysis):
        assert analysis.first_week_share > 0.15

    def test_table6_rows_shape(self, analysis):
        rows = table6_rows(analysis)
        assert len(rows) == len(LOG4SHELL_VARIANTS)
        assert all(len(row) == 7 for row in rows)


class TestConfluenceAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self, study):
        return analyse_confluence(study.events_per_cve)

    def test_high_mitigation(self, analysis):
        # Paper: 99.6% of Confluence exploit sessions mitigated.
        assert analysis.mitigated_share > 0.95

    def test_sustained_late_exploitation(self, analysis):
        assert analysis.late_half_share > 0.2

    def test_untargeted_early_ognl(self, analysis):
        assert analysis.early_ognl_events > 0
        assert analysis.early_ognl_untargeted


class TestDiversityBreakdowns:
    def test_events_by_vendor(self, study):
        from repro.analysis.trends import events_by_vendor

        breakdown = events_by_vendor(study.kept_events)
        vendors = dict(breakdown)
        # Mass campaigns dominate: Atlassian (Confluence) and Hikvision.
        assert breakdown[0][0] in ("Atlassian", "Hikvision")
        assert sum(vendors.values()) == len(study.kept_events)
        assert len(vendors) == 40

    def test_events_by_cwe(self, study):
        from repro.analysis.trends import events_by_cwe

        breakdown = events_by_cwe(study.kept_events)
        cwes = dict(breakdown)
        assert sum(cwes.values()) == len(study.kept_events)
        # OGNL/EL injection (CWE-917) carries Confluence + Log4Shell.
        assert breakdown[0][0] in ("CWE-917", "CWE-78")
