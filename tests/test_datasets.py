"""Tests for the dataset layer: seed tables, catalog, synthetic builders.

The seed-table tests double as paper-consistency checks: Appendix E's
columns must reproduce Table 4's observed satisfaction rates and the
Section 4 narrative numbers, which pins the encoding against transcription
errors.
"""

import statistics
from dataclasses import replace
from datetime import timedelta

import pytest

from repro.datasets.catalog import (
    CVE_PROFILES,
    distinct_assigners,
    distinct_cwes,
    distinct_vendors,
    profile_for,
    talos_disclosed_cves,
)
from repro.datasets.kev import KEV_PROGRAM_START, build_kev, kev_cvss_scores
from repro.datasets.loader import build_bundle
from repro.datasets.sources import DatasetSource, default_plan
from repro.datasets.nvd import background_cvss, studied_cve_records
from repro.datasets.records import CveRecord, ExploitEvidence, KevEntry
from repro.datasets.seed_cves import SEED_CVES, STUDY_WINDOW, seed_by_id, total_events
from repro.datasets.seed_log4shell import (
    LOG4SHELL_VARIANTS,
    variant_groups,
    variants_in_group,
)
from repro.datasets.suciu import (
    evidence_index,
    exploit_evidence_from_seeds,
    median_exploitability,
)
from repro.datasets.talos import (
    rule_history_from_seeds,
    rule_index,
    sid_for,
    talos_reports_from_seeds,
)


class TestSeedTable:
    def test_row_count_matches_appendix(self):
        # 64 rows as provided (the paper's headline is 63; one row's id
        # column is corrupted in the source text — see DESIGN.md §5).
        assert len(SEED_CVES) == 64

    def test_unique_cve_ids(self):
        ids = [seed.cve_id for seed in SEED_CVES]
        assert len(set(ids)) == len(ids)

    def test_all_published_in_window(self):
        for seed in SEED_CVES:
            assert STUDY_WINDOW.contains(seed.published), seed.cve_id

    def test_median_impact_is_9_8(self):
        assert statistics.median(s.impact for s in SEED_CVES) == 9.8

    def test_total_events_scale(self):
        assert 100_000 < total_events() < 150_000

    def test_lookup(self):
        assert seed_by_id("CVE-2021-44228").impact == 10.0
        with pytest.raises(KeyError):
            seed_by_id("CVE-1999-0001")

    def test_offset_derived_dates(self):
        log4shell = seed_by_id("CVE-2021-44228")
        assert log4shell.fix_available - log4shell.published == timedelta(hours=19)
        assert log4shell.exploit_public - log4shell.published == timedelta(days=4)
        assert log4shell.first_attack - log4shell.published == timedelta(hours=13)

    def test_missing_offsets_are_none(self):
        row = seed_by_id("CVE-2022-44877")
        assert row.fix_available is None
        assert row.exploit_public is None
        assert row.first_attack is None

    # -- paper-consistency checks (Table 4 observed column) ----------------

    def test_f_before_p_rate_matches_table4(self):
        rate = sum(
            1 for s in SEED_CVES
            if s.fix_available is not None and s.fix_available < s.published
        ) / len(SEED_CVES)
        assert rate == pytest.approx(0.13, abs=0.01)

    def test_p_before_a_rate_matches_table4(self):
        rows = [s for s in SEED_CVES if s.first_attack is not None]
        rate = sum(1 for s in rows if s.published < s.first_attack) / len(rows)
        assert rate == pytest.approx(0.90, abs=0.01)

    def test_f_before_a_rate_matches_table4(self):
        rows = [
            s for s in SEED_CVES
            if s.first_attack is not None and s.fix_available is not None
        ]
        rate = sum(1 for s in rows if s.fix_available < s.first_attack) / len(rows)
        assert rate == pytest.approx(0.56, abs=0.01)

    def test_f_before_x_rate_matches_table4(self):
        rows = [
            s for s in SEED_CVES
            if s.exploit_public is not None and s.fix_available is not None
        ]
        rate = sum(1 for s in rows if s.fix_available < s.exploit_public) / len(rows)
        assert rate == pytest.approx(0.74, abs=0.01)

    def test_x_before_a_rate_matches_table4(self):
        rows = [
            s for s in SEED_CVES
            if s.exploit_public is not None and s.first_attack is not None
        ]
        rate = sum(1 for s in rows if s.exploit_public < s.first_attack) / len(rows)
        assert rate == pytest.approx(0.39, abs=0.01)

    def test_talos_disclosed_have_early_rules(self):
        # Finding 6: the IDS-vendor-disclosed CVEs are among those with
        # rules before publication.
        for cve_id in talos_disclosed_cves():
            row = seed_by_id(cve_id)
            assert row.fix_available < row.published


class TestLog4ShellSeed:
    def test_fifteen_variants_in_five_groups(self):
        assert len(LOG4SHELL_VARIANTS) == 15
        assert variant_groups() == ["A", "B", "C", "D", "E"]

    def test_unique_sids(self):
        sids = [v.sid for v in LOG4SHELL_VARIANTS]
        assert len(set(sids)) == len(sids)

    def test_group_offsets_increase(self):
        offsets = [
            variants_in_group(group)[0].rule_offset for group in variant_groups()
        ]
        assert offsets == sorted(offsets)

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError):
            variants_in_group("Z")

    def test_some_variants_attacked_before_rule(self):
        negative = [
            v for v in LOG4SHELL_VARIANTS
            if v.first_attack_offset < timedelta(0)
        ]
        assert {v.sid for v in negative} == {58723, 58751, 59246}


class TestCatalog:
    def test_every_seed_has_profile(self):
        for seed in SEED_CVES:
            assert seed.cve_id in CVE_PROFILES

    def test_diversity_matches_section4(self):
        assert len(distinct_vendors()) == 40
        assert len(distinct_cwes()) == 25
        assert len(distinct_assigners()) == 19

    def test_five_talos_disclosures(self):
        assert len(talos_disclosed_cves()) == 5

    def test_profile_lookup(self):
        assert profile_for("CVE-2021-44228").vendor == "Apache"
        with pytest.raises(KeyError):
            profile_for("CVE-1999-0001")


class TestNvd:
    def test_studied_records_carry_seed_data(self):
        records = {r.cve_id: r for r in studied_cve_records()}
        assert records["CVE-2021-44228"].cvss == 10.0
        assert records["CVE-2021-44228"].vendor == "Apache"

    def test_background_population_shape(self):
        scores = background_cvss(seed=1, count=5000)
        assert len(scores) == 5000
        median = statistics.median(scores)
        assert 6.0 <= median <= 8.0  # NVD's HIGH-band mode

    def test_background_deterministic(self):
        assert background_cvss(seed=1, count=50) == background_cvss(
            seed=1, count=50
        )

    def test_background_rejects_bad_count(self):
        with pytest.raises(ValueError):
            background_cvss(seed=1, count=0)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            CveRecord(cve_id="NOT-A-CVE", published=STUDY_WINDOW.start, cvss=5.0)
        with pytest.raises(ValueError):
            CveRecord(cve_id="CVE-2021-1", published=STUDY_WINDOW.start, cvss=11.0)


class TestKev:
    def test_total_and_overlap(self):
        entries = build_kev(seed=1)
        assert len(entries) == 424
        studied = {s.cve_id for s in SEED_CVES}
        overlap = [e for e in entries if e.cve_id in studied]
        assert len(overlap) == 44

    def test_no_addition_before_program_start(self):
        for entry in build_kev(seed=1):
            assert entry.date_added >= KEV_PROGRAM_START

    def test_dscope_first_share_calibrated(self):
        entries = {e.cve_id: e for e in build_kev(seed=20230321)}
        deltas = []
        for seed in SEED_CVES:
            entry = entries.get(seed.cve_id)
            if entry is None or seed.first_attack is None:
                continue
            deltas.append((seed.first_attack - entry.date_added).total_seconds())
        first_rate = sum(1 for d in deltas if d < 0) / len(deltas)
        assert first_rate == pytest.approx(0.59, abs=0.06)

    def test_cvss_scores_cover_all_entries(self):
        entries = build_kev(seed=1)
        scores = kev_cvss_scores(entries, seed=1)
        assert set(scores) == {e.cve_id for e in entries}
        assert scores["CVE-2021-44228"] == 10.0

    def test_published_recorded(self):
        for entry in build_kev(seed=1):
            assert entry.published is not None


class TestTalos:
    def test_rules_only_for_dated_cves(self):
        history = rule_history_from_seeds()
        dated = [s for s in SEED_CVES if s.fix_available is not None]
        assert len(history) == len(dated)

    def test_rule_dates_match_seed_offsets(self):
        index = rule_index(rule_history_from_seeds())
        log4shell = seed_by_id("CVE-2021-44228")
        assert index["CVE-2021-44228"].published == log4shell.fix_available

    def test_deployment_delay_knob(self):
        delayed = rule_history_from_seeds(delayed_days=30)
        entry = delayed[0]
        assert entry.deployed - entry.published == timedelta(days=30)
        with pytest.raises(ValueError):
            rule_history_from_seeds(delayed_days=-1)

    def test_sids_stable_and_unique(self):
        sids = [sid_for(s.cve_id) for s in SEED_CVES]
        assert len(set(sids)) == len(sids)
        assert sid_for("CVE-2021-44228") == sids[SEED_CVES.index(seed_by_id("CVE-2021-44228"))]

    def test_reports_for_talos_disclosures_only(self):
        reports = talos_reports_from_seeds()
        assert {r.cve_id for r in reports} == set(talos_disclosed_cves())
        for report in reports:
            assert report.reported_to_vendor < report.disclosed


class TestSuciu:
    def test_one_record_per_seed(self):
        evidence = exploit_evidence_from_seeds()
        assert len(evidence) == len(SEED_CVES)

    def test_index_and_median(self):
        evidence = exploit_evidence_from_seeds()
        index = evidence_index(evidence)
        assert index["CVE-2021-44228"].expected_exploitability == 100
        median = median_exploitability(evidence)
        assert median >= 90  # studied CVEs skew highly exploitable

    def test_score_validation(self):
        with pytest.raises(ValueError):
            ExploitEvidence(cve_id="CVE-2021-1", exploit_public=None,
                            expected_exploitability=120.0)


class TestLoader:
    def test_bundle_composition(self, bundle):
        assert len(bundle.studied) == 64
        assert len(bundle.kev) == 424
        assert len(bundle.talos_reports) == 5
        assert bundle.rules_by_cve["CVE-2021-44228"].cve_id == "CVE-2021-44228"
        assert bundle.kev_by_cve["CVE-2021-44228"].published is not None
        assert bundle.profile("CVE-2021-44228").vendor == "Apache"

    def test_bundle_deterministic(self):
        a = build_bundle(default_plan(seed=5, background_count=100))
        b = build_bundle(default_plan(seed=5, background_count=100))
        assert [e.date_added for e in a.kev] == [e.date_added for e in b.kev]
        assert a.nvd_background == b.nvd_background

    def test_bundles_from_one_plan_compare_equal(self):
        plan = default_plan(seed=5, background_count=100)
        assert build_bundle(plan) == build_bundle(plan)

    @pytest.mark.parametrize("bad", [10.5, float("nan")])
    def test_background_score_out_of_range_raises(self, bad):
        class BadColumn(DatasetSource):
            def fetch(self):
                return [7.5, bad]

        plan = default_plan(seed=5, background_count=10)
        sources = dict(plan.sources, nvd_background=BadColumn())
        with pytest.raises(ValueError, match="out of range"):
            build_bundle(replace(plan, sources=sources))
