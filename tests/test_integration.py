"""End-to-end integration tests: the paper's headline results must emerge
from the full pipeline (traffic -> telescope -> NIDS -> RCA -> timelines),
not from the seed table directly."""

import pytest

from repro.core.exposure import mitigated_share, unmitigated_half_life_days
from repro.core.hypothetical import ids_vendor_inclusion_experiment
from repro.core.perevent import per_event_satisfaction
from repro.core.skill import compute_skill, mean_skill
from repro.datasets.seed_cves import SEED_CVES, STUDY_WINDOW
from repro.exploits.rulegen import FALSE_POSITIVE_CVES
from repro.lifecycle.events import A, D, F, P


class TestPipelineIntegrity:
    def test_rca_drops_exactly_the_false_positive_cves(self, study):
        assert set(study.dropped_cves) == set(FALSE_POSITIVE_CVES)
        assert len(study.kept_cves) == len(SEED_CVES)

    def test_all_sessions_in_window(self, study):
        for session in study.store:
            assert STUDY_WINDOW.contains(session.start)

    def test_measured_first_attacks_match_seed(self, study):
        """The pipeline must rediscover Appendix E's A dates from traffic.

        Log4Shell is exempt: its traffic is generated from Table 6's
        per-variant offsets, whose earliest first-attack (group A rule at
        P+9h, first header-variant hit 6h before it) lands at P+3h, while
        Appendix E reports A − P = 13h — an inconsistency internal to the
        paper.  We stay faithful to Table 6 and accept the 10h difference.
        """
        for seed in SEED_CVES:
            if seed.first_attack is None:
                continue
            measured = study.timelines[seed.cve_id].time(A)
            assert measured is not None, seed.cve_id
            expected = STUDY_WINDOW.clamp(seed.first_attack)
            delta = abs((measured - expected).total_seconds())
            if seed.cve_id == "CVE-2021-44228":
                assert delta < 12 * 3600, seed.cve_id
            else:
                assert delta < 120, seed.cve_id  # capture adds milliseconds

    def test_alerts_only_for_known_cves(self, study):
        known = {seed.cve_id for seed in SEED_CVES} | set(FALSE_POSITIVE_CVES)
        for event in study.events:
            assert event.cve_id in known

    def test_background_radiation_not_alerted(self, study):
        # Alert count must be well below session count: radiation and
        # crawler-like background match nothing.
        assert len(study.alerts) < len(study.store)

    def test_collection_stats_populated(self, study):
        stats = study.collection_stats
        assert stats.sessions_captured == len(study.store)
        assert stats.unique_receiving_ips > 0
        assert stats.unique_source_ips > 0


class TestHeadlineResults:
    def test_table4_mean_skill(self, study):
        reports = compute_skill(study.timelines.values())
        assert mean_skill(reports) == pytest.approx(0.37, abs=0.03)

    def test_table4_eight_of_nine_skillful(self, study):
        reports = compute_skill(study.timelines.values())
        positive = [r for r in reports if r.skill > 0]
        negative = [r for r in reports if r.skill < 0]
        assert len(positive) == 8
        assert negative[0].desideratum.label == "X < A"

    def test_per_cve_vs_per_event_contrast(self, study):
        """Finding 10: per-event D < A far exceeds per-CVE D < A."""
        per_cve = {
            r.desideratum.label: r.observed
            for r in compute_skill(study.timelines.values())
        }
        per_event = {
            r.desideratum.label: r.observed
            for r in per_event_satisfaction(study.kept_events, study.timelines)
        }
        assert per_cve["D < A"] == pytest.approx(0.56, abs=0.03)
        assert per_event["D < A"] > 0.85
        assert per_event["D < A"] - per_cve["D < A"] > 0.25

    def test_mitigated_share_high(self, study):
        assert mitigated_share(study.kept_events) > 0.85

    def test_unmitigated_exposure_concentrated(self, study):
        half_life = unmitigated_half_life_days(study.kept_events, study.timelines)
        assert half_life == pytest.approx(30.0, abs=15.0)

    def test_finding7_improvement(self, study):
        outcome = ids_vendor_inclusion_experiment(study.timelines)
        assert outcome.satisfied_after - outcome.satisfied_before > 0.05
        assert outcome.skill_improvement == pytest.approx(0.32, abs=0.12)

    def test_f_before_p_rare(self, study):
        reports = {
            r.desideratum.label: r for r in compute_skill(study.timelines.values())
        }
        assert reports["F < P"].observed == pytest.approx(0.13, abs=0.02)
        assert reports["F < P"].satisfied == 8  # Finding 6: 8 CVEs


class TestDeterminism:
    def test_same_config_same_results(self):
        from repro.analysis.pipeline import StudyConfig, run_study

        config = StudyConfig(
            volume_scale=0.01, background_per_exploit=0.2,
            background_nvd_count=500,
        )
        a = run_study(config)
        b = run_study(config)
        assert len(a.store) == len(b.store)
        assert [e.timestamp for e in a.kept_events] == [
            e.timestamp for e in b.kept_events
        ]
        skills_a = [r.skill for r in compute_skill(a.timelines.values())]
        skills_b = [r.skill for r in compute_skill(b.timelines.values())]
        assert skills_a == skills_b


class TestPresets:
    def test_known_presets(self):
        from repro.analysis.pipeline import StudyConfig

        quick = StudyConfig.from_scenario("quick")
        full = StudyConfig.from_scenario("full", seed=7)
        assert quick.volume_scale < full.volume_scale == 1.0
        assert full.seed == 7
        assert quick.scenario == "quick"

    def test_preset_overrides_win(self):
        from repro.analysis.pipeline import StudyConfig

        tweaked = StudyConfig.from_scenario(
            "quick", volume_scale=0.5, workers=3
        )
        assert tweaked.volume_scale == 0.5
        assert tweaked.workers == 3

    def test_unknown_preset(self):
        from repro.analysis.pipeline import StudyConfig
        import pytest as _pytest

        with _pytest.raises(KeyError):
            StudyConfig.from_scenario("enormous")

    def test_positional_construction_rejected(self):
        from repro.analysis.pipeline import StudyConfig
        import pytest as _pytest

        with _pytest.raises(TypeError):
            StudyConfig(42)
