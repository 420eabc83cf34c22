"""Tests for the scenario layer: registry, specs, feed adapters, cache identity.

Covers the redesign's contracts: double registration refuses loudly,
scenarios round-trip through JSON, ``from_scenario("paper-default")`` is
byte-identical to a hand-built default config, the feed adapters parse the
vendored snapshots (and reject malformed records naming the offender), and
scenarios that change the pipeline diverge in the study cache key while
params-only scenarios do not.
"""

import sys
from pathlib import Path

import pytest

from repro.analysis.pipeline import StudyConfig, run_study
from repro.cache import semantic_config, study_key
from repro.datasets.feeds import (
    FeedParseError,
    FixesFeedSource,
    KevFeedSource,
    Nvd2FeedSource,
)
from repro.datasets.feeds.fixes import FIX_SID_BASE, parse_fixes
from repro.datasets.feeds.kevjson import parse_kev
from repro.datasets.feeds.nvd2 import parse_nvd2
from repro.datasets.loader import build_bundle
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.datasets.sources import CvssColumn
from repro.scenarios import (
    COMPONENT_KINDS,
    ComponentRef,
    Scenario,
    ScenarioRegistry,
    get_scenario,
    register_scenario,
    resolve,
    scenario,
)

FEED_DIR = Path(__file__).parent / "data" / "feeds"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _tiny(**overrides):
    overrides.setdefault("volume_scale", 0.005)
    overrides.setdefault("background_nvd_count", 300)
    return overrides


class TestRegistry:
    def test_register_and_lookup(self):
        registry = ScenarioRegistry()

        @registry.register("toy", kind="rules", description="a toy")
        def toy_rules(config):
            return "ruleset"

        entry = registry.get("rules", "toy")
        assert entry.factory is toy_rules
        assert entry.description == "a toy"
        assert entry.qualified == "rules/toy"
        assert ("rules", "toy") in registry
        assert registry.names("rules") == ["toy"]
        assert [e.name for e in registry.entries("rules")] == ["toy"]

    def test_unknown_kind_rejected(self):
        registry = ScenarioRegistry()
        with pytest.raises(ValueError, match="unknown kind"):
            registry.register("toy", kind="flux-capacitor")

    def test_double_registration_names_both_parties(self):
        registry = ScenarioRegistry()

        @registry.register("dup", kind="traffic")
        def first(config, window):
            pass

        with pytest.raises(ValueError) as excinfo:
            @registry.register("dup", kind="traffic")
            def second(config, window):
                pass

        message = str(excinfo.value)
        assert "first" in message and "second" in message
        assert "replace=True" in message
        # The original registration survives the refused attempt.
        assert registry.get("traffic", "dup").factory is first

    def test_replace_escape_hatch(self):
        registry = ScenarioRegistry()

        @registry.register("dup", kind="traffic")
        def first(config, window):
            pass

        @registry.register("dup", kind="traffic", replace=True)
        def second(config, window):
            pass

        assert registry.get("traffic", "dup").factory is second

    def test_miss_lists_known_names(self):
        with pytest.raises(KeyError, match="paper-traffic"):
            scenario.get("traffic", "no-such-thing")

    def test_builtins_registered(self):
        for kind, name in (
            ("dataset", "synthetic-default"),
            ("dataset", "real-feeds"),
            ("traffic", "paper-traffic"),
            ("traffic", "botnet-burst"),
            ("traffic", "evasive-payloads"),
            ("telescope", "paper-telescope"),
            ("telescope", "sparse-telescope"),
            ("rules", "paper-rules"),
            ("rules", "scaled-rules"),
            ("rca", "paper-rca"),
            ("rca", "strict-rca"),
        ):
            assert (kind, name) in scenario

    def test_at_least_five_builtin_scenarios(self):
        names = scenario.names("scenario")
        assert "paper-default" in names
        # The issue's floor: >= 4 scenarios beyond paper-default.
        assert len([n for n in names if n != "paper-default"]) >= 4


class TestScenarioSpec:
    def test_json_round_trip(self):
        spec = Scenario(
            name="custom",
            description="a test composition",
            components={
                "traffic": ComponentRef("botnet-burst", {"offport_fraction": 0.1}),
                "rca": ComponentRef("strict-rca"),
            },
            config={"volume_scale": 0.25, "seed": 9},
        )
        restored = Scenario.from_json(spec.to_json())
        assert restored == spec

    def test_from_dict_accepts_bare_ref_strings(self):
        spec = Scenario.from_dict(
            {"name": "terse", "components": {"rules": "scaled-rules"}}
        )
        assert spec.components["rules"] == ComponentRef("scaled-rules")

    def test_unknown_component_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kinds"):
            Scenario(name="bad", components={"quantum": ComponentRef("x")})

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError, match="missing 'name'"):
            Scenario.from_dict({"components": {}})

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
    def test_toml_parses(self):
        spec = Scenario.from_toml(
            'name = "toml-scenario"\n'
            'description = "from toml"\n'
            "[components.traffic]\n"
            'ref = "botnet-burst"\n'
            "[config]\n"
            "volume_scale = 0.5\n"
        )
        assert spec.name == "toml-scenario"
        assert spec.components["traffic"].ref == "botnet-burst"
        assert spec.config["volume_scale"] == 0.5

    def test_register_scenario_and_fetch(self):
        spec = Scenario(name="ephemeral-test-scenario", config={"seed": 3})
        register_scenario(spec, replace=True)
        assert get_scenario("ephemeral-test-scenario") == spec


class TestResolution:
    def test_defaults_fill_unset_kinds(self):
        resolved = resolve("paper-default", StudyConfig())
        assert set(resolved.components) == set(COMPONENT_KINDS)
        assert resolved.components["traffic"][0].name == "paper-traffic"
        assert resolved.components["rca"][0].name == "paper-rca"

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(KeyError, match="paper-default"):
            resolve("no-such-scenario", StudyConfig())

    def test_params_only_scenarios_share_fingerprint_with_default(self):
        config = StudyConfig(**_tiny())
        default = resolve("paper-default", config)
        quick = resolve("quick", config)
        assert quick.fingerprint == default.fingerprint

    def test_component_scenarios_diverge_in_fingerprint(self):
        config = StudyConfig(**_tiny())
        default = resolve("paper-default", config)
        fingerprints = {default.fingerprint}
        for name in ("botnet-burst", "evasive-payloads", "sparse-telescope",
                     "scaled-rules", "strict-rca"):
            fingerprints.add(resolve(name, config).fingerprint)
        assert len(fingerprints) == 6

    def test_fingerprint_tracks_component_params(self):
        config = StudyConfig(**_tiny())
        a = resolve(
            Scenario(name="a", components={
                "rules": ComponentRef("scaled-rules", {"size": 100})
            }),
            config,
        )
        b = resolve(
            Scenario(name="b", components={
                "rules": ComponentRef("scaled-rules", {"size": 200})
            }),
            config,
        )
        assert a.fingerprint != b.fingerprint


class TestFeedAdapters:
    def test_nvd_parses_snapshot(self):
        records = parse_nvd2(FEED_DIR / "nvd.json")
        by_id = {record.cve_id: record for record in records}
        # 10 vulnerabilities in the snapshot, one Rejected (skipped).
        assert len(records) == 9
        assert "CVE-2022-0001" not in by_id
        # Metric preference: v3.1 > v3.0 > v2; no metrics -> 0.0.
        assert by_id["CVE-2021-44228"].cvss == 10.0
        assert by_id["CVE-2021-3129"].cvss == 9.8  # v3.0 only
        assert by_id["CVE-2021-34527"].cvss == 9.0  # v2 only
        assert by_id["CVE-2022-30190"].cvss == 0.0  # awaiting analysis
        # Sorted by (published, cve_id) and naive-UTC throughout.
        assert records == sorted(records, key=lambda r: (r.published, r.cve_id))
        assert all(record.published.tzinfo is None for record in records)

    def test_nvd_window_filter(self):
        windowed = parse_nvd2(FEED_DIR / "nvd.json", window=STUDY_WINDOW)
        assert len(windowed) == 8  # CVE-2021-3129 predates the window
        assert all(STUDY_WINDOW.contains(r.published) for r in windowed)

    def test_kev_parses_snapshot(self):
        entries = parse_kev(FEED_DIR / "kev.json")
        assert len(entries) == 6
        by_id = {entry.cve_id: entry for entry in entries}
        log4shell = by_id["CVE-2021-44228"]
        assert log4shell.vendor == "Apache"
        # The KEV catalog carries no NVD publication date.
        assert log4shell.published is None

    def test_fixes_parses_snapshot(self):
        entries = parse_fixes(FEED_DIR / "fixes.csv")
        assert len(entries) == 8
        assert [e.sid for e in entries] == list(
            range(FIX_SID_BASE, FIX_SID_BASE + 8)
        )
        assert all(e.message.startswith("FIX ") for e in entries)
        assert all(e.ports == () for e in entries)

    @pytest.mark.parametrize(
        "parser, filename, offender",
        [
            (parse_nvd2, "nvd-malformed.json", "CVE-2021-99999"),
            (parse_kev, "kev-malformed.json", "NOT-A-CVE-1234"),
            (parse_fixes, "fixes-malformed.csv", "CVE-2022-22965"),
        ],
    )
    def test_malformed_records_named_in_error(self, parser, filename, offender):
        with pytest.raises(FeedParseError) as excinfo:
            parser(FEED_DIR / filename)
        assert offender in str(excinfo.value)

    def test_missing_file_is_loud(self):
        with pytest.raises(FileNotFoundError):
            Nvd2FeedSource(str(FEED_DIR / "no-such.json")).fingerprint()

    def test_source_fingerprints_track_content(self):
        assert (
            Nvd2FeedSource(str(FEED_DIR / "nvd.json")).fingerprint()
            != Nvd2FeedSource(str(FEED_DIR / "nvd-malformed.json")).fingerprint()
        )
        assert (
            KevFeedSource(str(FEED_DIR / "kev.json")).fingerprint()
            != FixesFeedSource(str(FEED_DIR / "fixes.csv")).fingerprint()
        )

    def test_cvss_column_reduces_the_wrapped_feed(self):
        path = str(FEED_DIR / "nvd.json")
        source = Nvd2FeedSource(path, window=STUDY_WINDOW)
        column = CvssColumn(source)
        assert list(column.fetch()) == [
            record.cvss for record in parse_nvd2(path, window=STUDY_WINDOW)
        ]
        assert column.fingerprint() == source.fingerprint()

    def test_real_feeds_bundle(self):
        config = StudyConfig(feed_dir=str(FEED_DIR), scenario="real-feeds")
        resolved = resolve("real-feeds", config)
        bundle = build_bundle(resolved.plan)
        assert bundle.nvd_background == tuple(
            record.cvss
            for record in parse_nvd2(FEED_DIR / "nvd.json", window=STUDY_WINDOW)
        )
        assert len(bundle.nvd_background) == 8
        assert len(bundle.kev) == 6
        assert len(bundle.rule_history) == 8
        # KEV published dates are backfilled from the NVD slot (the studied
        # frame), never left None when the join can fill them.
        assert bundle.kev_by_cve["CVE-2021-44228"].published is not None

    def test_real_feeds_missing_dir_is_actionable(self):
        config = StudyConfig(feed_dir="/no/such/dir")
        with pytest.raises(FileNotFoundError, match="feed-dir"):
            resolve("real-feeds", config)


class TestCacheIdentity:
    def test_paper_default_scenario_keys_like_plain_config(self):
        assert study_key(
            StudyConfig.from_scenario("paper-default")
        ) == study_key(StudyConfig())

    def test_params_only_scenario_keys_like_hand_built(self):
        assert study_key(StudyConfig.from_scenario("quick")) == study_key(
            StudyConfig(
                volume_scale=0.02,
                background_per_exploit=0.3,
                background_nvd_count=2000,
            )
        )

    def test_component_scenarios_diverge_in_key(self):
        keys = {study_key(StudyConfig(**_tiny()))}
        for name in ("botnet-burst", "evasive-payloads", "sparse-telescope",
                     "scaled-rules", "strict-rca"):
            keys.add(study_key(StudyConfig.from_scenario(name, **_tiny())))
        assert len(keys) == 6

    def test_feed_dir_is_execution_only(self):
        # Location is not identity: the cache keys on snapshot *content*
        # (via the plan fingerprint), not on where the files live.
        assert study_key(StudyConfig(**_tiny())) == study_key(
            StudyConfig(feed_dir="/somewhere/else", **_tiny())
        )
        assert "feed_dir" not in semantic_config(StudyConfig(**_tiny()))


class TestPipelineIntegration:
    def test_paper_default_scenario_byte_identical(self):
        plain = run_study(StudyConfig(**_tiny()))
        via_scenario = run_study(
            StudyConfig.from_scenario("paper-default", **_tiny()),
            cache=False,
        )
        assert via_scenario.alerts == plain.alerts
        assert via_scenario.rca_decisions == plain.rca_decisions
        assert via_scenario.timelines == plain.timelines
        assert list(via_scenario.store) == list(plain.store)

    def test_manifest_records_scenario_fingerprint(self):
        result = run_study(
            StudyConfig.from_scenario("strict-rca", **_tiny()), cache=False
        )
        recorded = result.telemetry.manifest.study["scenario"]
        assert recorded["name"] == "strict-rca"
        resolved = resolve("strict-rca", result.config)
        assert recorded["fingerprint"] == resolved.fingerprint

    def test_plain_config_manifest_has_no_scenario_section(self):
        result = run_study(StudyConfig(**_tiny()))
        assert "scenario" not in result.telemetry.manifest.study

    def test_evasive_scenario_changes_detection(self):
        plain = run_study(StudyConfig(**_tiny()))
        evasive = run_study(
            StudyConfig.from_scenario("evasive-payloads", **_tiny()),
            cache=False,
        )
        # Mangled payloads must dodge some signatures, never add alerts.
        assert 0 < len(evasive.alerts) < len(plain.alerts)

    def test_real_feeds_study_runs_offline(self):
        result = run_study(
            StudyConfig.from_scenario(
                "real-feeds", feed_dir=str(FEED_DIR), **_tiny()
            ),
            cache=False,
        )
        assert len(result.kept_cves) > 0
        assert result.telemetry.manifest.study["scenario"]["name"] == "real-feeds"
