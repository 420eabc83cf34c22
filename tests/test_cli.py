"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the study cache at a throwaway root for every CLI test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestListSeedsBaselinesRules:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "fig11" in out

    def test_seeds(self, capsys):
        assert main(["seeds"]) == 0
        out = capsys.readouterr().out
        assert "CVE-2021-44228" in out
        assert "90d 12h" in out

    def test_baselines(self, capsys):
        assert main(["baselines"]) == 0
        out = capsys.readouterr().out
        assert "0.037" in out  # paper's D < P baseline
        assert "Markov" in out

    def test_rules(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "sid:58722" in out  # Log4Shell variant rule
        assert "sid:999001" in out  # false-positive rule

    def test_rules_no_fp(self, capsys):
        assert main(["rules", "--no-fp"]) == 0
        out = capsys.readouterr().out
        assert "sid:999001" not in out


class TestRunAndExperiment:
    def test_run_prints_table4(self, capsys):
        assert main(["run", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Table 4 (measured)" in out
        assert "mean skill" in out
        assert "CVE-2021-90001" in out  # dropped FP CVEs listed

    def test_run_exports_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["run", "--scale", "0.01", "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "experiments.json").read_text())
        assert "table4" in payload
        assert (out_dir / "fig11.txt").exists()
        assert (out_dir / "exposure_cdfs.csv").exists()

    def test_run_second_invocation_hits_cache(self, capsys):
        assert main(["run", "--scale", "0.01"]) == 0
        capsys.readouterr()
        assert main(["run", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "served from the study cache" in out
        assert "Table 4 (measured)" in out

    def test_run_no_cache_never_reads_or_writes(self, capsys, tmp_path):
        cache_dir = tmp_path / "explicit-cache"
        args = ["run", "--scale", "0.01", "--no-cache",
                "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        assert not cache_dir.exists()
        assert "served from the study cache" not in capsys.readouterr().out

    def test_run_with_workers_matches_serial(self, capsys):
        assert main(["run", "--scale", "0.01", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "--scale", "0.01", "--no-cache",
                     "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_run_scenario_quick(self, capsys):
        assert main(["run", "--scenario", "quick", "--scale", "0.01"]) == 0
        assert "Table 4 (measured)" in capsys.readouterr().out

    def test_experiment_finding7(self, capsys):
        assert main(["experiment", "finding7", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "IDS-vendor inclusion" in out
        assert "paper" in out and "measured" in out


class TestWatch:
    def test_final_window_agrees_with_run(self, capsys, tmp_path):
        study = ["--scenario", "quick", "--scale", "0.01", "--json"]
        assert main(["watch", *study, "--window-days", "60",
                     "--out", str(tmp_path / "manifests")]) == 0
        final = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert main(["run", *study, "--no-cache"]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert final["final"]
        for key in ("sessions", "alerts", "events", "kept_cves"):
            assert final[key] == batch[key], key


class TestReport:
    def test_report_known_cve(self, capsys):
        assert main(["report", "2021-44228", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "CVE-2021-44228" in out
        assert "first attack" in out

    def test_report_unknown_cve(self, capsys):
        assert main(["report", "CVE-1999-0001", "--scale", "0.01"]) == 1
        err = capsys.readouterr().err
        assert "unknown CVE" in err


class TestRulesRender:
    def test_rules_gen_prints_generator_texts(self, capsys):
        from repro.nids.parser import parse_rule
        from repro.nids.scale import ScaleConfig, generate_scaled, generate_texts

        assert main(["rules", "gen", "--size", "300"]) == 0
        lines = capsys.readouterr().out.splitlines()
        config = ScaleConfig(size=300)
        assert lines == generate_texts(config)
        assert [parse_rule(line) for line in lines] == [
            scaled.rule for scaled in generate_scaled(config)
        ]

    def test_rules_lint_scaled_passes(self, capsys):
        assert main(["rules", "lint", "--size", "300"]) == 0
        assert "across 300 rules" in capsys.readouterr().out

    def test_rules_prints_study_ruleset(self, capsys):
        from repro.exploits.rulegen import build_study_ruleset
        from repro.nids.parser import parse_rules

        assert main(["rules"]) == 0
        rules = parse_rules(capsys.readouterr().out.splitlines())
        assert len(rules) == 80
        assert rules == build_study_ruleset(port_insensitive=False).rules


class TestRulesLint:
    def test_lint_flags_fp_rules(self, capsys):
        assert main(["rules", "--lint"]) == 0
        out = capsys.readouterr().out
        assert "generic-endpoint" in out
        assert "sid:999001" in out

    def test_lint_clean_without_fp(self, capsys):
        assert main(["rules", "--lint", "--no-fp"]) == 0
        out = capsys.readouterr().out
        assert "generic-endpoint" not in out
