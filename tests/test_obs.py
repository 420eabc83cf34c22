"""The observability subsystem: spans, metrics, manifests, and the
unified ``StudyResult.telemetry`` facade."""

import json
import multiprocessing
import os
import threading
import warnings

import pytest

from repro.analysis.pipeline import (
    StudyConfig,
    run_study,
)
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    Span,
    StageProfiler,
    Tracer,
    get_registry,
    latest_manifest,
    manifests_root,
    publish_mapping,
    render_span_tree,
    span_or_null,
    validate_manifest,
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _tiny_config(**overrides):
    """A config small enough to run the full pipeline in well under a
    second, so the end-to-end tests stay cheap."""
    overrides.setdefault("volume_scale", 0.005)
    overrides.setdefault("background_nvd_count", 300)
    return StudyConfig.from_scenario("quick", **overrides)


class TestTracer:
    def test_nesting_and_attributes(self):
        tracer = Tracer()
        with tracer.span("outer", key="k") as outer:
            with tracer.span("inner") as inner:
                inner.set("n", 3)
            assert tracer.current() is outer
        assert tracer.current() is None
        roots = tracer.roots
        assert [span.name for span in roots] == ["outer"]
        assert roots[0].attributes == {"key": "k"}
        assert [child.name for child in roots[0].children] == ["inner"]
        assert roots[0].children[0].attributes == {"n": 3}
        assert roots[0].duration >= roots[0].children[0].duration >= 0.0

    def test_exception_captured_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("run"):
                with tracer.span("explodes"):
                    raise ValueError("boom")
        root = tracer.roots[0]
        assert root.status == "error"
        failed = root.children[0]
        assert failed.status == "error"
        assert failed.error == "ValueError: boom"
        # The block still closed: duration measured, stack unwound.
        assert failed.duration >= 0.0
        assert tracer.current() is None

    def test_synthetic_child_spans(self):
        tracer = Tracer()
        with tracer.span("scan"):
            tracer.child("chunk-00000", duration=1.25, sessions=10)
        chunk = tracer.roots[0].children[0]
        assert chunk.duration == 1.25
        assert chunk.attributes == {"sessions": 10}

    def test_round_trip_and_render(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("scan", alerts=2):
                pass
        tree = tracer.tree()
        rebuilt = Span.from_dict(tree[0])
        assert rebuilt.as_dict() == tree[0]
        rendered = render_span_tree(tree)
        assert "run" in rendered and "scan" in rendered
        assert "alerts=2" in rendered
        assert "alerts=2" not in render_span_tree(tree, show_attributes=False)

    def test_span_or_null(self):
        with span_or_null(None, "ignored") as span:
            assert span is None
        tracer = Tracer()
        with span_or_null(tracer, "real") as span:
            assert span is not None
        assert [span.name for span in tracer.roots] == ["real"]

    def test_threads_nest_independently(self):
        tracer = Tracer()
        errors = []

        def work(index):
            try:
                with tracer.span(f"thread-{index}"):
                    with tracer.span("inner"):
                        pass
            except Exception as exc:  # pragma: no cover - failure reporter
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        roots = tracer.roots
        assert len(roots) == 4
        assert all(len(root.children) == 1 for root in roots)


class TestMetricsRegistry:
    def test_instruments(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.inc("c")
        registry.set("g", 1.5)
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"] == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
        }
        assert registry.histogram("h").mean == 2.0

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("c", -1)

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.inc("hits")
                registry.observe("latency", 1.0)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("hits").value == 8000
        assert registry.histogram("latency").count == 8000

    def test_merge_snapshot(self):
        source = MetricsRegistry()
        source.inc("c", 5)
        source.set("g", 2.0)
        source.observe("h", 4.0)
        target = MetricsRegistry()
        target.inc("c", 1)
        target.observe("h", 1.0)
        target.merge_snapshot(source.snapshot())
        snapshot = target.snapshot()
        assert snapshot["counters"]["c"] == 6
        assert snapshot["gauges"]["g"] == 2.0
        assert snapshot["histograms"]["h"] == {
            "count": 2, "sum": 5.0, "min": 1.0, "max": 4.0,
        }

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_fork_resets_default_registry(self):
        # Parent state must not leak into (or be double counted via) forked
        # workers: the default registry resets in the child after fork, so
        # worker snapshots are deltas from zero.
        registry = get_registry()
        registry.inc("obs_fork_test", 100)
        try:
            ctx = multiprocessing.get_context("fork")
            # One task per worker process: each snapshot is then one fresh
            # child's delta, so merging them cannot double count.
            with ctx.Pool(2, maxtasksperchild=1) as pool:
                snapshots = pool.map(_fork_worker_publish, range(2), chunksize=1)
            for snapshot in snapshots:
                assert snapshot["counters"].get("obs_fork_test") is None
                assert snapshot["counters"]["obs_fork_worker"] == 7
            merged = MetricsRegistry()
            for snapshot in snapshots:
                merged.merge_snapshot(snapshot)
            assert merged.counter("obs_fork_worker").value == 14
        finally:
            registry.reset()

    def test_publish_mapping_type_routing(self):
        registry = MetricsRegistry()
        publish_mapping(registry, "scan", {
            "sessions": 10,
            "scan_seconds": 0.5,
            "engine": "regex",       # strings skipped
            "from_cache": True,       # bools skipped (not counts)
            "pcre_cache": (1, 2),     # structured values skipped
            "missing": None,          # None skipped
        })
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"scan.sessions": 10}
        assert snapshot["gauges"] == {"scan.scan_seconds": 0.5}


def _fork_worker_publish(_index):
    registry = get_registry()
    registry.inc("obs_fork_worker", 7)
    return registry.snapshot()


def _manifest_kwargs(**execution_overrides):
    execution = {"workers": 1, "from_cache": False, "checkpoint_stages": []}
    execution.update(execution_overrides)
    return dict(
        study={"key": "k" * 32, "code": "c" * 16, "config": {"seed": "1"}},
        outcome={"sessions": 5, "alerts": 3, "events": 3, "kept_cves": 2},
        execution=execution,
        spans=[{"name": "run_study", "started": 1.0, "duration": 2.0,
                "status": "ok"}],
        metrics={"counters": {}, "gauges": {}, "histograms": {}},
    )


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest(**_manifest_kwargs())
        path = manifest.write(tmp_path / "m.json")
        loaded = RunManifest.load(path)
        assert loaded.as_dict() == manifest.as_dict()
        assert loaded.run["pid"] == os.getpid()

    def test_write_is_atomic(self, tmp_path):
        manifest = RunManifest(**_manifest_kwargs())
        path = manifest.write(tmp_path / "deep" / "m.json")
        # No staging residue, and the published file parses standalone.
        assert [p.name for p in path.parent.iterdir()] == ["m.json"]
        assert validate_manifest(json.loads(path.read_text())) == []

    def test_validate_rejects_structural_problems(self):
        assert validate_manifest([]) == ["manifest is not a JSON object"]
        record = RunManifest(**_manifest_kwargs()).as_dict()
        del record["outcome"]
        assert any("outcome" in problem for problem in validate_manifest(record))
        record = RunManifest(**_manifest_kwargs()).as_dict()
        record["outcome"]["sessions"] = "five"
        assert any("sessions" in p for p in validate_manifest(record))
        record = RunManifest(**_manifest_kwargs()).as_dict()
        record["spans"][0]["status"] = "maybe"
        assert any("status" in p for p in validate_manifest(record))
        with pytest.raises(ValueError):
            RunManifest.from_dict({"schema": 1})

    def test_latest_manifest(self, tmp_path):
        assert latest_manifest(tmp_path) is None
        root = manifests_root(tmp_path)
        root.mkdir(parents=True)
        first = root / "a.json"
        first.write_text("{}")
        second = root / "b.json"
        second.write_text("{}")
        os.utime(first, (1, 1))
        (root / "c.json.tmp123").write_text("{}")  # staging is never latest
        assert latest_manifest(tmp_path) == second


class TestStageProfiler:
    def test_disabled_is_a_noop(self):
        profiler = StageProfiler(enabled=False)
        with profiler.stage("traffic"):
            sum(range(100))
        assert profiler.results() is None

    def test_enabled_collects_top_functions(self):
        profiler = StageProfiler(enabled=True, top_n=5)
        with profiler.stage("scan"):
            sorted(range(1000), reverse=True)
        results = profiler.results()
        assert set(results) == {"scan"}
        assert 0 < len(results["scan"]) <= 5
        row = results["scan"][0]
        assert {"function", "ncalls", "tottime", "cumtime"} <= set(row)

    def test_env_gate(self, monkeypatch):
        from repro.obs.profile import profiling_enabled

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not profiling_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not profiling_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profiling_enabled()


class TestPipelineObservability:
    STAGES = ["datasets", "traffic", "capture", "scan", "extract", "timelines"]

    def test_manifest_covers_all_stages_and_reconciles(self, tmp_path):
        result = run_study(_tiny_config(), cache=tmp_path / "c")
        manifest_path = result.telemetry.manifest_path
        assert manifest_path is not None and manifest_path.exists()
        document = json.loads(manifest_path.read_text())
        assert validate_manifest(document) == []
        root = document["spans"][0]
        assert root["name"] == "run_study"
        assert [child["name"] for child in root["children"]] == self.STAGES
        for name in ("traffic", "capture", "scan"):
            stage = next(c for c in root["children"] if c["name"] == name)
            assert stage["attributes"]["source"] == "computed"
        counters = document["metrics"]["counters"]
        scan = result.telemetry.scan
        assert counters["scan.sessions"] == scan.sessions
        assert counters["scan.match_cache_hits"] == scan.match_cache_hits
        assert counters["cache.saves"] == result.telemetry.cache.saves
        assert counters["pipeline.alerts"] == len(result.alerts)
        assert document["outcome"]["kept_cves"] == len(result.kept_cves)
        # wall clock is the parent's measurement, never a worker sum.
        assert scan.wall_seconds > 0.0
        assert scan.cpu_seconds == scan.scan_seconds

    def test_cache_hit_runs_stages_as_cache_sourced(self, tmp_path):
        config = _tiny_config()
        run_study(config, cache=tmp_path / "c")
        result = run_study(config, cache=tmp_path / "c")
        assert result.from_cache
        assert result.telemetry.scan is None
        document = result.telemetry.manifest.as_dict()
        root = document["spans"][0]
        assert [child["name"] for child in root["children"]] == self.STAGES
        for name in ("traffic", "capture", "scan"):
            stage = next(c for c in root["children"] if c["name"] == name)
            assert stage["attributes"]["source"] == "cache"

    def test_serial_and_parallel_agree(self, tmp_path, monkeypatch):
        # Force the pool on: the tiny store is below the break-even size
        # and the chunk-span assertions need real chunks.
        from repro.nids import engine

        monkeypatch.setattr(engine, "DEFAULT_PARALLEL_THRESHOLD", 0)
        serial = run_study(_tiny_config(), cache=tmp_path / "a")
        parallel = run_study(
            _tiny_config(workers=2), cache=tmp_path / "b"
        )
        assert serial.alerts == parallel.alerts
        assert sorted(serial.timelines) == sorted(parallel.timelines)
        serial_doc = serial.telemetry.manifest.as_dict()
        parallel_doc = parallel.telemetry.manifest.as_dict()
        # Identity and outcome are execution-independent...
        assert serial_doc["study"] == parallel_doc["study"]
        assert serial_doc["outcome"] == parallel_doc["outcome"]
        # ...while execution records how each run actually happened.
        assert serial_doc["execution"]["workers"] == 1
        assert parallel_doc["execution"]["workers"] == 2
        scan_span = next(
            c for c in parallel_doc["spans"][0]["children"]
            if c["name"] == "scan"
        )
        chunk_names = [c["name"] for c in scan_span.get("children", [])]
        assert chunk_names and all(
            name.startswith("chunk-") for name in chunk_names
        )

    def test_manifest_false_skips_write(self, tmp_path):
        result = run_study(
            _tiny_config(), cache=tmp_path / "c", manifest=False
        )
        assert result.telemetry.manifest_path is None
        assert result.telemetry.manifest is not None
        assert not manifests_root(tmp_path / "c").exists()

    def test_uncached_run_emits_no_manifest_by_default(self):
        result = run_study(_tiny_config())
        assert result.telemetry.manifest_path is None
        assert result.telemetry.manifest is not None

    def test_explicit_manifest_dir(self, tmp_path):
        result = run_study(_tiny_config(), manifest=tmp_path / "m")
        assert result.telemetry.manifest_path is not None
        assert result.telemetry.manifest_path.parent == tmp_path / "m"

    def test_profile_attaches_to_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        result = run_study(_tiny_config(), cache=tmp_path / "c")
        profile = result.telemetry.manifest.execution["profile"]
        assert set(profile) == {"traffic", "capture", "scan"}
        for rows in profile.values():
            assert rows and "cumtime" in rows[0]

    def test_no_in_repo_caller_triggers_deprecation(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_study(_tiny_config(), cache=tmp_path / "c")


class TestCli:
    def test_trace_and_metrics_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cli-cache")
        args = ["--scenario", "quick", "--scale", "0.005",
                "--cache-dir", cache_dir]
        assert main(["run"] + args) == 0
        capsys.readouterr()

        assert main(["trace", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        for stage in TestPipelineObservability.STAGES:
            assert stage in out
        assert "run_study" in out

        assert main(["metrics", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "scan.sessions" in out
        assert "cache.saves" in out

        assert main(["trace", "--cache-dir", cache_dir, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_manifest(document) == []

    def test_trace_without_manifest_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--cache-dir", str(tmp_path / "empty")]) == 1
        assert "no run manifest" in capsys.readouterr().err

    def test_run_json(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "run", "--scenario", "quick", "--scale", "0.005",
            "--cache-dir", str(tmp_path / "c"), "--json",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["sessions"] > 0
        assert record["manifest"] is not None
