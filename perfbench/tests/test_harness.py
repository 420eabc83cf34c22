"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``python3 -m pytest perfbench/tests``.
"""

import pytest

import run
import spans


def _originals():
    found = []
    for module, path, *_ in spans.TARGETS:
        owner, attribute = spans._resolve_owner(module, path)
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        found.append((owner, attribute, raw))
    return found


def _current(owner, attribute):
    return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)


def test_wrappers_are_restored_after_a_traced_run():
    import repro.analysis.pipeline as pipeline
    from repro.analysis.pipeline import StudyConfig

    before = _originals()
    recorder = spans.Recorder("test")
    with spans.traced(recorder):
        assert all(_current(owner, attribute) is not raw for owner, attribute, raw in before)
        result = pipeline.run_study(
            StudyConfig.from_scenario("quick"), cache=False, checkpoints=False,
            manifest=False,
        )
    assert all(_current(owner, attribute) is raw for owner, attribute, raw in before)

    names = {span["name"] for span in recorder.spans}
    assert {"pipeline.run_study", "traffic.generate", "telescope.collect",
            "nids.scan", "analysis.derive"} <= names
    # Coarse entry points only: a handful of spans, never one per session.
    assert len(recorder.spans) < 50 < len(result.store)
    metrics = spans.layer_metrics(recorder.spans)
    assert metrics["telescope.sessions"] == len(result.store)
    assert metrics["nids.alerts"] == len(result.alerts)


def test_wrappers_are_restored_when_the_traced_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder("test")):
            raise RuntimeError("boom")
    assert all(_current(owner, attribute) is raw for owner, attribute, raw in before)


def _span(span_id, parent, name, start, end, **counts):
    return {"id": span_id, "parent": parent, "name": name, "iteration": "0",
            "start": start, "end": end, "counts": counts}


SYNTHETIC = [
    _span(0, None, "pipeline.run_study", 0.0, 10.0),
    _span(1, 0, "traffic.generate", 1.0, 4.0, arrivals=30),
    _span(2, 0, "nids.scan", 5.0, 9.0, sessions=20, alerts=4,
          candidates_evaluated=8, shards_compiled=0, shard_compile_s=0.0),
    _span(3, 2, "cache.study_key", 6.0, 7.0),
    _span(4, None, "experiments.fig1", 11.0, 11.5),
]


def test_self_time_arithmetic_on_a_synthetic_tree():
    assert spans.self_times(SYNTHETIC) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 0.5}
    metrics = spans.layer_metrics(SYNTHETIC)
    assert metrics["pipeline.unattributed_s"] == 3.0
    assert metrics["traffic.generate_s"] == 3.0
    assert metrics["traffic.arrivals_per_s"] == 10.0
    assert metrics["nids.scan_s"] == 3.0
    assert metrics["nids.evaluated_per_alert"] == 2.0
    assert metrics["experiments.fig1_s"] == 0.5
    # Inside run_study the self times add up to its duration; the artifact
    # span outside it is not part of the study's breakdown.
    breakdown = spans.study_breakdown(SYNTHETIC)
    assert sum(breakdown.values()) == 10.0
    assert "experiments.fig1" not in breakdown


def test_overlapping_children_are_not_counted_twice():
    tree = [
        _span(0, None, "pipeline.run_study", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 5.0),
        _span(2, 0, "b", 3.0, 12.0),
    ]
    assert spans.self_times(tree)[0] == 1.0


def _iteration(study="s", artifacts="a", queries="q", ok=True, checks=()):
    return {"ok": ok, "error": None if ok else "Traceback\nValueError: bad",
            "checks": list(checks),
            "digests": {"study": study, "artifacts": artifacts, "queries": queries}}


def test_matching_digests_count_no_failures():
    attempted, failed, problems = run.evaluate(
        "study-cold", [], [_iteration(), _iteration()], {"study": "s", "artifacts": "a",
                                                          "queries": "q"})
    assert (attempted, failed, problems) == (2, 0, [])


def test_an_injected_digest_mismatch_raises_the_error_rate():
    iterations = [_iteration(), _iteration(), _iteration(queries="other")]
    attempted, failed, problems = run.evaluate("rules-10k", [], iterations, None)
    assert (attempted, failed) == (3, 1)
    assert "queries digest differs from iteration 0" in problems[0]


def test_reference_exceptions_checks_and_warm_populate_all_count():
    reference = {"study": "s", "artifacts": "a", "queries": "q"}
    _, failed, _ = run.evaluate("study-cold", [], [_iteration(study="x")], reference)
    assert failed == 1
    _, failed, problems = run.evaluate("study-cold", [], [_iteration(ok=False)], None)
    assert failed == 1 and problems == ["iteration 0: ValueError: bad"]
    _, failed, _ = run.evaluate(
        "study-warm", [], [_iteration(checks=["from_cache=False on study-warm"])], None)
    assert failed == 1
    setups = [{"digests": {"study": "cold"}}]
    _, failed, problems = run.evaluate("study-warm", setups, [_iteration()], None)
    assert failed == 1
    assert "differs from the cold populate run" in problems[0]


def test_layer_times_scale_with_the_speed_factor():
    metrics = spans.layer_metrics(SYNTHETIC, scale=2.0)
    assert metrics["nids.scan_s"] == 6.0
    assert metrics["traffic.arrivals_per_s"] == 5.0
    assert metrics["nids.alerts"] == 4


def test_sections_are_rescaled_by_the_samples_taken_during_them():
    import speed

    reference = speed.REFERENCE_PROBE_S
    # The vCPU runs at half the reference speed from t=10 on.
    samples = [(t / 10, reference if t < 100 else 2 * reference) for t in range(200)]
    assert speed.rescaled(samples, 2.0, 6.0) == 4.0
    assert speed.rescaled(samples, 12.0, 16.0) == 2.0
    # A short section is rated over MIN_SPAN_S around it, here straddling
    # the change of speed at t=10.
    assert speed.factor(samples, 9.94, 9.96) == 0.75
    # Far from every sample, the nearest one rates it.
    assert speed.factor(samples, 50.0, 50.1) == 0.5
    assert speed.factor([], 0.0, 1.0) == 1.0

