"""Performance benchmarks for the measurement stack itself.

Unlike the per-figure benches (which time artifact regeneration on a cached
study run), these measure the system's throughput: traffic generation,
telescope capture, and NIDS scanning — the pieces a downstream user would
size a deployment with.

``test_nids_scan_engines`` additionally times the scan on the
session-scoped full-scale store, serial and multiprocess, and writes a
machine-readable ``results/BENCH_pipeline.json`` (sessions/sec, parallel
speedup, scan telemetry), so the perf trajectory is tracked across PRs.  Each timing takes the best of
``REPRO_BENCH_REPEATS`` runs (default 3): wall times on shared hosts
swing several-fold under load, and min-of-K is the standard noise
rejection.  Worker count defaults to 4; override with
``REPRO_BENCH_SCAN_WORKERS``.

The parallel numbers carry their context: both ``os.cpu_count()`` and the
*schedulable* core count (``len(os.sched_getaffinity(0))`` — containers
routinely pin a 64-core box to 1 core) are recorded, and any row whose
worker count exceeds the schedulable cores is annotated ``oversubscribed``
/ ``unreliable`` — its speedup measures contention, not the transfer
plane.  ``worker_sweep`` rows force the pool on (``threshold=0``) so the
curve is measurable at any scale; the headline ``parallel_seconds`` runs
under the default break-even policy and records whether it fell back to
serial (``fallback_serial``).  ``REPRO_BENCH_VOLUME_ROW=<scale>`` adds a
scan-only row at a different traffic scale (the issue's ``volume_scale >=
10`` trajectory point) without paying for a full study at that scale.

``test_rules_vs_throughput`` sweeps *ruleset* size instead of traffic
volume: deterministic synthetic Snort rulesets (64 → 10k rules, see
``repro.nids.scale``) scanned serial and forced-parallel over a fixed
synthetic session corpus, recorded to the ``rules_sweep`` section of the
same JSON.  Both writers merge into ``BENCH_pipeline.json`` rather than
overwriting it, so either can run alone.
"""

import json
import os
import time

from repro.datasets.seed_cves import STUDY_WINDOW
from repro.exploits.rulegen import build_study_ruleset
from repro.nids.engine import DetectionEngine
from repro.nids.scale import throughput_sweep
from repro.telescope.collector import DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.traffic.generator import TrafficConfig, TrafficGenerator

SCAN_WORKERS = int(os.environ.get("REPRO_BENCH_SCAN_WORKERS", "4"))
SCAN_REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SWEEP_WORKERS = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_WORKER_SWEEP", "1,2,4,8").split(",")
    if part.strip()
]
VOLUME_ROW_SCALE = float(os.environ.get("REPRO_BENCH_VOLUME_ROW", "0") or 0)


def _merge_results(results_dir, section, payload):
    """Read-modify-write one section of ``BENCH_pipeline.json``.

    ``test_nids_scan_engines`` and ``test_rules_vs_throughput`` each own a
    disjoint slice of the file; merging (instead of overwriting) lets either
    run alone without clobbering the other's committed numbers.
    """
    path = results_dir / "BENCH_pipeline.json"
    document = {}
    if path.exists():
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):  # torn file: rebuild from scratch
            document = {}
    if section is None:
        document.update(payload)
    else:
        document[section] = payload
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _cpu_info():
    """(advertised cores, schedulable cores) — they differ in containers."""
    affinity = None
    if hasattr(os, "sched_getaffinity"):
        try:
            affinity = len(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - affinity unsupported
            affinity = None
    return os.cpu_count(), affinity


def _small_config():
    return TrafficConfig(volume_scale=0.02, background_per_exploit=0.5)


def test_traffic_generation_throughput(benchmark):
    def generate():
        return TrafficGenerator(_small_config()).generate()

    arrivals = benchmark.pedantic(generate, rounds=3, iterations=1)
    assert len(arrivals) > 2000


def test_telescope_capture_throughput(benchmark):
    arrivals = TrafficGenerator(_small_config()).generate()

    def collect():
        collector = DscopeCollector(
            TelescopeConfig(concurrent_instances=300), window=STUDY_WINDOW
        )
        return collector.collect(arrivals)

    store = benchmark.pedantic(collect, rounds=3, iterations=1)
    assert len(store) == len(arrivals)


def test_nids_scan_throughput(benchmark):
    arrivals = TrafficGenerator(_small_config()).generate()
    collector = DscopeCollector(window=STUDY_WINDOW)
    store = collector.collect(arrivals)
    ruleset = build_study_ruleset()

    def scan():
        return DetectionEngine(ruleset).scan(store)

    alerts = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert alerts


def _best_scan(make_engine, store, reference_alerts=None):
    """Best-of-``SCAN_REPEATS`` scan; returns (seconds, alerts, stats).

    Every repeat's alert stream is asserted identical to the reference
    (when given) and to the other repeats, so a timing can never come from
    a run that produced different detections.
    """
    best_seconds = None
    best_stats = None
    alerts = None
    for _ in range(max(1, SCAN_REPEATS)):
        engine = make_engine()
        start = time.perf_counter()
        run_alerts = engine.scan(store)
        elapsed = time.perf_counter() - start
        if alerts is None:
            alerts = run_alerts
        else:
            assert run_alerts == alerts
        if reference_alerts is not None:
            assert run_alerts == reference_alerts
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
            best_stats = engine.stats
    return best_seconds, alerts, best_stats


def test_nids_scan_engines(study_full, results_dir):
    """Serial vs multiprocess scan on the full-scale store.

    Times the serial scan, the multiprocess scan and a worker sweep,
    asserting all of them produce identical alert streams, and records
    everything — including :class:`~repro.nids.engine.ScanTelemetry` — to
    ``BENCH_pipeline.json``.  The speedups themselves are recorded, not
    asserted: they are properties of the host, not of the code.
    """
    store = study_full.store
    sessions = len(store)

    regex_ruleset = build_study_ruleset()
    regex_seconds, regex_alerts, regex_stats = _best_scan(
        lambda: DetectionEngine(regex_ruleset), store
    )
    # Headline parallel row: the *default* break-even policy, so the
    # recorded number is what a run_study(workers=N) user actually gets —
    # including a serial fallback when the store is below break-even.
    parallel_seconds, _, parallel_stats = _best_scan(
        lambda: DetectionEngine(regex_ruleset, workers=SCAN_WORKERS),
        store,
        regex_alerts,
    )
    assert parallel_stats == regex_stats  # telemetry excluded from equality

    cpu_count, cpu_affinity = _cpu_info()
    schedulable = cpu_affinity if cpu_affinity is not None else cpu_count

    def _sweep_row(workers):
        seconds, _, stats = _best_scan(
            lambda: DetectionEngine(regex_ruleset, workers=workers, threshold=0),
            store,
            regex_alerts,
        )
        telemetry = stats.telemetry
        oversubscribed = schedulable is not None and workers > schedulable
        return {
            "workers": workers,
            "seconds": round(seconds, 3),
            "sessions_per_sec": round(sessions / seconds, 1),
            "speedup": round(regex_seconds / seconds, 3),
            "arena_bytes": telemetry.arena_bytes,
            "arena_build_seconds": round(telemetry.arena_build_seconds, 4),
            "transfer_seconds": round(telemetry.transfer_seconds, 4),
            "pool_reuses": telemetry.pool_reuses,
            "fallback_serial": telemetry.fallback_serial,
            # More workers than schedulable cores measures contention,
            # not the transfer plane: the speedup is not trustworthy.
            "oversubscribed": oversubscribed,
            "unreliable": oversubscribed,
        }

    worker_sweep = [_sweep_row(workers) for workers in SWEEP_WORKERS]

    payload = {
        "sessions": sessions,
        "alerts": len(regex_alerts),
        "workers": SCAN_WORKERS,
        "cpu_count": cpu_count,
        "cpu_affinity": cpu_affinity,
        "repeats": SCAN_REPEATS,
        # Legacy keys: the serial and parallel scan numbers, so the
        # trajectory across PRs stays comparable.
        "serial_seconds": round(regex_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "serial_sessions_per_sec": round(sessions / regex_seconds, 1),
        "parallel_sessions_per_sec": round(sessions / parallel_seconds, 1),
        "speedup": round(regex_seconds / parallel_seconds, 3),
        "fallback_serial": parallel_stats.telemetry.fallback_serial,
        "arena_bytes": parallel_stats.telemetry.arena_bytes,
        "volume_scale": study_full.config.volume_scale,
        "worker_sweep": worker_sweep,
        "engines": {
            "regex": {
                "serial_seconds": round(regex_seconds, 3),
                "serial_sessions_per_sec": round(sessions / regex_seconds, 1),
                "parallel_seconds": round(parallel_seconds, 3),
                "parallel_sessions_per_sec": round(
                    sessions / parallel_seconds, 1
                ),
                "telemetry": regex_stats.telemetry.as_dict(),
                "parallel_telemetry": parallel_stats.telemetry.as_dict(),
            },
        },
    }

    if VOLUME_ROW_SCALE > 0:
        # Scan-only trajectory point at a different traffic scale: traffic
        # generation + capture run once (they are not what is being timed),
        # then serial vs default-policy parallel on the resulting store.
        heavy_store = DscopeCollector(window=STUDY_WINDOW).collect(
            TrafficGenerator(
                TrafficConfig(
                    volume_scale=VOLUME_ROW_SCALE, background_per_exploit=1.0
                )
            ).generate()
        )
        heavy_sessions = len(heavy_store)
        heavy_serial, heavy_alerts, _ = _best_scan(
            lambda: DetectionEngine(regex_ruleset), heavy_store
        )
        heavy_parallel, _, heavy_stats = _best_scan(
            lambda: DetectionEngine(regex_ruleset, workers=SCAN_WORKERS),
            heavy_store,
            heavy_alerts,
        )
        oversubscribed = (
            schedulable is not None and SCAN_WORKERS > schedulable
        )
        payload["volume_row"] = {
            "volume_scale": VOLUME_ROW_SCALE,
            "sessions": heavy_sessions,
            "workers": SCAN_WORKERS,
            "serial_seconds": round(heavy_serial, 3),
            "parallel_seconds": round(heavy_parallel, 3),
            "speedup": round(heavy_serial / heavy_parallel, 3),
            "arena_bytes": heavy_stats.telemetry.arena_bytes,
            "fallback_serial": heavy_stats.telemetry.fallback_serial,
            "oversubscribed": oversubscribed,
            "unreliable": oversubscribed,
        }

    _merge_results(results_dir, None, payload)


def test_rules_vs_throughput(results_dir):
    """Scan throughput as the ruleset grows from 64 to 10k synthetic rules.

    Runs :func:`repro.nids.scale.throughput_sweep` — deterministic scaled
    Snort-text rulesets parsed through ``parse_rules``, scanned serial and
    forced-parallel over the same synthetic session corpus — and merges the
    result into ``BENCH_pipeline.json`` under ``rules_sweep``.  Every entry
    asserts the serial and parallel alert streams are byte-identical
    (``alerts_equal``), so a sharding regression fails the bench rather than
    skewing the curve.  Sizes override with ``REPRO_BENCH_RULE_SIZES``;
    sessions with ``REPRO_BENCH_RULE_SESSIONS``.
    """
    sizes = tuple(
        int(part)
        for part in os.environ.get(
            "REPRO_BENCH_RULE_SIZES", "64,1024,4096,10000"
        ).split(",")
        if part.strip()
    )
    session_count = int(os.environ.get("REPRO_BENCH_RULE_SESSIONS", "2000"))
    sweep = throughput_sweep(
        sizes=sizes, session_count=session_count, workers=SCAN_WORKERS
    )
    assert len(sweep["entries"]) == len(sizes)
    assert all(entry["alerts_equal"] for entry in sweep["entries"])
    _merge_results(results_dir, "rules_sweep", sweep)


def test_ruleset_build(benchmark):
    ruleset = benchmark.pedantic(build_study_ruleset, rounds=5, iterations=1)
    assert len(ruleset) == 80
