"""Command-line interface.

Subcommands::

    repro run         run the full study pipeline, print the headline
                      results, optionally export artifacts to a directory
    repro watch       tail the arrival stream window by window: incremental
                      study state, live A<P rate, rolling manifests
    repro serve       HTTP query plane over a columnar study shard
    repro query       answer one serve query offline from the shard
    repro experiment  regenerate one paper table/figure (see `repro list`)
    repro scenarios   list registered scenarios/components, show one, or
                      run the study under one (`scenarios run real-feeds`)
    repro feeds       real-feed snapshots: fetch (network, explicit only),
                      verify content hashes, show parsed record counts
    repro report      per-CVE lifecycle dossier from a study run
    repro trace       render a run manifest's span tree (where time went)
    repro metrics     render a run manifest's metrics snapshot
    repro list        list regenerable experiments
    repro rules       dump the study ruleset; `rules gen|lint|bench` work
                      with scaled synthetic rulesets (10k-rule scale)
    repro seeds       print the encoded Appendix E seed table
    repro baselines   paper baselines vs exactly computed Markov baselines
    repro cache       study-cache maintenance (stats / verify / gc / clear)

Flags are uniform across subcommands: every study-running or
manifest-reading subcommand accepts ``--workers``, ``--cache`` /
``--no-cache``, ``--cache-dir``, and ``--json`` with identical meanings,
via one shared parent parser.  Every subcommand is deterministic for a
given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import timedelta
from pathlib import Path
from typing import List, Optional

from repro.analysis.pipeline import StudyConfig, StudyResult, run_study
from repro.experiments.registry import list_experiments, run_experiment
from repro.util.tables import render_table


def _positive_int(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def common_parent() -> argparse.ArgumentParser:
    """The flags every study-running / manifest-reading subcommand shares.

    One definition means one spelling, one help text, and one default for
    ``--workers``, ``--cache`` / ``--no-cache``, ``--cache-dir``, and
    ``--json`` across ``run``, ``experiment``, ``report``, ``trace``,
    ``metrics``, and the cache maintenance subcommands.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for the NIDS scan (the only parallel "
             "stage; 1 = serial; results are identical for any value)",
    )
    parent.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="reuse study intermediates from the on-disk cache "
             "(default on; see --cache-dir)",
    )
    parent.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="study cache root (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parent.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parent


def study_parent() -> argparse.ArgumentParser:
    """Flags that shape the study configuration itself."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scale", type=float, default=None,
        help="traffic volume scale (1.0 = the paper's full ~117k events; "
             "default 0.05, or the scenario's scale with --scenario)",
    )
    parent.add_argument("--seed", type=int, default=20230321)
    parent.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="registered scenario to compose the pipeline from "
             "(see `repro scenarios list`)",
    )
    parent.add_argument(
        "--feed-dir", default=None, metavar="DIR",
        help="directory holding real-feed snapshots (nvd.json, kev.json, "
             "fixes.csv) for feed-backed scenarios",
    )
    return parent


def _study_config(args: argparse.Namespace) -> StudyConfig:
    """The StudyConfig a subcommand's flags describe (run and watch agree)."""
    overrides = {"seed": args.seed, "workers": args.workers}
    if args.scale is not None:
        overrides["volume_scale"] = args.scale
    if getattr(args, "feed_dir", None) is not None:
        overrides["feed_dir"] = args.feed_dir
    scenario_name = getattr(args, "scenario", None)
    if scenario_name is not None:
        try:
            return StudyConfig.from_scenario(scenario_name, **overrides)
        except KeyError as error:
            raise SystemExit(f"error: {error.args[0]}") from None
    overrides.setdefault("volume_scale", 0.05)
    return StudyConfig(background_nvd_count=5000, **overrides)


def _study(args: argparse.Namespace) -> StudyResult:
    config = _study_config(args)
    cache = None
    if args.cache:
        from repro.cache import StudyCache

        cache = StudyCache(root=args.cache_dir)
    return run_study(config, cache=cache)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.exposure import mitigated_share
    from repro.core.skill import compute_skill, mean_skill
    from repro.reporting.tables import render_skill_table

    result = _study(args)
    reports = compute_skill(result.timelines.values())
    if args.json:
        manifest_path = result.telemetry.manifest_path
        print(json.dumps(
            {
                "from_cache": result.from_cache,
                "sessions": len(result.store),
                "alerts": len(result.alerts),
                "events": len(result.kept_events),
                "kept_cves": result.kept_cves,
                "dropped_cves": result.dropped_cves,
                "mean_skill": mean_skill(reports),
                "mitigated_share": mitigated_share(result.kept_events),
                "manifest": (
                    str(manifest_path) if manifest_path is not None else None
                ),
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    if result.from_cache:
        print("(traffic, capture, and scan served from the study cache)\n")
    print(render_skill_table(reports, title="Table 4 (measured)"))
    print(f"\nmean skill: {mean_skill(reports):.2f}")
    print(f"exploit events: {len(result.kept_events):,} across "
          f"{len(result.kept_cves)} CVEs "
          f"(dropped: {', '.join(result.dropped_cves) or 'none'})")
    print(f"per-event mitigated share: "
          f"{mitigated_share(result.kept_events):.2f}")

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _export_artifacts(result, out)
        print(f"\nartifacts written to {out}/")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.analysis.streaming import watch_study

    config = _study_config(args)
    manifest_dir = args.out
    if manifest_dir is None:
        from repro.cache import default_cache_root
        from repro.obs import manifests_root

        manifest_dir = manifests_root(args.cache_dir or default_cache_root())
    window_span = timedelta(days=args.window_days)
    if window_span <= timedelta(0):
        print("error: --window-days must be positive", file=sys.stderr)
        return 2
    report = None
    for report in watch_study(
        config,
        window_span=window_span,
        max_windows=args.max_windows,
        manifest_dir=manifest_dir,
    ):
        snapshot = report.snapshot
        rate = snapshot.a_before_p_rate
        # Kept events, as `repro run` counts them.
        events = sum(map(len, snapshot.events_per_cve.values()))
        if args.json:
            # One JSON object per window (JSONL), streamed as it happens.
            print(json.dumps({
                "window": report.index,
                "start": report.start.isoformat(),
                "end": report.end.isoformat(),
                "final": report.final,
                "window_sessions": report.sessions,
                "window_alerts": report.alerts,
                "sessions": snapshot.sessions_seen,
                "alerts": len(snapshot.alerts),
                "events": events,
                "kept_cves": snapshot.kept_cves,
                "a_before_p_rate": rate,
                "cursor": report.cursor,
                "manifest": (
                    str(report.manifest_path)
                    if report.manifest_path is not None else None
                ),
            }, sort_keys=True), flush=True)
        else:
            rate_text = f"{rate:.2f}" if rate is not None else "n/a"
            print(
                f"window {report.index:>4} "
                f"[{report.start:%Y-%m-%d} .. {report.end:%Y-%m-%d})  "
                f"+{report.sessions:>6} sessions  +{report.alerts:>5} alerts"
                f"  |  cumulative: {snapshot.sessions_seen:,} sessions, "
                f"{len(snapshot.alerts):,} alerts, "
                f"{events:,} events, "
                f"{len(snapshot.kept_cves)} CVEs  |  A<P {rate_text}",
                flush=True,
            )
    if report is None:
        print("no windows produced", file=sys.stderr)
        return 1
    if not args.json:
        print(f"\nrolling manifests under {manifest_dir}/")
    return 0


def _serve_study(args: argparse.Namespace):
    """(study, built) for serve/query: mmapped shard, built on first use."""
    from repro.store import load_shard, shard_for_config

    if args.shard is not None:
        return load_shard(args.shard), False
    config = _study_config(args)
    return shard_for_config(config, cache_root=args.cache_dir)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.store import StudyServer, StudyService

    study, built = _serve_study(args)
    service = StudyService(study)
    if built:
        print(f"shard built and published (etag {service.etag})",
              file=sys.stderr)
    server = StudyServer(service, host=args.host, port=args.port)

    async def _run() -> None:
        host, port = await server.start()
        print(f"serving study {service.etag} on http://{host}:{port}/ "
              f"(endpoints: /healthz /stats /v1/<query>)", file=sys.stderr)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.store import QueryError, StudyService

    study, _ = _serve_study(args)
    service = StudyService(study)
    params = {}
    if args.later is not None:
        params["later"] = args.later
    if args.earlier is not None:
        params["earlier"] = args.earlier
    if args.shifts is not None:
        params["shifts"] = args.shifts
    if args.within is not None:
        params["within"] = str(args.within)
    try:
        body = service.answer_bytes(args.query, params)
    except QueryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.stdout.write(body.decode("utf-8"))
    return 0


def _export_artifacts(result: StudyResult, out: Path) -> None:
    from repro.reporting.export import export_csv, export_json
    from repro.reporting.figures import downsample_cdf, figure_series
    from repro.core.exposure import exposure_cdf

    mitigated, unmitigated = exposure_cdf(result.kept_events, result.timelines)
    export_csv(
        out / "exposure_cdfs.csv",
        [
            downsample_cdf(mitigated),
            downsample_cdf(unmitigated),
        ],
    )
    summaries = {}
    for experiment_id in list_experiments():
        report = run_experiment(experiment_id, result)
        summaries[experiment_id] = {
            "title": report.title,
            "paper": report.paper,
            "measured": report.measured,
        }
        (out / f"{experiment_id}.txt").write_text(report.text + "\n")
    export_json(out / "experiments.json", summaries)


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = _study(args)
    report = run_experiment(args.id, result)
    if args.json:
        print(json.dumps(
            {
                "experiment": report.experiment_id,
                "title": report.title,
                "paper": report.paper,
                "measured": report.measured,
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"{report.experiment_id}: {report.title}\n")
    if report.paper:
        rows = [
            [key, f"{value:.3f}", f"{report.measured.get(key, float('nan')):.3f}"]
            for key, value in report.paper.items()
        ]
        print(render_table(["quantity", "paper", "measured"], rows))
        print()
    print(report.text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting.cve_report import build_cve_report, render_cve_report

    result = _study(args)
    cve_id = args.cve.upper()
    if not cve_id.startswith("CVE-"):
        cve_id = f"CVE-{cve_id}"
    timeline = result.timelines.get(cve_id)
    if timeline is None:
        print(f"unknown CVE {cve_id}; studied CVEs:", file=sys.stderr)
        for known in sorted(result.timelines):
            print(f"  {known}", file=sys.stderr)
        return 1
    events = result.events_per_cve.get(cve_id, ())
    report = build_cve_report(timeline, events)
    if args.json:
        import dataclasses

        record = dataclasses.asdict(report)
        print(json.dumps(record, indent=2, sort_keys=True, default=str))
        return 0
    print(render_cve_report(report))
    return 0


def _resolve_manifest_path(args: argparse.Namespace) -> Optional[Path]:
    """The manifest a trace/metrics subcommand should read.

    An explicit positional path wins; otherwise the newest manifest under
    the cache root (``--cache-dir`` / ``$REPRO_CACHE_DIR`` / the default).
    """
    from repro.cache import default_cache_root
    from repro.obs import latest_manifest

    if args.manifest is not None:
        return Path(args.manifest)
    root = Path(args.cache_dir) if args.cache_dir else default_cache_root()
    return latest_manifest(root)


def _load_manifest(args: argparse.Namespace):
    from repro.obs import RunManifest

    path = _resolve_manifest_path(args)
    if path is None or not path.exists():
        print(
            "no run manifest found; run a study first (repro run) or pass "
            "a manifest path",
            file=sys.stderr,
        )
        return None, None
    return path, RunManifest.load(path)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_span_tree

    path, manifest = _load_manifest(args)
    if manifest is None:
        return 1
    if args.json:
        print(json.dumps(manifest.as_dict(), indent=2, sort_keys=True))
        return 0
    study = manifest.study
    execution = manifest.execution
    print(f"manifest: {path}")
    print(f"study key: {study.get('key')}")
    print(
        f"workers: {execution.get('workers')}  "
        f"from_cache: {execution.get('from_cache')}  "
        f"checkpoints: {execution.get('checkpoint_stages') or 'none'}"
    )
    print()
    print(render_span_tree(manifest.spans, show_attributes=not args.no_attrs))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    path, manifest = _load_manifest(args)
    if manifest is None:
        return 1
    metrics = manifest.metrics
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
        return 0
    print(f"manifest: {path}\n")
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    if counters:
        rows = [[name, f"{int(value):,}"] for name, value in sorted(counters.items())]
        print(render_table(["counter", "value"], rows))
    if gauges:
        print()
        rows = [[name, f"{float(value):.6g}"] for name, value in sorted(gauges.items())]
        print(render_table(["gauge", "value"], rows))
    if histograms:
        print()
        rows = [
            [
                name,
                record.get("count"),
                f"{float(record.get('sum') or 0.0):.6g}",
                record.get("min"),
                record.get("max"),
            ]
            for name, record in sorted(histograms.items())
        ]
        print(render_table(["histogram", "count", "sum", "min", "max"], rows))
    if not (counters or gauges or histograms):
        print("(no metrics recorded)")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.scenarios import COMPONENT_KINDS, get_scenario, scenario

    if args.json:
        record = {
            "scenarios": {
                name: get_scenario(name).to_dict()
                for name in scenario.names("scenario")
            },
            "components": {
                kind: {
                    entry.name: entry.description
                    for entry in scenario.entries(kind)
                }
                for kind in COMPONENT_KINDS
            },
        }
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    rows = [
        [entry.name, entry.description]
        for entry in scenario.entries("scenario")
    ]
    print(render_table(["scenario", "description"], rows,
                       title="Registered scenarios"))
    if args.components:
        for kind in COMPONENT_KINDS:
            rows = [
                [entry.name, entry.description]
                for entry in scenario.entries(kind)
            ]
            print()
            print(render_table([kind, "description"], rows))
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    from repro.scenarios import get_scenario, resolve

    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    config = _study_config(args)
    resolved = resolve(spec, config)
    if args.json:
        record = spec.to_dict()
        record["resolved"] = {
            "fingerprint": resolved.fingerprint,
            "components": {
                kind: {"ref": registration.name, "params": params}
                for kind, (registration, params) in sorted(
                    resolved.components.items()
                )
            },
        }
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    print(f"{spec.name}: {spec.description}")
    print(f"fingerprint (this config): {resolved.fingerprint}")
    if spec.config:
        print("config overrides:")
        for name, value in sorted(spec.config.items()):
            print(f"  {name} = {value}")
    print("components:")
    for kind, (registration, params) in sorted(resolved.components.items()):
        suffix = f"  {params}" if params else ""
        print(f"  {kind:<10} {registration.name}{suffix}")
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    args.scenario = args.name
    return _cmd_run(args)


def _feeds_dir(args: argparse.Namespace) -> Path:
    return Path(args.feed_dir if args.feed_dir is not None else "feeds")


def _cmd_feeds_fetch(args: argparse.Namespace) -> int:
    from repro.datasets.feeds.fetch import FEED_URLS, fetch_feed

    feed_dir = _feeds_dir(args)
    names = args.names or sorted(FEED_URLS)
    for name in names:
        try:
            digest = fetch_feed(name, feed_dir, url=args.url)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        except OSError as error:
            print(f"error fetching {name}: {error}", file=sys.stderr)
            return 1
        print(f"{name}: fetched into {feed_dir}/ (blake2b {digest})")
    return 0


def _cmd_feeds_verify(args: argparse.Namespace) -> int:
    from repro.datasets.feeds.fetch import verify_feeds

    feed_dir = _feeds_dir(args)
    statuses = verify_feeds(feed_dir)
    if not statuses:
        print(f"no hash manifest under {feed_dir}/ (fetch first)",
              file=sys.stderr)
        return 1
    failed = False
    for filename, status in statuses.items():
        print(f"{filename}: {status}")
        failed = failed or status != "ok"
    return 1 if failed else 0


def _cmd_feeds_show(args: argparse.Namespace) -> int:
    from repro.datasets.feeds import (
        FeedParseError,
        FixesFeedSource,
        KevFeedSource,
        Nvd2FeedSource,
    )

    feed_dir = _feeds_dir(args)
    sources = [
        ("nvd.json", Nvd2FeedSource),
        ("kev.json", KevFeedSource),
        ("fixes.csv", FixesFeedSource),
    ]
    record = {}
    for filename, source_cls in sources:
        path = feed_dir / filename
        if not path.is_file():
            record[filename] = {"status": "missing"}
            continue
        source = source_cls(str(path))
        try:
            records = source.fetch()
        except FeedParseError as error:
            record[filename] = {"status": "parse error", "error": str(error)}
            continue
        record[filename] = {
            "status": "ok",
            "records": len(records),
            "fingerprint": source.fingerprint(),
        }
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 1 if any(v["status"] != "ok" for v in record.values()) else 0
    rows = [
        [
            filename,
            info["status"],
            info.get("records", "-"),
            info.get("fingerprint", info.get("error", "-")),
        ]
        for filename, info in record.items()
    ]
    print(render_table(["snapshot", "status", "records", "fingerprint"],
                       rows, title=f"feeds under {feed_dir}/"))
    return 1 if any(v["status"] != "ok" for v in record.values()) else 0


def _scale_config(args: argparse.Namespace):
    from repro.nids.scale import ScaleConfig

    return ScaleConfig(
        size=args.size, seed=args.seed, fodder_fraction=args.fodder
    )


def _cmd_rules_gen(args: argparse.Namespace) -> int:
    from repro.nids.scale import generate_scaled

    for scaled in generate_scaled(_scale_config(args)):
        if args.dates:
            print(f"# published {scaled.published:%Y-%m-%d %H:%M}")
        print(scaled.text)
    return 0


def _cmd_rules_lint(args: argparse.Namespace) -> int:
    from repro.nids.scale import generate_scaled, lint_scaled

    scaled = generate_scaled(_scale_config(args))
    counts, unexpected = lint_scaled(scaled)
    for check in sorted(counts):
        print(f"{check}: {counts[check]}")
    fodder = sum(1 for item in scaled if item.fodder is not None)
    print(f"\n{sum(counts.values())} finding(s) across {len(scaled)} rules "
          f"({fodder} deliberate fodder)")
    if unexpected:
        print(f"\n{len(unexpected)} unexpected gating finding(s):")
        for finding in unexpected:
            print(f"  sid:{finding.sid}  [{finding.check}]  {finding.message}")
        return 1
    return 0


def _cmd_rules_bench(args: argparse.Namespace) -> int:
    from repro.nids.scale import throughput_sweep

    sizes = [int(piece) for piece in args.sizes.split(",") if piece]
    sweep = throughput_sweep(
        sizes=sizes,
        session_count=args.sessions,
        seed=args.seed,
        workers=args.workers,
    )
    if args.json:
        print(json.dumps(sweep, indent=2, sort_keys=True))
        return 0
    rows = []
    ok = True
    for entry in sweep["entries"]:
        serial = entry["serial"]
        parallel = entry["parallel"]
        ok = ok and entry["alerts_equal"]
        rows.append([
            entry["rules"],
            entry["prefilter_shards"],
            f"{serial['sessions_per_second']:,.0f}",
            f"{parallel['sessions_per_second']:,.0f}",
            serial["alerts"],
            "yes" if entry["alerts_equal"] else "NO",
        ])
    print(render_table(
        ["rules", "shards", "serial sess/s", "parallel sess/s", "alerts", "equal"],
        rows,
        title=f"rules-vs-throughput ({sweep['session_count']} sessions)",
    ))
    return 0 if ok else 1


def _cmd_rules(args: argparse.Namespace) -> int:
    command = getattr(args, "rules_command", None)
    if command == "gen":
        return _cmd_rules_gen(args)
    if command == "lint":
        return _cmd_rules_lint(args)
    if command == "bench":
        return _cmd_rules_bench(args)

    from repro.exploits.rulegen import generate_all_rule_texts, generate_all_rules

    if args.lint:
        from repro.nids.lint import lint_rules

        rules = [
            rule
            for rule, _ in generate_all_rules(include_false_positives=not args.no_fp)
        ]
        findings = lint_rules(rules)
        for finding in findings:
            print(f"sid:{finding.sid}  [{finding.check}]  {finding.message}")
        print(f"\n{len(findings)} finding(s) across {len(rules)} rules")
        return 0

    for text, published in generate_all_rule_texts(
        include_false_positives=not args.no_fp
    ):
        print(f"# published {published:%Y-%m-%d %H:%M}")
        print(text)
    return 0


def _cmd_seeds(args: argparse.Namespace) -> int:
    from repro.datasets.seed_cves import SEED_CVES

    rows = [
        [
            seed.cve_id,
            f"{seed.published:%Y-%m-%d}",
            seed.events,
            seed.impact,
            seed.d_minus_p,
            seed.x_minus_p,
            seed.a_minus_p,
        ]
        for seed in SEED_CVES
    ]
    print(render_table(
        ["CVE", "P", "events", "CVSS", "D - P", "X - P", "A - P"],
        rows,
        title="Appendix E (encoded seed table)",
    ))
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    from repro.core.histories import (
        HOUSEHOLDER_SPRING_MODEL,
        THIS_WORK_MODEL,
        baseline_frequencies,
    )
    from repro.core.skill import PAPER_BASELINES

    hs = baseline_frequencies(HOUSEHOLDER_SPRING_MODEL)
    tw = baseline_frequencies(THIS_WORK_MODEL)
    rows = []
    for desid, hs_value in hs.items():
        rows.append([
            desid.label,
            f"{PAPER_BASELINES[desid.label]:.3f}",
            f"{float(hs_value):.3f}",
            f"{float(tw[desid]):.3f}",
        ])
    print(render_table(
        ["desideratum", "paper (H&S published)", "Markov (H&S prereqs)",
         "Markov (this-work prereqs)"],
        rows,
        title="Luck baselines",
    ))
    return 0


def _open_cache(args: argparse.Namespace):
    from repro.cache import StudyCache

    return StudyCache(root=args.cache_dir)


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    raise AssertionError("unreachable")


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    snapshot = cache.stats()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"cache root: {snapshot['root']}")
    print(f"entries: {snapshot['entry_count']} "
          f"({_format_bytes(snapshot['total_bytes'])}); "
          f"partial entries: {snapshot['partial_count']}; "
          f"staging dirs: {snapshot['staging_count']}")
    if snapshot["entries"]:
        rows = []
        for entry in snapshot["entries"]:
            records = entry["records"]
            rows.append([
                entry["key"][:16],
                "yes" if entry["complete"] else "TORN",
                records.get("sessions", "-"),
                records.get("alerts", "-"),
                _format_bytes(entry["bytes"]),
                entry["config"].get("volume_scale", "-"),
                entry["config"].get("seed", "-"),
            ])
        print()
        print(render_table(
            ["key", "complete", "sessions", "alerts", "size",
             "scale", "seed"],
            rows,
        ))
    if snapshot["partials"]:
        now = time.time()
        rows = [
            [
                partial["key"][:16],
                ",".join(partial["stages"]) or "-",
                _format_bytes(partial["bytes"]),
                f"{max(0.0, now - partial['newest']) / 3600:.1f}h",
            ]
            for partial in snapshot["partials"]
        ]
        print()
        print(render_table(["partial key", "stages", "size", "age"], rows))
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    reports = cache.verify(deep=not args.shallow)
    bad = [report for report in reports if not report.ok]
    for report in reports:
        print(report.summary)
    if bad and args.evict:
        import shutil

        for report in bad:
            shutil.rmtree(report.path, ignore_errors=True)
        print(f"\nevicted {len(bad)} failing entr"
              f"{'y' if len(bad) == 1 else 'ies'}")
        return 0
    print(f"\n{len(reports) - len(bad)} ok, {len(bad)} failing "
          f"of {len(reports)} entr{'y' if len(reports) == 1 else 'ies'}")
    return 1 if bad else 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from datetime import timedelta

    cache = _open_cache(args)
    report = cache.gc(
        max_age=(
            timedelta(days=args.max_age_days)
            if args.max_age_days is not None else None
        ),
        max_bytes=args.max_bytes,
    )
    print(f"staging dirs removed: {report.staging_removed}")
    print(f"torn entries removed: {report.torn_removed}")
    print(f"expired entries removed: {report.expired_removed}")
    print(f"size-bound evictions: {report.size_evicted}")
    print(f"partial entries removed: {report.partials_removed}")
    print(f"freed: {_format_bytes(report.bytes_freed)}; kept: "
          f"{report.entries_kept} entr"
          f"{'y' if report.entries_kept == 1 else 'ies'} "
          f"({_format_bytes(report.bytes_kept)})")
    # Rolling watch-* manifests accumulate one file per window; the same
    # gc pass bounds them (always keeping each run's newest, the resume
    # point).
    manifest_report = cache.gc_manifests(
        max_age=(
            timedelta(days=args.watch_max_age_days)
            if args.watch_max_age_days is not None else None
        ),
        max_count=args.watch_max_count,
    )
    print(f"watch manifests removed: {manifest_report.manifests_removed} "
          f"({_format_bytes(manifest_report.bytes_freed)}); kept: "
          f"{manifest_report.manifests_kept}")
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    removed = cache.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.root}")
    return 0


def _add_cache_commands(subparsers, common: argparse.ArgumentParser) -> None:
    cache_parser = subparsers.add_parser(
        "cache", help="study-cache maintenance"
    )
    cache_subparsers = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )

    stats_parser = cache_subparsers.add_parser(
        "stats", parents=[common],
        help="entry population, sizes, and telemetry",
    )
    stats_parser.set_defaults(func=_cmd_cache_stats)

    verify_parser = cache_subparsers.add_parser(
        "verify", parents=[common],
        help="check every entry against its checksum manifest",
    )
    verify_parser.add_argument(
        "--shallow", action="store_true",
        help="skip digest recomputation (existence and sizes only)",
    )
    verify_parser.add_argument(
        "--evict", action="store_true",
        help="remove entries that fail verification",
    )
    verify_parser.set_defaults(func=_cmd_cache_verify)

    gc_parser = cache_subparsers.add_parser(
        "gc", parents=[common],
        help="remove orphaned staging dirs, torn and bounded-out entries",
    )
    gc_parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="evict entries and partial entries older than DAYS",
    )
    gc_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="evict oldest entries until the cache fits in N bytes",
    )
    gc_parser.add_argument(
        "--watch-max-age-days", type=float, default=None, metavar="DAYS",
        help="remove rolling watch-* manifests older than DAYS "
             "(the newest per watch run is always kept)",
    )
    gc_parser.add_argument(
        "--watch-max-count", type=_positive_int, default=None, metavar="N",
        help="keep at most the N newest watch-* manifests per watch run",
    )
    gc_parser.set_defaults(func=_cmd_cache_gc)

    clear_parser = cache_subparsers.add_parser(
        "clear", parents=[common],
        help="drop every entry, partial entries included"
    )
    clear_parser.set_defaults(func=_cmd_cache_clear)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The CVE Wayback Machine' (IMC 2023)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    common = common_parent()
    study = study_parent()

    run_parser = subparsers.add_parser(
        "run", parents=[common, study], help="run the full study"
    )
    run_parser.add_argument("--out", help="directory for exported artifacts")
    run_parser.set_defaults(func=_cmd_run)

    watch_parser = subparsers.add_parser(
        "watch", parents=[common, study],
        help="tail the arrival stream; incremental study per window",
    )
    watch_parser.add_argument(
        "--window-days", type=float, default=7.0, metavar="DAYS",
        help="arrival window span in days (default 7)",
    )
    watch_parser.add_argument(
        "--max-windows", type=_positive_int, default=None, metavar="N",
        help="stop after N windows (default: run the stream out)",
    )
    watch_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="rolling manifest directory "
             "(default <cache root>/manifests)",
    )
    watch_parser.set_defaults(func=_cmd_watch)

    serve_parser = subparsers.add_parser(
        "serve", parents=[common, study],
        help="HTTP query plane over a columnar study shard",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321,
        help="bind port (default 8321; 0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--shard", default=None, metavar="PATH",
        help="serve an explicit shard file instead of the config's",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    query_parser = subparsers.add_parser(
        "query", parents=[common, study],
        help="answer one serve query offline from the shard",
    )
    from repro.store.service import QUERY_NAMES

    query_parser.add_argument("query", choices=list(QUERY_NAMES))
    query_parser.add_argument(
        "--shard", default=None, metavar="PATH",
        help="query an explicit shard file instead of the config's",
    )
    query_parser.add_argument(
        "--later", default=None, metavar="EVENT",
        help="windows query: the later lifecycle event (default A)",
    )
    query_parser.add_argument(
        "--earlier", default=None, metavar="EVENT",
        help="windows query: the earlier lifecycle event (default D)",
    )
    query_parser.add_argument(
        "--shifts", default=None, metavar="DAYS,DAYS,...",
        help="windows query: shifted-satisfaction shifts in days",
    )
    query_parser.add_argument(
        "--within", type=float, default=None, metavar="DAYS",
        help="windows query: narrow-violation window (default 30)",
    )
    query_parser.set_defaults(func=_cmd_query)

    experiment_parser = subparsers.add_parser(
        "experiment", parents=[common, study],
        help="regenerate one paper table/figure",
    )
    experiment_parser.add_argument("id", choices=list_experiments())
    experiment_parser.set_defaults(func=_cmd_experiment)

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list, inspect, and run registered scenarios"
    )
    scenarios_subparsers = scenarios_parser.add_subparsers(
        dest="scenarios_command", required=True
    )
    scenarios_list_parser = scenarios_subparsers.add_parser(
        "list", parents=[common], help="registered scenarios (and components)"
    )
    scenarios_list_parser.add_argument(
        "--components", action="store_true",
        help="also list registered components by kind",
    )
    scenarios_list_parser.set_defaults(func=_cmd_scenarios_list)

    scenarios_show_parser = scenarios_subparsers.add_parser(
        "show", parents=[common, study],
        help="one scenario's spec, resolved components, and fingerprint",
    )
    scenarios_show_parser.add_argument("name", help="scenario name")
    scenarios_show_parser.set_defaults(func=_cmd_scenarios_show)

    scenarios_run_parser = scenarios_subparsers.add_parser(
        "run", parents=[common, study],
        help="run the full study under a scenario (same output as `run`)",
    )
    scenarios_run_parser.add_argument("name", help="scenario name")
    scenarios_run_parser.add_argument(
        "--out", help="directory for exported artifacts"
    )
    scenarios_run_parser.set_defaults(func=_cmd_scenarios_run)

    feeds_parser = subparsers.add_parser(
        "feeds", help="fetch, verify, and inspect real-feed snapshots"
    )
    feeds_subparsers = feeds_parser.add_subparsers(
        dest="feeds_command", required=True
    )

    def _feeds_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--feed-dir", default=None, metavar="DIR",
            help="snapshot directory (default ./feeds)",
        )
        sub.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

    feeds_fetch_parser = feeds_subparsers.add_parser(
        "fetch",
        help="download feed snapshots (the only networked command; "
             "records content hashes)",
    )
    _feeds_args(feeds_fetch_parser)
    feeds_fetch_parser.add_argument(
        "names", nargs="*",
        help="snapshot filenames to fetch (default: all known feeds)",
    )
    feeds_fetch_parser.add_argument(
        "--url", default=None,
        help="explicit source URL (single snapshot only)",
    )
    feeds_fetch_parser.set_defaults(func=_cmd_feeds_fetch)

    feeds_verify_parser = feeds_subparsers.add_parser(
        "verify", help="recompute snapshot hashes against the manifest"
    )
    _feeds_args(feeds_verify_parser)
    feeds_verify_parser.set_defaults(func=_cmd_feeds_verify)

    feeds_show_parser = feeds_subparsers.add_parser(
        "show", help="parse local snapshots; record counts and fingerprints"
    )
    _feeds_args(feeds_show_parser)
    feeds_show_parser.set_defaults(func=_cmd_feeds_show)

    report_parser = subparsers.add_parser(
        "report", parents=[common, study],
        help="per-CVE lifecycle dossier",
    )
    report_parser.add_argument("cve", help="CVE id (e.g. CVE-2021-44228)")
    report_parser.set_defaults(func=_cmd_report)

    trace_parser = subparsers.add_parser(
        "trace", parents=[common],
        help="render a run manifest's span tree",
    )
    trace_parser.add_argument(
        "manifest", nargs="?", default=None,
        help="manifest path (default: newest under the cache root)",
    )
    trace_parser.add_argument(
        "--no-attrs", action="store_true",
        help="omit span attribute lines",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    metrics_parser = subparsers.add_parser(
        "metrics", parents=[common],
        help="render a run manifest's metrics snapshot",
    )
    metrics_parser.add_argument(
        "manifest", nargs="?", default=None,
        help="manifest path (default: newest under the cache root)",
    )
    metrics_parser.set_defaults(func=_cmd_metrics)

    list_parser = subparsers.add_parser("list", help="list experiments")
    list_parser.set_defaults(func=_cmd_list)

    rules_parser = subparsers.add_parser(
        "rules",
        help="generate, lint, and bench Snort rulesets "
        "(bare `rules` dumps the study ruleset)",
    )
    rules_parser.add_argument(
        "--no-fp", action="store_true",
        help="omit the deliberate false-positive signatures",
    )
    rules_parser.add_argument(
        "--lint", action="store_true",
        help="lint the study ruleset instead of printing it",
    )
    rules_parser.set_defaults(func=_cmd_rules)

    def _scaled_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--size", type=int, default=1000,
            help="scaled ruleset size (default 1000)",
        )
        sub.add_argument(
            "--seed", type=int, default=20260801,
            help="generator seed (default 20260801)",
        )
        sub.add_argument(
            "--fodder", type=float, default=0.01,
            help="fraction of deliberately unsound lint-fodder rules",
        )

    rules_subparsers = rules_parser.add_subparsers(dest="rules_command")
    gen_parser = rules_subparsers.add_parser(
        "gen", help="emit a scaled synthetic ruleset as Snort rule text"
    )
    _scaled_args(gen_parser)
    gen_parser.add_argument(
        "--dates", action="store_true",
        help="prefix each rule with a '# published ...' comment",
    )
    gen_parser.set_defaults(func=_cmd_rules)

    lint_parser = rules_subparsers.add_parser(
        "lint",
        help="lint a scaled ruleset; exit 1 on gating findings that do "
        "not map to deliberate fodder",
    )
    _scaled_args(lint_parser)
    lint_parser.set_defaults(func=_cmd_rules)

    rules_bench_parser = rules_subparsers.add_parser(
        "bench", help="rules-vs-throughput sweep (serial and parallel)"
    )
    rules_bench_parser.add_argument(
        "--sizes", default="64,1024,4096,10000",
        help="comma-separated ruleset sizes",
    )
    rules_bench_parser.add_argument(
        "--sessions", type=int, default=2000,
        help="synthetic session count per size",
    )
    rules_bench_parser.add_argument(
        "--seed", type=int, default=20260801, help="generator seed"
    )
    rules_bench_parser.add_argument(
        "--workers", type=int, default=2, help="parallel worker count"
    )
    rules_bench_parser.add_argument(
        "--json", action="store_true", help="emit the sweep record as JSON"
    )
    rules_bench_parser.set_defaults(func=_cmd_rules)

    seeds_parser = subparsers.add_parser(
        "seeds", help="print the Appendix E seed table"
    )
    seeds_parser.set_defaults(func=_cmd_seeds)

    baselines_parser = subparsers.add_parser(
        "baselines", help="paper vs computed luck baselines"
    )
    baselines_parser.set_defaults(func=_cmd_baselines)

    _add_cache_commands(subparsers, common)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
