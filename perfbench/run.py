#!/usr/bin/env python3
"""Benchmark of ``run_study``: end to end untraced, layer by layer traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Workloads (see ``perfbench/README.md`` for why each exists):

* ``study-cold`` — ``run_study`` of the ``standard`` scenario into a fresh,
  empty cache root, with default checkpoints and manifest;
* ``study-warm`` — the same config rerun against a populated root (a cache
  hit), all 18 artifacts, and the shard queries;
* ``rules-10k`` — an uncached quick-scale study under a 10k-rule corpus.

Each is a closed loop, one call at a time with ``workers=1``.  Set-up runs
``SETUP_REPEATS`` times and every timed iteration runs in a fresh child
process (``perfbench/child.py``); iterations start until ``--seconds``
have passed.  ``--trace 0`` reports the ``end_to_end`` metrics of
``BENCHMARK.json`` (medians), ``--trace 1`` the ``per_layer`` ones, from
iterations that alternate traced and untraced.  Times are rescaled to a
reference vCPU speed sampled while each child runs (``perfbench/speed.py``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Results are also appended to
``.perfbench_out/history.jsonl`` with their context.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("study-cold", "study-warm", "rules-10k")
#: The vCPUs this process may use, read before any pinning narrows them.
CPUS = os.sched_getaffinity(0)
#: Set-ups per run; ``setup_s`` is their median.  study-warm's set-up
#: includes a full cold study, so it repeats fewer times.
SETUP_REPEATS = {"study-cold": 5, "study-warm": 3, "rules-10k": 5}
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150
#: Layer metrics read from traced set-up when the iterations do none of
#: that work: study-warm builds its shard once, in set-up.
SETUP_LAYERS = ("store.pack_s", "store.shard_bytes")

#: What each workload claims to stress, as layer groups and a bound on
#: their share of the traced ``run_study`` time, checked on traced runs.
CACHE_IO = ("cache.checkpoint_encode", "cache.checkpoint_save",
            "cache.checkpoint_probe", "cache.entry_save", "cache.entry_load",
            "cache.entry_verify")
NIDS = ("nids.engine_init", "nids.scan")
CLAIMS = {
    "study-cold": (("cache I/O >= 25%", CACHE_IO, ">=", 0.25),
                   ("nids <= 5%", NIDS, "<=", 0.05)),
    "study-warm": (("cache.entry_load >= 50%", ("cache.entry_load",), ">=", 0.50),
                   ("telescope.collect == 0", ("telescope.collect",), "<=", 0.0)),
    "rules-10k": (("nids + scenarios.build_ruleset >= 50%",
                   NIDS + ("scenarios.build_ruleset",), ">=", 0.50),
                  ("checkpoint and entry I/O == 0", CACHE_IO, "<=", 0.0)),
}


# -- child processes -----------------------------------------------------------


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Never the user's ~/.cache/repro: each workload owns a temporary root.
    env["REPRO_CACHE_DIR"] = str(root)
    # Bytecode is cached (as for an installed package) under the work
    # directory, not next to the sources, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(mode: str, workload: str, seed: Optional[int], root: Path,
          trace: bool, label: str) -> Dict[str, Any]:
    """Run one child step; returns its result (``ok`` False on any failure)."""
    speed.pin_to_fastest_cpu(CPUS)
    out = WORK / f"result-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    spec = {"mode": mode, "workload": workload, "seed": seed, "root": str(root),
            "trace": trace, "iteration": label, "out": str(out)}
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=str(ROOT), env=child_env(root), stdout=subprocess.DEVNULL,
    )
    try:
        samples = speed.wait_sampling(process, CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return {"ok": False, "error": f"{mode} timed out", "traced": trace}
    except BaseException:  # interrupted: never leave the child running
        process.kill()
        process.wait()
        raise
    try:
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
    except (OSError, ValueError):
        result = {"ok": False, "error": f"{mode} exited {process.returncode} "
                                        "without a result"}
    result["traced"] = trace
    result["samples"] = samples
    if mode == "setup" and result.get("ok"):
        result["windows"] = {"setup_s": [[started, result["setup_end"]]]}
    return result


class Roots:
    """Temporary cache roots under the work directory, removed on close."""

    def __init__(self, workload: str) -> None:
        self.base = WORK / "caches" / f"{workload}-{os.getpid()}"
        self.count = 0

    def fresh(self) -> Path:
        self.count += 1
        path = self.base / str(self.count)
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


# -- evaluation ----------------------------------------------------------------------


def evaluate(workload: str, setups: List[Dict[str, Any]],
             iterations: List[Dict[str, Any]],
             reference: Optional[Dict[str, str]]) -> Tuple[int, int, List[str]]:
    """Count failed iterations: exceptions, failed checks, and digests that
    differ from the first iteration's, from the default-seed reference, or
    (``study-warm``) from the populating cold run's study digest."""
    problems: List[str] = []
    first = next((item["digests"] for item in iterations if item.get("ok")), None)
    populate = [item["digests"]["study"] for item in setups if "digests" in item]
    failed = 0
    for index, item in enumerate(iterations):
        faults: List[str] = []
        if not item.get("ok"):
            faults.append((item.get("error") or "failed").strip().splitlines()[-1])
        else:
            faults.extend(item.get("checks", []))
            for kind, digest in item["digests"].items():
                if digest != first[kind]:
                    faults.append(f"{kind} digest differs from iteration 0")
                if reference is not None and reference.get(kind) != digest:
                    faults.append(f"{kind} digest differs from the reference")
            if workload == "study-warm" and any(
                    study != item["digests"]["study"] for study in populate):
                faults.append("study digest differs from the cold populate run")
        if faults:
            failed += 1
            problems.extend(f"iteration {index}: {fault}" for fault in faults)
    return len(iterations), failed, problems


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def collect_series(samples: List[Dict[str, float]]) -> Dict[str, List[float]]:
    """Metric name -> its values across the samples that have it."""
    values: Dict[str, List[float]] = {}
    for sample in samples:
        for name, value in sample.items():
            values.setdefault(name, []).append(value)
    return values


#: Timed sections the children report as (start, end) windows; the last
#: field is the unit multiplier.
TIMED = (("setup_s", 1.0), ("study_s", 1.0), ("artifacts_s", 1.0),
         ("shard_query_ms", 1e3))


def timed_values(items, name: str, multiplier: float, raw: bool = False) -> List[float]:
    """Every window of ``name`` in ``items``, rescaled to the reference
    vCPU speed (or as raw wall time).  Short passes are pooled across the
    run's iterations."""
    values = []
    for item in items:
        for start, end in item.get("windows", {}).get(name, ()):
            seconds = end - start if raw else speed.rescaled(item["samples"], start, end)
            values.append(seconds * multiplier)
    return values


def end_to_end(setups, iterations, raw: bool = False) -> Dict[str, List[float]]:
    timed = [item for item in iterations if item.get("ok") and not item["traced"]]
    values = {name: timed_values(setups if name == "setup_s" else timed, name, multiplier, raw)
              for name, multiplier in TIMED}
    for name in ("disk_mb", "peak_rss_mb"):
        values[name] = [item[name] for item in timed]
    return values


def iteration_factor(item) -> float:
    """Reference-speed factor over a whole child process's timed sections."""
    windows = [window for series in item["windows"].values() for window in series]
    return speed.factor(item["samples"], min(w[0] for w in windows),
                        max(w[1] for w in windows))


def per_layer(setups, iterations) -> Dict[str, List[float]]:
    traced = [item for item in iterations if item.get("ok") and item["traced"]]
    plain = [item for item in iterations if item.get("ok") and not item["traced"]]
    values = collect_series([spans.layer_metrics(item["spans"], iteration_factor(item))
                             for item in traced])
    # study-warm packs its shard in set-up, not in the iterations.
    from_setup = collect_series([spans.layer_metrics(item["spans"], iteration_factor(item))
                                 for item in setups])
    for name in SETUP_LAYERS:
        if not any(values.get(name, ())) and name in from_setup:
            values[name] = from_setup[name]
    traced_study = statistics.median(timed_values(traced, "study_s", 1.0))
    values["bench.study_traced_s"] = [traced_study]
    if plain:
        values["bench.trace_overhead_s"] = [
            traced_study - statistics.median(timed_values(plain, "study_s", 1.0))
        ]
    return values


def claim_report(workload: str, iterations) -> List[str]:
    """Layer shares of the traced ``run_study`` and the workload's claims."""
    traced = [item for item in iterations if item.get("ok") and item["traced"]]
    breakdowns = [spans.study_breakdown(item["spans"]) for item in traced]
    totals = [sum(breakdown.values()) for breakdown in breakdowns]
    lines = [
        f"[{workload}] traced study_s (wall) "
        f"{statistics.median(timed_values(traced, 'study_s', 1.0, raw=True)):.4f} s"
        f" = wrapped self times + pipeline.unattributed_s "
        f"{statistics.median(totals):.4f} s"
    ]
    names = sorted({name for breakdown in breakdowns for name in breakdown})
    shares = {
        name: statistics.median(
            breakdown.get(name, 0.0) / total
            for breakdown, total in zip(breakdowns, totals)
        )
        for name in names
    }
    for name in sorted(names, key=lambda n: -shares[n]):
        lines.append(f"[{workload}]   {shares[name]:7.1%}  {name}")
    for label, group, op, limit in CLAIMS[workload]:
        share = sum(shares.get(name, 0.0) for name in group)
        holds = share >= limit if op == ">=" else share <= limit
        lines.append(f"[{workload}] claim {label}: {share:.1%} "
                     f"{'holds' if holds else 'FAILS'}")
    return lines


# -- context and history -------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit read from ``.git`` (no git process); "unknown" outside
    a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def append_history(record: Dict[str, Any]) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


# -- one workload ------------------------------------------------------------------


class SetupFailed(RuntimeError):
    pass


def measure(workload: str, seed: Optional[int], seconds: float,
            trace: bool) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    roots = Roots(workload)
    try:
        setups = []
        warm_root = None
        for repeat in range(SETUP_REPEATS[workload]):
            root = roots.fresh()
            result = spawn("setup", workload, seed, root, trace, f"setup-{repeat}")
            if not result.get("ok") or result.get("checks"):
                raise SetupFailed(result.get("error") or "; ".join(result["checks"]))
            setups.append(result)
            if workload == "study-warm" and warm_root is None:
                warm_root = root
            else:
                shutil.rmtree(root, ignore_errors=True)

        iterations: List[Dict[str, Any]] = []
        started = time.monotonic()
        while True:
            index = len(iterations)
            root = warm_root or roots.fresh()  # study-cold: fresh per iteration
            iterations.append(spawn("iteration", workload, seed, root,
                                    trace and index % 2 == 0, str(index)))
            if root != warm_root:
                shutil.rmtree(root, ignore_errors=True)
            enough = len(iterations) >= (2 if trace else 1)
            if enough and time.monotonic() - started >= seconds:
                return setups, iterations
    finally:
        roots.close()


def load_json(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def run_workload(workload: str, seed: Optional[int], seconds: float, trace: bool,
                 record_reference: bool = False) -> Dict[str, Any]:
    bench = load_json(ROOT / "BENCHMARK.json")
    setups, iterations = measure(workload, seed, seconds, trace)
    ok = [item for item in iterations if item.get("ok")]
    if not ok:
        raise SetupFailed(iterations[0].get("error") or "every iteration failed")
    context = dict(ok[0]["context"])
    is_default = context["seed"] == context["default_seed"]
    references = load_json(REFERENCE)
    if record_reference:
        if not is_default:
            raise SystemExit("--record-reference needs the default seed")
        references[workload] = ok[0]["digests"]
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    reference = references.get(workload) if is_default else None
    attempted, failed, problems = evaluate(workload, setups, iterations, reference)

    section = "per_layer" if trace else "end_to_end"
    values = (per_layer if trace else end_to_end)(setups, iterations)
    wall = {} if trace else end_to_end(setups, iterations, raw=True)
    metrics: Dict[str, Dict[str, Any]] = {}
    summary: Dict[str, Any] = {}
    lines = []
    for spec in bench[section]:
        series = values.get(spec["name"]) or [0.0]
        q1, median, q3 = quartiles(series)
        metrics[spec["name"]] = {"value": median, "unit": spec["unit"]}
        summary[spec["name"]] = {"median": median, "q1": q1, "q3": q3, "n": len(series)}
        line = (f"[{workload}] {spec['name']:<34} {median:14.4f} {spec['unit']:<6}"
                f" q1 {q1:.4f}  q3 {q3:.4f}  n={len(series)}")
        if spec["name"] in dict(TIMED) and wall.get(spec["name"]):
            summary[spec["name"]]["wall_median"] = statistics.median(wall[spec["name"]])
            line += f"  (wall {summary[spec['name']]['wall_median']:.4f})"
        lines.append(line)
    if trace:
        lines.extend(claim_report(workload, iterations))
    lines.append(f"[{workload}] output check: "
                 f"{'ok' if failed == 0 else 'MISMATCH'} "
                 f"(error_rate {failed}/{attempted}"
                 f"{', reference checked' if reference else ''})")
    lines.extend(f"[{workload}]   {problem}" for problem in problems)

    append_history({
        "time": time.time(),
        "commit": git_commit(),
        "code_fingerprint": context["code_fingerprint"],
        "workload": workload,
        "trace": trace,
        "seed": context["seed"],
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "affinity": sorted(CPUS),
        "python": platform.python_version(),
        "samples": {"setup": len(setups), "iterations": len(iterations),
                    "traced": sum(1 for item in iterations if item["traced"])},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary,
    })
    return {"lines": lines, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="study seed (default: the package's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the default-seed reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), args.record_reference)
            print("\n".join(results[workload]["lines"]), flush=True)
    except SetupFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        result = results[workloads[0]]
        metrics = result["metrics"]
    else:
        result = {
            "correct": all(item["correct"] for item in results.values()),
            "attempted": sum(item["attempted"] for item in results.values()),
            "failed": sum(item["failed"] for item in results.values()),
        }
        metrics = {f"{workload}/{name}": metric for workload, item in results.items()
                   for name, metric in item["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
