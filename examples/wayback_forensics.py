#!/usr/bin/env python3
"""The "wayback machine" itself: retroactive scanning of archived traffic.

This example demonstrates the paper's core methodological trick in
isolation.  We capture traffic into a session archive, then — *after the
fact* — take a signature that did not exist when the traffic arrived and
scan the archive with it, revealing pre-publication ("zero-day")
exploitation that no live IDS could have flagged.

It also shows the companion step, root-cause analysis: an overly general
signature matches credential-stuffing traffic, and the RCA heuristics
reject the CVE as a false positive while keeping the genuinely exploited
one (paper Section 3.2).

    python examples/wayback_forensics.py
"""

from repro.datasets.seed_cves import STUDY_WINDOW, seed_by_id
from repro.exploits.rulegen import build_study_ruleset, sid_to_cve
from repro.lifecycle.exploit_events import EventTable
from repro.lifecycle.rca import RootCauseAnalysis
from repro.nids.engine import DetectionEngine
from repro.telescope.collector import DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.traffic.generator import TrafficConfig, TrafficGenerator


def main() -> None:
    # 1. Capture two years of traffic into the archive (scaled down).
    generator = TrafficGenerator(
        TrafficConfig(volume_scale=0.05, background_per_exploit=1.0)
    )
    arrivals = generator.generate()
    collector = DscopeCollector(TelescopeConfig(), window=STUDY_WINDOW)
    store = collector.collect(arrivals)
    print(f"archived {len(store):,} sessions "
          f"({collector.stats.unique_receiving_ips:,} telescope IPs)")

    # 2. Retroactive scan: evaluate the full (future-knowledge) ruleset
    #    over the entire archive.
    ruleset = build_study_ruleset()
    engine = DetectionEngine(ruleset)
    alerts = engine.scan(store)
    pre_publication = [a for a in alerts if a.pre_publication]
    print(f"\nretroactive scan: {len(alerts):,} sessions matched; "
          f"{len(pre_publication):,} matched signatures that did not yet "
          f"exist when the traffic arrived")

    # 3. The zero-day payoff: Confluence-style OGNL scanning seen more than
    #    a year before the CVE it would later exploit was published.
    target = seed_by_id("CVE-2022-28938")
    early = [
        a for a in alerts
        if a.cve_id == target.cve_id and a.timestamp < target.published
    ]
    if early:
        lead = target.published - min(a.timestamp for a in early)
        print(f"\n{target.cve_id}: earliest matching traffic "
              f"{lead.days} days BEFORE the CVE was published")
        ports = sorted({a.dst_port for a in early})
        print(f"  early traffic hit ports {ports} — generic OGNL scanning, "
              f"not Confluence-targeted (Finding 19)")

    # 4. Root-cause analysis separates such genuine early exploitation from
    #    signature false positives.
    rca = RootCauseAnalysis(store)
    grouped = EventTable.from_alerts(alerts).by_cve()
    kept, decisions = rca.filter(grouped)
    print(f"\nroot-cause analysis: kept {len(kept)} CVEs")
    for decision in decisions:
        if not decision.kept:
            print(f"  dropped {decision.cve_id}: {decision.reason} "
                  f"(exploit-like fraction "
                  f"{decision.exploit_fraction:.0%} of leading traffic)")
    assert target.cve_id in kept, "genuine early exploitation must survive"


if __name__ == "__main__":
    main()
