"""CVE lifecycle layer: events, timelines, and their extraction from data.

Turns raw detections and dataset records into the paper's analysis
substrate: per-CVE :class:`~repro.lifecycle.events.CveTimeline` objects over
the CERT event alphabet (V, F, P, D, X, A) and per-session exploit events
(:class:`~repro.lifecycle.exploit_events.EventTable`), with
root-cause analysis pruning CVEs whose signatures false-positive
(paper Section 3.2).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lifecycle.events": ("CveTimeline", "LifecycleEvent"),
    "repro.lifecycle.exploit_events": ("EventTable", "ExploitEvent"),
    "repro.lifecycle.rca": ("RcaDecision", "RootCauseAnalysis", "looks_like_exploit"),
    "repro.lifecycle.assembly": ("assemble_timelines",),
})
