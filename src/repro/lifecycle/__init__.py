"""CVE lifecycle layer: events, timelines, and their extraction from data.

Turns raw detections and dataset records into the paper's analysis
substrate: per-CVE :class:`~repro.lifecycle.events.CveTimeline` objects over
the CERT event alphabet (V, F, P, D, X, A) and per-session exploit events
(:class:`~repro.lifecycle.exploit_events.EventTable`), with
root-cause analysis pruning CVEs whose signatures false-positive
(paper Section 3.2).
"""

from repro.lifecycle.events import CveTimeline, LifecycleEvent
from repro.lifecycle.exploit_events import EventTable, ExploitEvent
from repro.lifecycle.rca import RcaDecision, RootCauseAnalysis, looks_like_exploit
from repro.lifecycle.assembly import assemble_timelines

__all__ = [
    "CveTimeline",
    "LifecycleEvent",
    "EventTable",
    "ExploitEvent",
    "RcaDecision",
    "RootCauseAnalysis",
    "looks_like_exploit",
    "assemble_timelines",
]
