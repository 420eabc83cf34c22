"""Differential oracle: the record-by-record event path, frozen.

Before events became an :class:`repro.lifecycle.exploit_events.EventTable`
the analysis built one :class:`ExploitEvent` named tuple per attributed
alert and grouped, sorted, sampled and reduced them in Python:

* :func:`events_from_alerts` — the attributed alerts as records, in alert
  order, ``mitigated`` judged per alert;
* :func:`events_by_cve` — insertion-ordered groups, each sorted by time;
* :func:`first_attacks` — the earliest timestamp per CVE;
* :func:`rca_filter` — ``RootCauseAnalysis.filter`` over record groups;
* :func:`kept_events` — ``StudyResult.kept_events`` as it was: the kept
  groups concatenated and sorted by time;
* :func:`event_columns` — ``ColumnarStudy._pack``'s event columns, built
  one record at a time.

They are kept here so tests can assert the column path returns equal
values on any input.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from datetime import datetime
from itertools import islice
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.lifecycle.exploit_events import ExploitEvent
from repro.lifecycle.rca import RcaDecision, looks_like_exploit
from repro.nids.ruleset import Alert
from repro.store.columnar import Interner, to_micros


def events_from_alerts(alerts: Iterable[Alert]) -> List[ExploitEvent]:
    return [
        ExploitEvent(
            cve_id=alert.cve_id,
            timestamp=alert.timestamp,
            sid=alert.sid,
            session_id=alert.session_id,
            src_ip=alert.src_ip,
            dst_ip=alert.dst_ip,
            dst_port=alert.dst_port,
            mitigated=not alert.timestamp < alert.rule_published,
        )
        for alert in alerts
        if alert.cve_id is not None
    ]


def events_by_cve(events: Iterable[ExploitEvent]) -> Dict[str, List[ExploitEvent]]:
    grouped: Dict[str, List[ExploitEvent]] = {}
    for event in events:
        grouped.setdefault(event.cve_id, []).append(event)
    for group in grouped.values():
        group.sort(key=attrgetter("timestamp"))
    return grouped


def first_attacks(events: Iterable[ExploitEvent]) -> Dict[str, datetime]:
    earliest: Dict[str, datetime] = {}
    for event in events:
        current = earliest.get(event.cve_id)
        if current is None or event.timestamp < current:
            earliest[event.cve_id] = event.timestamp
    return earliest


def _analyse_cve(
    cve_id: str,
    events: List[ExploitEvent],
    payloads: Mapping[int, bytes],
    exploit_threshold: float,
    leading_sample: int,
) -> RcaDecision:
    sample = list(islice(
        (event for event in events if not event.mitigated), leading_sample,
    ))
    if not sample:
        return RcaDecision(cve_id, True, 0, 0, "no pre-publication matches")
    exploit_like = sum(
        1
        for event in sample
        if looks_like_exploit(payloads.get(event.session_id, b""))
    )
    fraction = exploit_like / len(sample)
    if fraction >= exploit_threshold:
        return RcaDecision(
            cve_id, True, len(sample), exploit_like,
            "pre-publication traffic carries exploit structure",
        )
    return RcaDecision(
        cve_id, False, len(sample), exploit_like,
        "signature false-positives on non-exploit traffic",
    )


def rca_filter(
    grouped: Dict[str, List[ExploitEvent]],
    payloads: Mapping[int, bytes],
    *,
    exploit_threshold: float = 0.5,
    leading_sample: int = 50,
) -> Tuple[Dict[str, List[ExploitEvent]], List[RcaDecision]]:
    kept: Dict[str, List[ExploitEvent]] = {}
    decisions: List[RcaDecision] = []
    for cve_id, events in sorted(grouped.items()):
        decision = _analyse_cve(
            cve_id, events, payloads, exploit_threshold, leading_sample
        )
        decisions.append(decision)
        if decision.kept:
            kept[cve_id] = events
    return kept, decisions


def kept_events(grouped: Mapping[str, List[ExploitEvent]]) -> List[ExploitEvent]:
    kept: List[ExploitEvent] = []
    for group in grouped.values():
        kept.extend(group)
    kept.sort(key=attrgetter("timestamp"))
    return kept


def event_columns(
    kept: List[ExploitEvent], cves: Interner
) -> Dict[str, np.ndarray]:
    return {
        "event_cve": np.fromiter(
            (cves.intern(event.cve_id) for event in kept), np.int32, len(kept)
        ),
        "event_t": np.fromiter(
            (to_micros(event.timestamp) for event in kept), np.int64, len(kept)
        ),
        "event_sid": np.fromiter(
            (event.sid for event in kept), np.int32, len(kept)
        ),
        "event_session": np.fromiter(
            (event.session_id for event in kept), np.int64, len(kept)
        ),
        "event_mitigated": np.fromiter(
            (event.mitigated for event in kept), np.uint8, len(kept)
        ),
    }
