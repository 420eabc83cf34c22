"""Tests for live-mode IDS evaluation."""

from datetime import timedelta

import pytest

from repro.nids.live import (
    LiveComparison,
    LiveDetectionEngine,
    compare_live_vs_wayback,
)
from repro.nids.parser import parse_rule
from repro.nids.ruleset import Ruleset
from repro.net.session import TcpSession
from repro.util.timeutil import utc


def _session(day, payload=b"TOKEN"):
    return TcpSession(
        session_id=day, start=utc(2021, 3, 1) + timedelta(days=day),
        src_ip=1, src_port=1, dst_ip=2, dst_port=80, payload=payload,
    )


class TestLiveEngine:
    def _ruleset(self):
        ruleset = Ruleset()
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any any (msg:"m"; content:"TOKEN"; '
                "reference:cve,2021-0001; sid:1;)"
            ),
            utc(2021, 6, 1),  # published 92 days into the window
        )
        return ruleset

    def test_live_misses_pre_publication_traffic(self):
        ruleset = self._ruleset()
        sessions = [_session(day) for day in (10, 50, 120, 200)]
        comparison = compare_live_vs_wayback(ruleset, sessions)
        assert comparison.retrospective_alerts == 4
        assert comparison.live_alerts == 2  # days 120 and 200 only
        assert comparison.missed_live == 2
        assert comparison.missed_share == 0.5

    def test_deployment_lag_misses_more(self):
        ruleset = self._ruleset()
        sessions = [_session(day) for day in (10, 50, 120, 200)]
        comparison = compare_live_vs_wayback(
            ruleset, sessions, deployment_lag=timedelta(days=60)
        )
        assert comparison.live_alerts == 1  # only day 200 clears June+60d

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            LiveDetectionEngine(self._ruleset(), deployment_lag=timedelta(days=-1))

    def _overlapping_ruleset(self):
        """Two rules that both match b\"TOKEN\" payloads, published apart."""
        ruleset = Ruleset()
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any any (msg:"early"; content:"TOKEN"; '
                "reference:cve,2021-0001; sid:1;)"
            ),
            utc(2021, 6, 1),
        )
        ruleset.add(
            parse_rule(
                'alert tcp any any -> any any (msg:"late"; content:"OKEN"; '
                "reference:cve,2021-0002; sid:2;)"
            ),
            utc(2021, 8, 1),
        )
        return ruleset

    def test_deployed_later_rule_still_alerts(self):
        # Regression: the live scan used to call match_session once against
        # the *full* ruleset and discard the session when the
        # earliest-published match (sid 1) was not yet deployed — even
        # though the later-published sid 2 was deployed and matches too.
        # A real sensor with sid 2 installed alerts on this session.
        ruleset = self._overlapping_ruleset()
        engine = LiveDetectionEngine(
            ruleset,
            deployed_at={1: utc(2022, 1, 1), 2: utc(2021, 8, 1)},
        )
        session = _session(200)  # 2021-09-17: sid 2 deployed, sid 1 not
        alerts = engine.scan([session])
        assert [alert.sid for alert in alerts] == [2]
        assert alerts[0].cve_id == "CVE-2021-0002"
        # The alert carries sid 2's own publication date, not sid 1's.
        assert alerts[0].rule_published == utc(2021, 8, 1)

    def test_earliest_published_wins_once_deployed(self):
        ruleset = self._overlapping_ruleset()
        engine = LiveDetectionEngine(
            ruleset,
            deployed_at={1: utc(2022, 1, 1), 2: utc(2021, 8, 1)},
        )
        late = _session(340)  # 2022-02-04: both deployed
        assert [alert.sid for alert in engine.scan([late])] == [1]

    def test_uniform_lag_subset_matches_filter_semantics(self):
        # With a uniform lag, deployment order equals publication order, so
        # the deployed-subset scan agrees with the old filter on
        # single-match traffic — the fix must not change those results.
        ruleset = self._ruleset()
        sessions = [_session(day) for day in (10, 50, 120, 200)]
        engine = LiveDetectionEngine(ruleset, deployment_lag=timedelta(days=30))
        alerts = engine.scan(sessions)
        # Published 2021-06-01 + 30d lag: only day 200 (2021-09-17) clears.
        assert [alert.session_id for alert in alerts] == [200]

    def test_deployed_at_unknown_sid_rejected(self):
        with pytest.raises(KeyError):
            LiveDetectionEngine(self._ruleset(), deployed_at={999: utc(2021, 6, 1)})

    def test_compare_live_vs_wayback_with_overlap_and_lag(self):
        # Wayback retains sid 1 for every TOKEN session; live (with sid 1
        # deployed late) still alerts via sid 2 after its deployment, so
        # only the genuinely-uncovered early traffic is missed.
        ruleset = self._overlapping_ruleset()
        sessions = [_session(day) for day in (10, 120, 200, 340)]
        comparison = compare_live_vs_wayback(
            ruleset,
            sessions,
            deployed_at={1: utc(2022, 1, 1), 2: utc(2021, 8, 1)},
        )
        assert comparison.retrospective_alerts == 4
        # day 10 (nothing deployed), day 120 (2021-06-29, ditto) missed;
        # day 200 caught by sid 2, day 340 by sid 1.
        assert comparison.live_alerts == 2
        assert comparison.missed_live == 2

    def test_on_study_run(self, study):
        """The wayback advantage on real study traffic: every
        pre-publication (unmitigated) event is invisible live."""
        sessions = list(study.store)
        comparison = compare_live_vs_wayback(study.ruleset, sessions)
        assert comparison.retrospective_alerts == len(study.alerts)
        pre_publication = sum(1 for a in study.alerts if a.pre_publication)
        assert comparison.missed_live == pre_publication
        assert comparison.missed_live > 0
