"""Live-mode IDS evaluation, for comparison with the study's wayback mode.

A production IDS can only match traffic against the rules *it has at the
moment the traffic arrives*.  The study instead evaluates retroactively: the
final ruleset is applied to the whole archive, so exploitation that predates
a signature's release is still identified.

:class:`LiveDetectionEngine` replays a session stream through a
deployment-time-aware engine: each session is matched against exactly the
subset of rules deployed when it started (publication plus a lag, or an
explicit per-rule ``deployed_at`` schedule), which quantifies exactly what
the wayback methodology adds — every pre-deployment exploit event, i.e. all
the zero-day evidence, is invisible live.

Matching against the deployed *subset* matters when signatures overlap: a
session touched by two rules must alert on the one that is deployed, even if
the other — not yet deployed — was published earlier.  Filtering the full
ruleset's earliest-published match after the fact gets this wrong, silently
dropping detections a real sensor would have raised.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.net.session import TcpSession
from repro.nids.engine import DetectionEngine
from repro.nids.ruleset import Alert, Ruleset


@dataclass(frozen=True)
class LiveComparison:
    """Retrospective vs live detection over the same archive."""

    sessions: int
    retrospective_alerts: int
    live_alerts: int

    @property
    def missed_live(self) -> int:
        """Detections only the retrospective pass finds (zero-day traffic
        plus any traffic arriving during the deployment lag)."""
        return self.retrospective_alerts - self.live_alerts

    @property
    def missed_share(self) -> float:
        if self.retrospective_alerts == 0:
            return 0.0
        return self.missed_live / self.retrospective_alerts


class LiveDetectionEngine:
    """Match sessions only against rules deployed before they arrived.

    The deployment time of each rule defaults to its publication time plus
    ``deployment_lag``; ``deployed_at`` overrides it per SID (real sensors
    pick up individual rules at different times — emergency pushes arrive
    early, routine updates with the next scheduled pull).
    """

    def __init__(
        self,
        ruleset: Ruleset,
        *,
        deployment_lag: timedelta = timedelta(0),
        deployed_at: Optional[Mapping[int, datetime]] = None,
    ) -> None:
        if deployment_lag < timedelta(0):
            raise ValueError("deployment lag cannot be negative")
        self.ruleset = ruleset
        self.deployment_lag = deployment_lag
        overrides = dict(deployed_at or {})
        schedule: List[Tuple[datetime, int]] = []
        for rule in ruleset.rules:
            published = ruleset.published_at(rule.sid)
            deployed = overrides.pop(rule.sid, published + deployment_lag)
            schedule.append((deployed, rule.sid))
        if overrides:
            raise KeyError(
                f"deployed_at names sids not in the ruleset: {sorted(overrides)}"
            )
        schedule.sort(key=lambda entry: entry[0])
        self._schedule = schedule
        self._deploy_times = [deployed for deployed, _ in schedule]
        # Deployed-subset rulesets, keyed by how many schedule entries are
        # live.  At most len(ruleset) distinct prefixes exist; in practice a
        # scan touches the handful of prefixes its sessions' start times
        # straddle.  The full-deployment case reuses the (already compiled)
        # source ruleset rather than rebuilding it.
        self._subsets: Dict[int, Ruleset] = {}

    def deployed_count(self, when: datetime) -> int:
        """How many rules a sensor has at ``when``."""
        return bisect_right(self._deploy_times, when)

    def ruleset_at(self, when: datetime) -> Ruleset:
        """The deployed subset of the ruleset as of ``when``.

        Subsets are cumulative prefixes of the deployment schedule, built
        lazily and cached per prefix length; alerts they emit carry the
        rules' original *publication* timestamps, so downstream lifecycle
        analysis is unaffected by which subset matched.
        """
        count = self.deployed_count(when)
        if count == len(self._schedule):
            return self.ruleset
        subset = self._subsets.get(count)
        if subset is None:
            subset = Ruleset(port_insensitive=self.ruleset.port_insensitive)
            for _, sid in self._schedule[:count]:
                subset.add(
                    self.ruleset.rule_for_sid(sid),
                    self.ruleset.published_at(sid),
                )
            self._subsets[count] = subset
        return subset

    def scan(self, sessions: Iterable[TcpSession]) -> List[Alert]:
        """Live-mode scan: each session sees the ruleset deployed at its
        start time, and alerts on the earliest-published *deployed* match."""
        alerts: List[Alert] = []
        for session in sessions:
            alert = self.ruleset_at(session.start).match_session(session)
            if alert is not None:
                alerts.append(alert)
        return alerts


def compare_live_vs_wayback(
    ruleset: Ruleset,
    sessions: List[TcpSession],
    *,
    deployment_lag: timedelta = timedelta(0),
    deployed_at: Optional[Mapping[int, datetime]] = None,
) -> LiveComparison:
    """Scan an archive both ways and summarise the gap.

    The retrospective pass is the study's scan (:class:`DetectionEngine`:
    the final ruleset, each session's earliest-published match); the live
    pass matches each session only against the rules deployed at its start
    (``deployment_lag`` after publication, or the explicit ``deployed_at``
    schedule).  With
    overlapping signatures the two passes can retain *different* rules for
    the same session — live alerts on the earliest deployed match, which
    need not be the earliest published one.
    """
    retrospective = DetectionEngine(ruleset).scan(sessions)
    live = LiveDetectionEngine(
        ruleset, deployment_lag=deployment_lag, deployed_at=deployed_at
    ).scan(sessions)
    return LiveComparison(
        sessions=len(sessions),
        retrospective_alerts=len(retrospective),
        live_alerts=len(live),
    )
