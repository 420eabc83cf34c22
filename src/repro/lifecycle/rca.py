"""Root-cause analysis: pruning unsound signatures (paper Section 3.2).

Some IDS rules are overly general — they "trigger on traffic that does not
actually target the vulnerability", e.g. any access to an API endpoint that
credential stuffers also hit.  The paper manually analysed every signature
that matched traffic *before its own publication* and removed CVEs whose
matches were false positives.

:class:`RootCauseAnalysis` automates that manual decision procedure: for a
CVE whose signature matched pre-publication traffic, the matched payloads
are inspected for exploit structure (:func:`looks_like_exploit`); if the
majority of the leading traffic has none, the CVE is dropped.  CVEs with
genuinely early exploitation (pre-publication OGNL scanning, Appendix C)
survive because their payloads carry injection structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.lifecycle.exploit_events import EventTable, ExploitEvent
from repro.net.pcapstore import SessionStore

#: A CVE's events: an :class:`EventTable` slice, or any record sequence.
Events = TypeVar("Events", bound=Sequence[ExploitEvent])

#: Byte markers of exploit structure: injection syntax, traversal, command
#: substitution, protocol abuse.  Matched case-insensitively.
_EXPLOIT_MARKERS: Tuple[bytes, ...] = (
    b"${",              # JNDI / OGNL / template injection
    b"%24%7b",          # URL-encoded ${
    b"%24{",            # partially encoded ${ (escape-sequence variants)
    b"../",             # path traversal
    b"..%2f",           # encoded traversal
    b"%2e%2e",          # encoded dots
    b"/..;",            # Tomcat-style bypass segment
    b"`",               # shell command substitution
    b"$(",              # shell command substitution
    b";wget",           # command injection payloads
    b"cmd=%3b",         # encoded ;cmd injection
    b"<!entity",        # XXE
    b"%27%20or",        # SQL injection (' OR)
    b"ldap://",         # JNDI callback
    b"loadlib",         # Redis Lua sandbox escape
    b"classloader",     # Spring4Shell
    b"t(java",          # SpEL injection
    b"%5cu0027",        # OGNL unicode escape
    b"spring.cloud",    # Spring Cloud Function header
    b"tm/util/bash",    # F5 iControl REST
    b"x-f5-auth-token", # F5 auth bypass header
    b"autodiscover",    # Exchange SSRF
    b"weblanguage",     # Hikvision injection endpoint
    b"?unix:",          # Apache mod_proxy SSRF
    b"systemuser",      # hardcoded-credential logins
    b"accesstoken=",    # auth-bypass tokens
    b"fileuploadservlet",
    b"%3cscript%3e",    # XSS
    b";/bin/sh",        # header command injection
)

#: Control bytes other than tab, LF and CR: what counts as unprintable.
_UNPRINTABLE = bytes(
    byte for byte in range(0x20) if byte not in (0x09, 0x0A, 0x0D)
)


def looks_like_exploit(payload: bytes) -> bool:
    """Whether a payload carries exploit structure.

    Mirrors the paper's manual judgement: plain endpoint access and
    credential brute forcing have none of these markers; targeted exploits
    (or untargeted instantiations of the same weakness, as in Appendix C)
    do.  Binary-heavy payloads (overflows, protocol DoS) count as exploit
    structure too.
    """
    if not payload:
        return False
    lowered = payload.lower()
    if any(marker in lowered for marker in _EXPLOIT_MARKERS):
        return True
    # Overflow / binary-protocol payloads: substantial non-printable share
    # or long filler runs.
    if len(payload) >= 64:
        unprintable = len(payload) - len(payload.translate(None, _UNPRINTABLE))
        if unprintable / len(payload) > 0.15:
            return True
        if b"AAAAAAAAAAAAAAAA" in payload:
            return True
    return False


@dataclass(frozen=True)
class RcaDecision:
    """The outcome of root-cause analysis for one CVE."""

    cve_id: str
    kept: bool
    pre_publication_events: int
    exploit_like: int
    reason: str

    @property
    def exploit_fraction(self) -> float:
        if self.pre_publication_events == 0:
            return 1.0
        return self.exploit_like / self.pre_publication_events


class RootCauseAnalysis:
    """Apply the Section 3.2 pruning to an attributed event stream."""

    def __init__(
        self,
        payloads: Union[SessionStore, Mapping[int, bytes]],
        *,
        exploit_threshold: float = 0.5,
        leading_sample: int = 50,
    ) -> None:
        if not 0.0 < exploit_threshold <= 1.0:
            raise ValueError("exploit_threshold must be in (0, 1]")
        if isinstance(payloads, SessionStore):
            # Batch path: the full archive's mapping (read row by row from
            # its columns when the store was loaded from the study cache).
            self._payloads: Mapping[int, bytes] = payloads.payloads()
        else:
            # Streaming path: a session_id -> payload mapping covering (at
            # least) the alerted sessions — RCA only ever inspects payloads
            # of attributed events, so the full archive is unnecessary.
            self._payloads = dict(payloads)
        self.exploit_threshold = exploit_threshold
        self.leading_sample = leading_sample

    def analyse_cve(
        self, cve_id: str, events: Sequence[ExploitEvent]
    ) -> RcaDecision:
        """Decide whether one CVE's attributions are sound.

        Only CVEs whose signature matched traffic before its own
        publication are scrutinised (``mitigated`` is False exactly for
        pre-rule-publication matches); the earliest such sessions are the
        ones the paper manually analysed: the first ``leading_sample``
        unmitigated rows of the (time-sorted) events.
        """
        columns = EventTable.pack(events).columns
        rows = np.flatnonzero(~columns["mitigated"])[:self.leading_sample]
        sample = columns["session"][rows].tolist()
        if not sample:
            return RcaDecision(cve_id, True, 0, 0, "no pre-publication matches")
        exploit_like = sum(
            1
            for session_id in sample
            if looks_like_exploit(self._payloads.get(session_id, b""))
        )
        fraction = exploit_like / len(sample)
        if fraction >= self.exploit_threshold:
            return RcaDecision(
                cve_id, True, len(sample), exploit_like,
                "pre-publication traffic carries exploit structure",
            )
        return RcaDecision(
            cve_id, False, len(sample), exploit_like,
            "signature false-positives on non-exploit traffic",
        )

    def filter(
        self, grouped: Mapping[str, Events]
    ) -> Tuple[Dict[str, Events], List[RcaDecision]]:
        """Prune false-positive CVEs; returns (kept groups, all decisions),
        both in CVE-id order."""
        kept: Dict[str, Events] = {}
        decisions: List[RcaDecision] = []
        for cve_id, events in sorted(grouped.items()):
            decision = self.analyse_cve(cve_id, events)
            decisions.append(decision)
            if decision.kept:
                kept[cve_id] = events
        return kept, decisions
