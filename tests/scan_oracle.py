"""Differential oracle for the NIDS scan: a pure-Python Aho-Corasick
automaton and the evaluate-every-candidate retention loop.

:class:`AhoCorasick` is the textbook multi-pattern matcher the prefilter
must agree with: ``RegexPrefilter`` and ``ShardedPrefilter`` nominate
exactly its pattern-id sets (``tests/test_prefilter.py``,
``tests/test_rule_scale.py``).  The automaton is case-insensitive (patterns
and haystacks are lowercased), matching how fast patterns are used: they
are a necessary-condition filter, and the full matcher re-checks case
exactly.  Implementation: classic Aho-Corasick with goto/fail links
flattened into per-node dict transitions, built breadth-first, with output
sets merged along failure links at build time so scanning never chases
fail chains.

:class:`ScanOracle` is the retention rule of the paper's scan, stated
directly: for each session with a payload, nominate candidates (automaton
hits on the rules' fast patterns, plus every rule without one), evaluate
each candidate with :func:`repro.nids.matcher.match_rule`, and keep the
match with the least ``(published, insertion index)``.  It reads only the
public :class:`~repro.nids.ruleset.Ruleset` API, so it shares no compiled
table, plan or merge with the scan it checks.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

from collections import deque
from datetime import datetime
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.net.session import TcpSession
from repro.nids.matcher import SessionBuffers, match_rule
from repro.nids.rule import Rule
from repro.nids.ruleset import Alert, Ruleset


class AhoCorasick:
    """A compiled multi-pattern automaton over byte strings."""

    def __init__(self, patterns: Sequence[bytes]) -> None:
        """Compile an automaton for the given patterns.

        Pattern ids are their indices in ``patterns``.  Empty patterns are
        rejected (they would match everywhere and mask bugs).
        """
        self.patterns: List[bytes] = [p.lower() for p in patterns]
        for index, pattern in enumerate(self.patterns):
            if not pattern:
                raise ValueError(f"empty pattern at index {index}")
        # Node storage: transitions[node][byte] -> node, outputs[node] -> ids.
        self._transitions: List[Dict[int, int]] = [{}]
        self._outputs: List[Set[int]] = [set()]
        self._fail: List[int] = [0]
        self._build_trie()
        self._build_failure_links()

    def _new_node(self) -> int:
        self._transitions.append({})
        self._outputs.append(set())
        self._fail.append(0)
        return len(self._transitions) - 1

    def _build_trie(self) -> None:
        for pattern_id, pattern in enumerate(self.patterns):
            node = 0
            for byte in pattern:
                next_node = self._transitions[node].get(byte)
                if next_node is None:
                    next_node = self._new_node()
                    self._transitions[node][byte] = next_node
                node = next_node
            self._outputs[node].add(pattern_id)

    def _build_failure_links(self) -> None:
        queue = deque()
        for byte, node in self._transitions[0].items():
            self._fail[node] = 0
            queue.append(node)
        while queue:
            current = queue.popleft()
            for byte, child in self._transitions[current].items():
                queue.append(child)
                fail = self._fail[current]
                while fail and byte not in self._transitions[fail]:
                    fail = self._fail[fail]
                self._fail[child] = self._transitions[fail].get(byte, 0)
                self._outputs[child] |= self._outputs[self._fail[child]]

    @property
    def node_count(self) -> int:
        return len(self._transitions)

    def search(self, haystack: bytes, *, lowered: bool = False) -> Set[int]:
        """Ids of every pattern occurring in the haystack (lowercased).

        ``lowered`` declares the haystack already lowercased, skipping the
        ``bytes.lower`` allocation (the prefilter's contract too).
        """
        if not lowered:
            haystack = haystack.lower()
        found: Set[int] = set()
        node = 0
        transitions = self._transitions
        outputs = self._outputs
        fail = self._fail
        for byte in haystack:
            while node and byte not in transitions[node]:
                node = fail[node]
            node = transitions[node].get(byte, 0)
            if outputs[node]:
                found |= outputs[node]
                if len(found) == len(self.patterns):
                    break
        return found

    def contains_any(self, haystack: bytes, *, lowered: bool = False) -> bool:
        """Whether any pattern occurs (early-exit variant of search)."""
        if not lowered:
            haystack = haystack.lower()
        node = 0
        transitions = self._transitions
        fail = self._fail
        outputs = self._outputs
        for byte in haystack:
            while node and byte not in transitions[node]:
                node = fail[node]
            node = transitions[node].get(byte, 0)
            if outputs[node]:
                return True
        return False


class ScanOracle:
    """Earliest-published-signature retention over a ruleset, evaluating
    every candidate rule (no ordering, memo, plan or shard)."""

    def __init__(self, ruleset: Ruleset) -> None:
        self.rules: List[Rule] = ruleset.rules
        self.published: List[datetime] = [
            ruleset.published_at(rule.sid) for rule in self.rules
        ]
        self.check_ports = not ruleset.port_insensitive
        patterns: List[bytes] = []
        self._owners: List[int] = []
        self._unfiltered: List[int] = []
        for index, rule in enumerate(self.rules):
            fast = rule.fast_pattern
            if fast is None:
                self._unfiltered.append(index)
            else:
                patterns.append(fast.pattern)
                self._owners.append(index)
        self._automaton = AhoCorasick(patterns) if patterns else None

    def candidates(self, payload: bytes) -> List[int]:
        """Insertion indices of the nominated rules, ascending."""
        found = set(self._unfiltered)
        if self._automaton is not None:
            found.update(
                self._owners[pattern_id]
                for pattern_id in self._automaton.search(payload)
            )
        return sorted(found)

    def _alert(self, index: int, session: TcpSession) -> Alert:
        rule = self.rules[index]
        return Alert(
            session_id=session.session_id,
            timestamp=session.start,
            sid=rule.sid,
            cve_id=rule.cve_ids[0] if rule.cve_ids else None,
            rule_published=self.published[index],
            dst_ip=session.dst_ip,
            dst_port=session.dst_port,
            src_ip=session.src_ip,
        )

    def _matching(self, session: TcpSession) -> List[int]:
        if not session.payload:
            return []
        buffers = SessionBuffers(session.payload)
        return [
            index
            for index in self.candidates(session.payload)
            if match_rule(
                self.rules[index], session, buffers, check_ports=self.check_ports
            )
        ]

    def match_all(self, session: TcpSession) -> List[Alert]:
        """Every matching rule's alert, in insertion order."""
        return [self._alert(index, session) for index in self._matching(session)]

    def match(self, session: TcpSession) -> Optional[Alert]:
        """The retained alert: least ``(published, insertion index)``."""
        matching = self._matching(session)
        if not matching:
            return None
        _, index = min((self.published[index], index) for index in matching)
        return self._alert(index, session)

    def scan(self, sessions: Iterable[TcpSession]) -> List[Alert]:
        """Retained alerts in stream order."""
        return [alert for alert in map(self.match, sessions) if alert is not None]
