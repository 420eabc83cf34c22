"""Ruleset management: publication dates, port-insensitive rewriting, and
earliest-published-signature retention.

The study evaluates the full ruleset over each session and keeps only the
earliest-*published* matching signature (Section 3.1) — this attributes a
session to the first defense that could ever have caught it, which is what
the D (fix deployed) comparison needs.

Matching is prefiltered the way real Snort does it: a multi-pattern search
over every rule's *fast pattern* scans each payload once and nominates
candidate rules; only candidates get full option evaluation.  Rules without
a usable fast pattern (pure-pcre rules) are always candidates.

The prefilter is :class:`repro.nids.prefilter.RegexPrefilter` (sharded by
pattern count, see :class:`repro.nids.prefilter.ShardedPrefilter`), which
drives the scan through CPython's C-implemented ``re`` engine.  Retention
is *ordered lazy*: candidate rules are walked in ascending publication
order (a ``heapq.merge`` across per-pattern rule lists pre-sorted at
compile time), so the first full match *is* the earliest-published one and
evaluation stops there.  One loop, :meth:`Ruleset.match_payloads`, does
this for every caller and both port modes: a port-sensitive ruleset skips
candidates whose ports do not match inside it.  Rule option lists are
flattened into positional step tuples (:func:`_compile_plan`) evaluated by
:func:`_eval_plan` with int-indexed buffers and pre-lowered ``nocase``
needles.

``tests/scan_oracle.py`` holds the differential reference: a pure-Python
Aho-Corasick automaton and the evaluate-every-candidate retention loop,
against which candidate sets and retained alerts are pinned
(``tests/test_prefilter.py``, ``tests/test_scan_equivalence.py``).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from datetime import datetime, tzinfo
from itertools import repeat
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.session import TcpSession
from repro.nids.matcher import (
    _BUFFER_INDEX,
    URI_INDEX,
    SessionBuffers,
    _compiled as _compiled_pcre,
    match_rule,
)
from repro.nids.prefilter import DEFAULT_SHARD_SIZE, RegexPrefilter, ShardedPrefilter
from repro.nids.rule import ContentMatch, IsDataAt, PcreMatch, Rule, SizeBound
from repro.util.timeutil import zoned_micros

#: Auto-sharding kicks in at this many *distinct* fast patterns.  Since the
#: tries spell heads, compile no longer dominates at this size: at 4,096 of
#: the scaled corpus' patterns one engine compiles and first-searches ~3k
#: payloads in 0.06 s against the two shards' 0.09 s, and at 9,295 the five
#: lazy shards win, 0.16 s against 0.23 s (one engine groups fewer texts
#: per head and compiles 0.15 s).  The break-even lies between the two
#: (see DESIGN.md §14).
AUTO_SHARD_MIN_PATTERNS = 4096


def resolve_prefilter_shards(shards: Optional[int] = None) -> Optional[int]:
    """The shard policy: ``None`` for auto (shard only past
    :data:`AUTO_SHARD_MIN_PATTERNS` distinct fast patterns), ``1`` for
    forced-monolithic, or a forced shard count ``>= 2``.
    """
    if shards is not None and shards < 1:
        raise ValueError(f"prefilter shards must be >= 1, got {shards}")
    return shards


@dataclass(frozen=True)
class Alert:
    """One retained detection: a session matched a signature."""

    session_id: int
    timestamp: datetime
    sid: int
    cve_id: Optional[str]
    rule_published: datetime
    dst_ip: int
    dst_port: int
    src_ip: int

    @property
    def pre_publication(self) -> bool:
        """Whether the traffic predates the signature's publication —
        only discoverable because evaluation is post-facto."""
        return self.timestamp < self.rule_published


# -- compiled match plans ------------------------------------------------------
#
# ``match_rule`` re-dispatches on option dataclass types and enum buffers for
# every candidate of every session.  The plan compiler flattens each rule's
# option list once, at ruleset compile time, into positional tuples with the
# per-option constants precomputed (buffer index, lowered nocase needle),
# leaving ``_eval_plan`` a branch on a small int opcode.  A pcre compiles
# (through the shared cache) when first evaluated: most never are.

_OP_CONTENT, _OP_PCRE, _OP_SIZE, _OP_ISDATAAT = 0, 1, 2, 3
_N_BUFFERS = len(_BUFFER_INDEX)


def _compile_plan(rule: Rule) -> Tuple[tuple, ...]:
    """Flatten a rule's options into step tuples for :func:`_eval_plan`."""
    steps: List[tuple] = []
    for option in rule.options:
        if isinstance(option, SizeBound):
            steps.append((_OP_SIZE, option.kind == "dsize", option))
        elif isinstance(option, IsDataAt):
            steps.append(
                (_OP_ISDATAAT, option.offset, option.relative, option.negated)
            )
        elif isinstance(option, ContentMatch):
            steps.append(
                (
                    _OP_CONTENT,
                    _BUFFER_INDEX[option.buffer],
                    option.pattern.lower() if option.nocase else option.pattern,
                    option.nocase,
                    option.negated,
                    option.offset or 0,
                    option.depth,
                    option.distance or 0,
                    option.within,
                    option.is_relative,
                )
            )
        elif isinstance(option, PcreMatch):
            steps.append(
                (
                    _OP_PCRE,
                    _BUFFER_INDEX[option.buffer],
                    option.pattern,
                    option.flags,
                    option.negated,
                )
            )
        else:  # pragma: no cover - AST is closed
            raise AssertionError(f"unknown option type {option!r}")
    return tuple(steps)


def _eval_plan(steps: Tuple[tuple, ...], buffers: SessionBuffers) -> bool:
    """Evaluate a compiled plan against one session's buffers.

    Semantically identical to :func:`repro.nids.matcher.match_rule` minus
    the port constraints, which the caller hoists (the study's default is
    port-insensitive, where they vanish entirely).
    """
    anchors = [0] * _N_BUFFERS
    last = 0  # RAW
    for step in steps:
        op = step[0]
        if op == _OP_CONTENT:
            (
                _,
                buf,
                needle,
                nocase,
                negated,
                offset,
                depth,
                distance,
                within,
                relative,
            ) = step
            haystack = (
                buffers.lowered_index(buf) if nocase else buffers.get_index(buf)
            )
            if haystack is None:
                # HTTP buffer requested but the payload is not HTTP: a
                # positive option cannot match; a negated one trivially holds.
                if negated:
                    continue
                return False
            size = len(haystack)
            if relative:
                start = anchors[buf] + distance
                end = start + within if within is not None else size
            else:
                start = offset
                end = start + depth if depth is not None else size
            if start < 0 or start > size:
                found = -1
            else:
                found = haystack.find(needle, start, end if end < size else size)
            if negated:
                if found >= 0:
                    return False
                continue
            if found < 0:
                return False
            anchors[buf] = found + len(needle)
            last = buf
        elif op == _OP_PCRE:
            _, buf, pattern, flags, negated = step
            haystack = buffers.get_index(buf)
            if haystack is None:
                if negated:
                    continue
                return False
            found = _compiled_pcre(pattern, flags).search(haystack)
            if negated:
                if found is not None:
                    return False
                continue
            if found is None:
                return False
            anchors[buf] = found.end()
            last = buf
        elif op == _OP_SIZE:
            _, is_dsize, option = step
            if is_dsize:
                size = len(buffers.raw)
            else:  # urilen
                uri = buffers.get_index(URI_INDEX)
                if uri is None:
                    return False
                size = len(uri)
            if not option.matches(size):
                return False
        else:  # _OP_ISDATAAT
            _, offset, relative, negated = step
            haystack = buffers.get_index(last)
            if haystack is None:
                return False
            position = offset + anchors[last] if relative else offset
            if (position < len(haystack)) == negated:
                return False
    return True


@dataclass(frozen=True)
class RuleAlertColumns:
    """Per rule index: the SID, the first CVE (``cve`` indexes ``cves``;
    -1 is None) and the publication time in microseconds
    (:func:`repro.util.timeutil.zoned_micros`, whose tzinfo is ``zone``)."""

    sid: np.ndarray
    cve: np.ndarray
    cves: List[str]
    published: np.ndarray
    zone: Optional[tzinfo]


class Ruleset:
    """A set of rules with publication dates.

    ``port_insensitive`` (default True, per the paper) rewrites every rule
    to drop port constraints before matching.  ``shards`` selects the
    prefilter shard policy (see :func:`resolve_prefilter_shards`): at
    Snort-scale rule counts the fast patterns are partitioned across lazily
    compiled shards, which nominate the same candidate groups as the
    monolithic engine — the downstream publication-ordered merge is
    shard-agnostic, so alerts are byte-identical either way
    (``tests/test_rule_scale.py``).
    """

    def __init__(
        self,
        *,
        port_insensitive: bool = True,
        shards: Optional[int] = None,
    ) -> None:
        self._rules: List[Tuple[Rule, datetime]] = []
        self._sid_index: Dict[int, int] = {}
        self._port_insensitive = port_insensitive
        self._shards = resolve_prefilter_shards(shards)
        self._fast_patterns: List[Optional[bytes]] = []
        self._prefilter: Optional[RegexPrefilter] = None
        self._sharded: Optional[ShardedPrefilter] = None
        self._pattern_rules: List[List[int]] = []
        self._unfiltered: List[int] = []
        # Ordered fast-path tables, rebuilt by _compile().
        self._groups: List["array[int]"] = []
        self._unfiltered_ordered: "array[int]" = array("l")
        self._rank: "array[int]" = array("l")
        self._plans: List[Tuple[tuple, ...]] = []
        self._alert_columns: Optional[RuleAlertColumns] = None
        self._compiled = False

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> List[Rule]:
        return [rule for rule, _ in self._rules]

    @property
    def port_insensitive(self) -> bool:
        """Whether rules were rewritten to drop port constraints."""
        return self._port_insensitive

    def add(self, rule: Rule, published: datetime) -> None:
        """Register a rule with its publication timestamp."""
        if rule.sid in self._sid_index:
            raise ValueError(f"duplicate sid {rule.sid}")
        if self._port_insensitive:
            rule = rule.port_insensitive()
        self._sid_index[rule.sid] = len(self._rules)
        self._rules.append((rule, published))
        fast = rule.fast_pattern
        self._fast_patterns.append(fast.pattern.lower() if fast else None)
        self._compiled = False  # prefilter rebuilt lazily on next match

    def extend(self, rules: Iterable[Tuple[Rule, datetime]]) -> None:
        for rule, published in rules:
            self.add(rule, published)

    def update(self, rule: Rule, published: datetime) -> bool:
        """Install a rule revision.

        Vendors ship revised signatures under the same SID with a bumped
        ``rev`` (e.g. tightening a pattern after false positives).  The
        revision replaces the detection logic but keeps the *original*
        publication date — the defense existed from first release, which is
        what the D (fix deployed) lifecycle event measures.

        Returns True when an existing SID was revised; adds the rule as new
        (with ``published``) otherwise.  A stale revision (rev not higher
        than the installed one) is rejected.
        """
        index = self._sid_index.get(rule.sid)
        if index is None:
            self.add(rule, published)
            return False
        existing, original_published = self._rules[index]
        if rule.rev <= existing.rev:
            raise ValueError(
                f"sid {rule.sid}: revision {rule.rev} is not newer "
                f"than installed rev {existing.rev}"
            )
        if self._port_insensitive:
            rule = rule.port_insensitive()
        self._rules[index] = (rule, original_published)
        fast = rule.fast_pattern
        self._fast_patterns[index] = fast.pattern.lower() if fast else None
        self._compiled = False
        return True

    def published_at(self, sid: int) -> datetime:
        """Publication timestamp for a SID (O(1); called per alert)."""
        try:
            return self._rules[self._sid_index[sid]][1]
        except KeyError:
            raise KeyError(sid) from None

    def rule_for_sid(self, sid: int) -> Rule:
        """The installed rule for a SID (O(1); called per alert)."""
        try:
            return self._rules[self._sid_index[sid]][0]
        except KeyError:
            raise KeyError(sid) from None

    # -- prefilter ----------------------------------------------------------

    def _compile(self) -> None:
        """(Re)build the fast-pattern prefilter and the ordered match plans."""
        pattern_to_id: Dict[bytes, int] = {}
        patterns: List[bytes] = []
        self._pattern_rules = []
        self._unfiltered = []
        for index, pattern in enumerate(self._fast_patterns):
            if pattern is None:
                self._unfiltered.append(index)
                continue
            pattern_id = pattern_to_id.get(pattern)
            if pattern_id is None:
                pattern_id = len(patterns)
                pattern_to_id[pattern] = pattern_id
                patterns.append(pattern)
                self._pattern_rules.append([])
            self._pattern_rules[pattern_id].append(index)
        self._prefilter = None
        self._sharded = None
        if patterns:
            if self._use_sharding(len(patterns)):
                shard_count = (
                    self._shards if self._shards and self._shards > 1 else None
                )
                self._sharded = ShardedPrefilter(
                    patterns,
                    shard_count=shard_count,
                    shard_size=DEFAULT_SHARD_SIZE,
                )
            else:
                self._prefilter = RegexPrefilter(patterns)

        # Publication order: rank every rule by (published, insertion index)
        # once, then keep each pattern group's rule list sorted by that rank.
        # match_payloads can then stop at the *first* full match — it is the
        # earliest-published one by construction.
        total = len(self._rules)
        order = sorted(range(total), key=lambda i: (self._rules[i][1], i))
        rank: "array[int]" = array("l", [0] * total)
        for position, index in enumerate(order):
            rank[index] = position
        self._rank = rank
        by_rank = rank.__getitem__
        self._groups = [
            array("l", sorted(ids, key=by_rank)) for ids in self._pattern_rules
        ]
        self._unfiltered_ordered = array("l", sorted(self._unfiltered, key=by_rank))
        self._plans = [_compile_plan(rule) for rule, _ in self._rules]
        self._alert_columns = None
        self._compiled = True

    def _ensure_compiled(self) -> None:
        if not self._compiled:
            self._compile()

    def _use_sharding(self, pattern_count: int) -> bool:
        """Whether this ruleset's fast patterns get a sharded engine."""
        if self._shards is not None:
            return self._shards > 1
        return pattern_count >= AUTO_SHARD_MIN_PATTERNS

    @property
    def prefilter_shards(self) -> int:
        """Shard count of the compiled prefilter (0 when monolithic)."""
        self._ensure_compiled()
        return self._sharded.shard_count if self._sharded is not None else 0

    def prefilter_stats(self) -> Dict[str, float]:
        """Cumulative shard counters for :class:`~repro.nids.engine.ScanTelemetry`.

        The scan loop snapshots this before and after a stream and records
        the *delta*, so counters sum correctly when parallel workers merge
        their telemetry.  All zeros for a monolithic prefilter.
        """
        sharded = self._sharded if self._compiled else None
        if sharded is None:
            return {
                "prefilter_shards": 0,
                "shards_compiled": 0,
                "shard_compile_seconds": 0.0,
                "shard_searches": 0,
            }
        return {
            "prefilter_shards": sharded.shard_count,
            "shards_compiled": sharded.shards_compiled,
            "shard_compile_seconds": sharded.compile_seconds,
            "shard_searches": sharded.searches,
        }

    def _search_engine(self):
        """The active multi-pattern matcher, sharded or monolithic (the two
        are API-equal)."""
        return self._sharded if self._sharded is not None else self._prefilter

    def _candidates(self, payload: bytes) -> List[int]:
        """Rule indices whose fast pattern occurs (plus unfiltered rules)."""
        candidates = list(self._unfiltered)
        engine = self._search_engine()
        if engine is not None:
            # Lower once here; the prefilter accepts the pre-lowered haystack.
            for pattern_id in engine.search(payload.lower(), lowered=True):
                candidates.extend(self._pattern_rules[pattern_id])
        return candidates

    # -- matching -------------------------------------------------------------

    def match_payloads(
        self,
        payloads: Sequence[bytes],
        ports: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Tuple[List[int], int, int, int, float, float]:
        """Earliest-published matching rule index of each payload.

        The ordered lazy fast path: the prefilter nominates pattern groups,
        candidates stream out of a heap-merge in ascending publication rank,
        and evaluation stops at the first full match.  ``ports`` gives each
        payload's ``(src_port, dst_port)``: a port-sensitive ruleset
        requires it and skips candidates whose ports do not match; a
        port-insensitive one ignores it.  Returns ``(winners,
        prefilter_hits, nominated, evaluated, prefilter_seconds,
        eval_seconds)`` where ``winners`` holds each payload's rule index,
        or -1 when nothing matched; the counters and stage timings feed
        :class:`repro.nids.engine.ScanTelemetry`.  Every table lookup is
        hoisted out of the per-payload loop: this is the scan's inner loop.
        """
        if self._port_insensitive:
            ports = repeat(None)
        elif ports is None:
            raise ValueError("a port-sensitive ruleset needs each payload's ports")
        elif len(ports) != len(payloads):
            raise ValueError(f"{len(payloads)} payloads but {len(ports)} port pairs")
        self._ensure_compiled()
        engine = self._search_engine()
        search = engine.search if engine is not None else None
        groups = self._groups
        unfiltered = self._unfiltered_ordered
        n_unfiltered = len(unfiltered)
        rank_key = self._rank.__getitem__
        plans = self._plans
        rules = self._rules
        merge = heapq.merge
        winners: List[int] = []
        prefilter_hits = nominated = evaluated = 0
        prefilter_seconds = eval_seconds = 0.0
        for payload, pair in zip(payloads, ports):
            t_scan = perf_counter()
            hits = search(payload.lower(), lowered=True) if search is not None else ()
            t_nominate = perf_counter()
            prefilter_seconds += t_nominate - t_scan
            winner = -1
            if hits:
                prefilter_hits += 1
                nominated += n_unfiltered
                if len(hits) == 1:
                    (pattern_id,) = hits
                    group = groups[pattern_id]
                    nominated += len(group)
                    if n_unfiltered:
                        candidates = merge(group, unfiltered, key=rank_key)
                    else:
                        candidates = group
                else:
                    lists = [groups[pattern_id] for pattern_id in hits]
                    for group in lists:
                        nominated += len(group)
                    if n_unfiltered:
                        lists.append(unfiltered)
                    candidates = merge(*lists, key=rank_key)
            elif n_unfiltered:
                nominated += n_unfiltered
                candidates = unfiltered
            else:
                winners.append(winner)
                continue
            buffers = SessionBuffers(payload)
            if pair is None:
                for index in candidates:
                    evaluated += 1
                    if _eval_plan(plans[index], buffers):
                        winner = index
                        break
            else:
                src_port, dst_port = pair
                for index in candidates:
                    rule = rules[index][0]
                    if not rule.dst_ports.matches(dst_port):
                        continue
                    if not rule.src_ports.matches(src_port):
                        continue
                    evaluated += 1
                    if _eval_plan(plans[index], buffers):
                        winner = index
                        break
            eval_seconds += perf_counter() - t_nominate
            winners.append(winner)
        return (
            winners,
            prefilter_hits,
            nominated,
            evaluated,
            prefilter_seconds,
            eval_seconds,
        )

    def alert_columns(self) -> RuleAlertColumns:
        """What an alert takes from its winning rule, per rule index, as
        columns (built once per compile)."""
        self._ensure_compiled()
        if self._alert_columns is None:
            rules = self._rules
            cves = [rule.cve_ids[0] if rule.cve_ids else None for rule, _ in rules]
            names = list(dict.fromkeys(cve for cve in cves if cve is not None))
            code = {cve: index for index, cve in enumerate(names)}
            published, zone = zoned_micros([when for _, when in rules])
            self._alert_columns = RuleAlertColumns(
                sid=np.array([rule.sid for rule, _ in rules], np.int32),
                cve=np.array([code.get(cve, -1) for cve in cves], np.int32),
                cves=names,
                published=published,
                zone=zone,
            )
        return self._alert_columns

    def match_session(self, session: TcpSession) -> Optional[Alert]:
        """Evaluate all rules; retain the earliest-published match.

        Returns None when no rule matches.
        """
        if not session.payload:
            return None
        winner = self.match_payloads(
            [session.payload], [(session.src_port, session.dst_port)]
        )[0][0]
        if winner < 0:
            return None
        rule, published = self._rules[winner]
        return self._alert(rule, published, session)

    def match_all(self, session: TcpSession) -> List[Alert]:
        """All matching rules for a session (diagnostics / case studies)."""
        alerts: List[Alert] = []
        if not session.payload:
            return alerts
        self._ensure_compiled()
        buffers = SessionBuffers(session.payload)
        for index in sorted(self._candidates(session.payload)):
            rule, published = self._rules[index]
            if match_rule(rule, session, buffers, check_ports=not self._port_insensitive):
                alerts.append(self._alert(rule, published, session))
        return alerts

    def _alert(self, rule: Rule, published: datetime, session: TcpSession) -> Alert:
        cve_ids = rule.cve_ids
        return Alert(
            session_id=session.session_id,
            timestamp=session.start,
            sid=rule.sid,
            cve_id=cve_ids[0] if cve_ids else None,
            rule_published=published,
            dst_ip=session.dst_ip,
            dst_port=session.dst_port,
            src_ip=session.src_ip,
        )
