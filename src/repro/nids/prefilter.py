"""C-speed fast-pattern prefilter built on CPython's ``re`` engine.

:class:`RegexPrefilter` answers the question an Aho-Corasick automaton
answers — *which fast patterns occur in this payload?* — but drives the
scan through ``sre``'s compiled C loop instead of a pure-Python per-byte
state machine.  On the study archive this
is the difference between ~60 ns/byte and memory-bandwidth-class scanning,
the same trick real multi-pattern engines (Snort's MPSE, Hyperscan) rely on.

Four non-obvious choices make the regex route both fast and *exact*:

* **Trie-factored alternations.**  A flat ``p1|p2|...|pN`` alternation makes
  ``sre`` try all N branches at every candidate position (measured ~10 us
  per 160-byte payload at N=72 — the "alternation-size cliff").  Factoring
  the texts into a byte trie (``ab(?:c|d)`` instead of ``abc|abd``) means
  a position is rejected after at most one comparison per distinct leading
  byte.  Texts are additionally batched into chunks of at most
  ``chunk_size`` so a pathological ruleset cannot produce one enormous
  program.

* **The tries spell heads, not whole patterns.**  Walking the sorted
  patterns' implicit trie, a run of at most ``LEAF`` patterns sharing a
  prefix of at least ``MIN_HEAD`` bytes, or any run sharing
  ``MAX_TRIE_PATTERN`` bytes, becomes one *head*: that common prefix
  (:func:`_group_heads`).  The chunks hold heads only, so ``sre``'s
  Python-level parser reads a fraction of the pattern bytes.  When a head
  occurs, a member equal to it is reported directly and every other member
  is confirmed with one C ``in``: a member can only occur where its head
  occurs.  Long patterns need no separate path; their heads are at most
  ``MAX_TRIE_PATTERN`` bytes.

* **No capture groups.**  Wrapping alternatives in groups (to learn *which*
  text matched) disables ``sre``'s branch optimisations — a measured
  ~50x slowdown.  Instead the matched *text* identifies the head: every
  trie match spells out exactly one head, so ``match.group()`` is a dict
  key into the chunk's table.

* **Occurrence closure.**  ``finditer`` reports non-overlapping matches,
  and the greedy trie yields the *longest* head at each position.  Two
  completeness fixes recover full Aho-Corasick semantics over the heads:
  (1) every proper prefix of a reported head that is itself a head also
  occurs at the reported position (prefix closure); (2) a head can hide
  *inside* a reported span — it must then be a substring of the reported
  head at offset >= 1, or start with one of its proper suffixes (overlap
  sets) — and those few candidates are confirmed with a single C-level
  ``in`` check.  Any head occurrence not covered by these cases would
  have been the leftmost match of some ``finditer`` step, hence reported.
  Both tables are derived for a head the first time it matches, by
  bisecting its suffixes into the chunk's sorted heads, and memoized, so
  the tables of heads no payload holds are never built.

Matching is case-insensitive: patterns are lowercased at build time and
haystacks are lowercased (or declared already lowered) at search time.
Candidate sets are differentially tested against the pure-Python
Aho-Corasick automaton in ``tests/scan_oracle.py``
(``tests/test_prefilter.py``).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Head texts per compiled chunk.  Far below any hard ``sre`` limit; bounds
#: each compiled program's size.  Every chunk is one more sweep of each
#: searched payload, and the 10k-rule corpus' shards hold under 500 heads
#: each, so one chunk per shard.
DEFAULT_CHUNK_SIZE = 1024

#: Heads are at most this long: a run of texts whose common prefix reaches
#: it is one head of its first ``MAX_TRIE_PATTERN`` bytes, whatever the
#: run's size (deeply nested ``(?:...)`` groups stress ``sre_parse``
#: recursion, and the bytes past it would only lengthen the literal).
MAX_TRIE_PATTERN = 64

#: Most texts one head below ``MAX_TRIE_PATTERN`` bytes may stand for: each
#: is one ``in`` per payload where the head occurs, so the bound keeps a
#: whole rule family from falling under one head.
LEAF = 16

#: Shortest head standing for more than one text.  A shorter common prefix
#: occurs in too many payloads to be worth the members' ``in`` checks.
MIN_HEAD = 8


#: ``re.escape`` of every single byte, indexed by byte value.
_ESCAPED = tuple(re.escape(bytes([byte])) for byte in range(256))


def _trie_regex(ordered: Sequence[bytes]) -> "re.Pattern[bytes]":
    """Compile a byte-trie regex matching the *longest* of the sorted,
    unique ``ordered`` texts at each position (greedy descent tries
    extensions before a shorter terminal).  The trie is implicit: the texts
    below a node are a contiguous run ``ordered[lo:hi]``, terminal first."""

    def emit(lo: int, hi: int, depth: int) -> bytes:
        terminal = len(ordered[lo]) == depth
        branches = []
        i = lo + 1 if terminal else lo
        while i < hi:
            first = ordered[i]
            byte = first[depth]
            j = i + 1
            while j < hi and ordered[j][depth] == byte:
                j += 1
            # A run of single-child, non-terminal nodes is one literal: the
            # branch's shortest text (its first) outlives the run, and its
            # first and last texts agree on the next byte.
            last = ordered[j - 1]
            end = depth + 1
            while len(first) > end and first[end] == last[end]:
                end += 1
            run = b"".join([_ESCAPED[b] for b in first[depth:end]])
            branches.append(run + emit(i, j, end))
            i = j
        if not branches:
            return b""
        body = b"|".join(branches)
        if terminal:
            return b"(?:" + body + b")?"
        if len(branches) > 1:
            return b"(?:" + body + b")"
        return body

    return re.compile(emit(0, len(ordered), 0))


def _group_heads(ordered: Sequence[bytes]) -> List[Tuple[bytes, int, int]]:
    """Group the sorted, unique ``ordered`` texts into heads, walking the
    implicit trie as :func:`_trie_regex` does.  Returns ``(head, lo, hi)``
    in sorted order: ``ordered[lo:hi]`` are the head's members, each of
    which starts with it.

    * A run whose common prefix reaches ``MAX_TRIE_PATTERN`` bytes is one
      head: that many bytes of it.
    * A run of at most ``LEAF`` texts whose common prefix is at least
      ``MIN_HEAD`` bytes is one head: that prefix.
    * A text that ends where the trie splits is its own head.
    """
    groups: List[Tuple[bytes, int, int]] = []

    def walk(lo: int, hi: int, depth: int) -> None:
        first = ordered[lo]
        last = ordered[hi - 1]
        end = min(len(first), MAX_TRIE_PATTERN)
        while depth < end and first[depth] == last[depth]:
            depth += 1
        if depth == MAX_TRIE_PATTERN or (hi - lo <= LEAF and depth >= MIN_HEAD):
            groups.append((first[:depth], lo, hi))
            return
        i = lo
        if len(first) == depth:  # terminal: every other text extends it
            groups.append((first, lo, lo + 1))
            i += 1
        while i < hi:
            byte = ordered[i][depth]
            j = i + 1
            while j < hi and ordered[j][depth] == byte:
                j += 1
            walk(i, j, depth + 1)
            i = j

    if ordered:
        walk(0, len(ordered), 0)
    return groups


#: ``(text, ids)`` of the patterns a head stands for but does not equal,
#: each confirmed with one ``in`` where the head occurs.
_Confirms = Tuple[Tuple[bytes, Tuple[int, ...]], ...]


class _Chunk:
    """One compiled batch of heads; its occurrence-closure tables are
    derived per head on first match (:meth:`tables`)."""

    __slots__ = ("regex", "position", "ordered", "ids_by_text", "_tables")

    def __init__(self, texts: List[bytes], ids_by_text: Dict[bytes, Tuple[int, ...]]) -> None:
        self.ordered = sorted(texts)
        self.regex = _trie_regex(self.ordered)
        self.position = {text: index for index, text in enumerate(texts)}
        self.ids_by_text = ids_by_text
        self._tables: Dict[bytes, Tuple[Tuple[int, ...], Tuple[bytes, ...]]] = {}

    def tables(self, text: bytes) -> Tuple[Tuple[int, ...], Tuple[bytes, ...]]:
        """``(prefix-closure ids, overlap texts)`` for a matched text, in
        chunk order: its own ids plus those of its proper prefixes (they
        occur at the same position), and the texts that can hide inside or
        straddle out of its match (confirmed per haystack with ``in``).
        Memoized with ``setdefault``: concurrent derivations agree."""
        found = self._tables.get(text)
        if found is not None:
            return found
        # Walk each suffix text[start:] through the sorted texts, one bisect
        # per byte; most walks fall off after a byte or two.  From start 0
        # the walk spells prefixes, from start >= 1 interior texts; the
        # texts after a walk that consumed all of text[start:] straddle.
        ordered = self.ordered
        count = len(ordered)
        size = len(text)
        prefixes: Set[bytes] = set()
        overlaps: Set[bytes] = set()
        for start in range(size):
            spelled = overlaps if start else prefixes
            low = 0
            for stop in range(start + 1, size + 1):
                piece = text[start:stop]
                low = bisect_left(ordered, piece, low)
                if low == count or not ordered[low].startswith(piece):
                    break
                if ordered[low] == piece:
                    spelled.add(piece)
            else:
                if start:
                    while low < count and ordered[low].startswith(piece):
                        overlaps.add(ordered[low])
                        low += 1
        prefixes.discard(text)
        overlaps.discard(text)
        overlaps -= prefixes
        position = self.position
        ids = list(self.ids_by_text[text])
        for prefix in sorted(prefixes, key=position.__getitem__):
            ids.extend(self.ids_by_text[prefix])
        found = (tuple(ids), tuple(sorted(overlaps, key=position.__getitem__)))
        return self._tables.setdefault(text, found)


class RegexPrefilter:
    """A multi-pattern matcher over byte strings.

    Pattern ids are indices into ``patterns``; duplicate patterns all
    report, empty patterns are rejected.  The chunk tries spell the head
    texts (:func:`_group_heads`), sorted in :attr:`heads`; a head's
    ``_ids`` are those of the pattern equal to it (if any), and its
    ``_confirms`` the other patterns it stands for.
    """

    def __init__(
        self,
        patterns: Sequence[bytes],
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.patterns: List[bytes] = [p.lower() for p in patterns]
        for index, pattern in enumerate(self.patterns):
            if not pattern:
                raise ValueError(f"empty pattern at index {index}")
        ids_by_text: Dict[bytes, List[int]] = {}
        for index, pattern in enumerate(self.patterns):
            ids_by_text.setdefault(pattern, []).append(index)
        ordered = sorted(ids_by_text)

        self.heads: List[bytes] = []
        self._ids: Dict[bytes, Tuple[int, ...]] = {}
        self._confirms: Dict[bytes, _Confirms] = {}
        for head, lo, hi in _group_heads(ordered):
            # A member equal to its head sorts first in its run.
            ids: Tuple[int, ...] = ()
            if ordered[lo] == head:
                ids = tuple(ids_by_text[head])
                lo += 1
            self.heads.append(head)
            self._ids[head] = ids
            self._confirms[head] = tuple(
                (text, tuple(ids_by_text[text])) for text in ordered[lo:hi]
            )
        self._chunks: List[_Chunk] = [
            _Chunk(self.heads[start : start + chunk_size], self._ids)
            for start in range(0, len(self.heads), chunk_size)
        ]

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    def search(self, haystack: bytes, *, lowered: bool = False) -> Set[int]:
        """Ids of every pattern occurring in the haystack.

        ``lowered`` declares the haystack already lowercased, skipping the
        ``bytes.lower`` allocation when the caller already holds the
        lowered payload (``Ruleset.match_payloads``).

        The scan itself is ``findall`` — the entire haystack sweep and the
        per-occurrence extraction stay inside the C engine; Python touches
        only the (few) *distinct* matched heads, closed over their tables.
        """
        if not lowered:
            haystack = haystack.lower()
        found: Set[int] = set()
        confirms = self._confirms
        for chunk in self._chunks:
            texts = set(chunk.regex.findall(haystack))
            if not texts:
                continue
            tables = chunk.tables
            pending = list(texts)
            for text in pending:  # grows by the confirmed overlaps
                ids, overlaps = tables(text)
                found.update(ids)
                # A head that stands for other patterns is never a proper
                # prefix of another head (its run is its whole subtree), so
                # only the heads found here carry confirms.
                for member, member_ids in confirms[text]:
                    if member in haystack:
                        found.update(member_ids)
                for candidate in overlaps:
                    if candidate not in texts and candidate in haystack:
                        texts.add(candidate)
                        pending.append(candidate)
        return found

    def contains_any(self, haystack: bytes, *, lowered: bool = False) -> bool:
        """Whether any pattern occurs."""
        return bool(self.search(haystack, lowered=lowered))


#: Fast patterns per prefilter shard.  At Snort-realistic rule counts (tens
#: of thousands of distinct fast patterns) one monolithic engine pays its
#: entire compile + closure-precompute cost up front and in one piece;
#: sharding bounds each compile unit and lets it happen lazily, on the
#: first payload that actually searches.
DEFAULT_SHARD_SIZE = 2048


class ShardedPrefilter:
    """Fast patterns partitioned across independently compiled shards.

    API-compatible with :class:`RegexPrefilter` (``search`` /
    ``contains_any`` over global pattern ids), so
    :class:`repro.nids.ruleset.Ruleset` can swap it in without touching the
    candidate-merge logic: shard hits are translated back to global ids and
    the publication-ordered heap merge downstream is unchanged.

    Shards are **lazy**: each one compiles a :class:`RegexPrefilter` over
    its contiguous pattern slice on first search, and the compile
    counters (:attr:`shards_compiled`, :attr:`compile_seconds`,
    :attr:`searches`) feed :class:`repro.nids.engine.ScanTelemetry` as
    deltas per scan.  Laziness matters in the workers of a parallel scan:
    each worker compiles only the shards its chunks' payloads search.
    """

    def __init__(
        self,
        patterns: Sequence[bytes],
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        shard_count: Optional[int] = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.patterns: List[bytes] = [p.lower() for p in patterns]
        for index, pattern in enumerate(self.patterns):
            if not pattern:
                raise ValueError(f"empty pattern at index {index}")
        total = len(self.patterns)
        if shard_count is not None:
            if shard_count < 1:
                raise ValueError("shard_count must be >= 1")
            shard_size = max(1, -(-total // shard_count))
        self.shard_size = shard_size
        self._bounds: List[Tuple[int, int]] = [
            (start, min(start + shard_size, total))
            for start in range(0, total, shard_size)
        ] or [(0, 0)]
        self._engines: List[Optional[RegexPrefilter]] = [None] * len(self._bounds)
        self.shards_compiled = 0
        self.compile_seconds = 0.0
        self.searches = 0

    @property
    def shard_count(self) -> int:
        return len(self._bounds)

    @property
    def pattern_count(self) -> int:
        """Number of compiled patterns."""
        return len(self.patterns)

    def _shard(self, index: int) -> RegexPrefilter:
        """The shard's engine, compiled on first use."""
        engine = self._engines[index]
        if engine is None:
            start, stop = self._bounds[index]
            clock = perf_counter()
            engine = RegexPrefilter(self.patterns[start:stop])
            self.compile_seconds += perf_counter() - clock
            self.shards_compiled += 1
            self._engines[index] = engine
        return engine

    def search(self, haystack: bytes, *, lowered: bool = False) -> Set[int]:
        """Global ids of every pattern occurring in the haystack: the union
        of the per-shard searches, each shard's local ids offset back to
        the global pattern table."""
        if not lowered:
            haystack = haystack.lower()
        self.searches += 1
        found: Set[int] = set()
        for index, (start, stop) in enumerate(self._bounds):
            if start == stop:  # empty pattern table
                continue
            hits = self._shard(index).search(haystack, lowered=True)
            if hits:
                if start:
                    found.update(local + start for local in hits)
                else:
                    found.update(hits)
        return found

    def contains_any(self, haystack: bytes, *, lowered: bool = False) -> bool:
        """Whether any pattern occurs (early-exit across shards)."""
        if not lowered:
            haystack = haystack.lower()
        self.searches += 1
        for index, (start, stop) in enumerate(self._bounds):
            if start == stop:
                continue
            if self._shard(index).contains_any(haystack, lowered=True):
                return True
        return False
