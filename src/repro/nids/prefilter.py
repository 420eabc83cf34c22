"""C-speed fast-pattern prefilter built on CPython's ``re`` engine.

:class:`RegexPrefilter` answers the question an Aho-Corasick automaton
answers — *which fast patterns occur in this payload?* — but drives the
scan through ``sre``'s compiled C loop instead of a pure-Python per-byte
state machine.  On the study archive this
is the difference between ~60 ns/byte and memory-bandwidth-class scanning,
the same trick real multi-pattern engines (Snort's MPSE, Hyperscan) rely on.

Three non-obvious choices make the regex route both fast and *exact*:

* **Trie-factored alternations.**  A flat ``p1|p2|...|pN`` alternation makes
  ``sre`` try all N branches at every candidate position (measured ~10 us
  per 160-byte payload at N=72 — the "alternation-size cliff").  Factoring
  the patterns into a byte trie (``ab(?:c|d)`` instead of ``abc|abd``) means
  a position is rejected after at most one comparison per distinct leading
  byte.  Patterns are additionally batched into chunks of at most
  ``chunk_size`` so a pathological ruleset cannot produce one enormous
  program.

* **No capture groups.**  Wrapping alternatives in groups (to learn *which*
  pattern matched) disables ``sre``'s branch optimisations — a measured
  ~50x slowdown.  Instead the matched *text* identifies the pattern: every
  trie match spells out exactly one pattern, so ``match.group()`` is a dict
  key into the pattern table.

* **Occurrence closure.**  ``finditer`` reports non-overlapping matches,
  and the greedy trie yields the *longest* pattern at each position.  Two
  completeness fixes recover full Aho-Corasick semantics: (1) every proper
  prefix of a reported pattern that is itself a pattern also occurs at the
  reported position (prefix closure); (2) a pattern can hide
  *inside* a reported span — it must then be a substring of the reported
  pattern at offset >= 1, or start with one of its proper suffixes (overlap
  sets) — and those few candidates are confirmed with a single C-level
  ``in`` check.  Any pattern occurrence not covered by these cases would
  have been the leftmost match of some ``finditer`` step, hence reported.
  Both tables are derived for a text the first time it matches, by
  bisecting its suffixes into the chunk's sorted texts, and memoized: the
  10k-rule benchmark's scan matches 73 of its 9.3k texts, so tables for
  the rest are never built.

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

#: Patterns per compiled chunk.  Far below any hard ``sre`` limit; bounds
#: each compiled program's size.  Larger chunks compile no faster and cost
#: peak memory.
DEFAULT_CHUNK_SIZE = 256

#: Patterns longer than this are kept out of the trie (deeply nested
#: ``(?:...)`` groups stress ``sre_parse`` recursion).  A nested engine over
#: their first ``MAX_TRIE_PATTERN`` bytes screens them, and each prefix hit
#: is confirmed with a direct ``in`` scan — a single C substring search.
MAX_TRIE_PATTERN = 64


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


class _Chunk:
    """One compiled batch of patterns; its occurrence-closure tables are
    derived per text on first match (:meth:`tables`)."""

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
    report, empty patterns are rejected.
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
        frozen = {text: tuple(ids) for text, ids in ids_by_text.items()}

        # Long patterns bypass the trie.  A nested engine over their
        # MAX_TRIE_PATTERN-byte prefixes screens them: a long pattern can
        # occur only where its prefix does, and the nested engine reports
        # every prefix that occurs, so one C ``in`` check per prefix hit
        # confirms exactly the long patterns present.
        self._long: List[Tuple[bytes, Tuple[int, ...]]] = []
        short_texts: List[bytes] = []
        for text in frozen:  # first-seen order
            if len(text) > MAX_TRIE_PATTERN:
                self._long.append((text, frozen[text]))
            else:
                short_texts.append(text)
        self._long_prefixes: Optional[RegexPrefilter] = (
            RegexPrefilter(
                [text[:MAX_TRIE_PATTERN] for text, _ in self._long],
                chunk_size=chunk_size,
            )
            if self._long
            else None
        )

        self._chunks: List[_Chunk] = [
            _Chunk(
                short_texts[start : start + chunk_size],
                frozen,
            )
            for start in range(0, len(short_texts), chunk_size)
        ]

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    def search(self, haystack: bytes, *, lowered: bool = False) -> Set[int]:
        """Ids of every pattern occurring in the haystack.

        ``lowered`` declares the haystack already lowercased, skipping the
        ``bytes.lower`` allocation when the caller already holds the
        lowered payload (``Ruleset._match_payload``).

        The scan itself is ``findall`` — the entire haystack sweep and the
        per-occurrence extraction stay inside the C engine; Python touches
        only the (few) *distinct* matched texts.
        """
        if not lowered:
            haystack = haystack.lower()
        found: Set[int] = set()
        for chunk in self._chunks:
            texts = set(chunk.regex.findall(haystack))
            if not texts:
                continue
            tables = chunk.tables
            for text in tuple(texts):
                ids, overlaps = tables(text)
                found.update(ids)
                for candidate in overlaps:
                    if candidate not in texts and candidate in haystack:
                        texts.add(candidate)
                        found.update(tables(candidate)[0])
        if self._long_prefixes is not None:
            for index in self._long_prefixes.search(haystack, lowered=True):
                text, ids = self._long[index]
                if text in haystack:
                    found.update(ids)
        return found

    def contains_any(self, haystack: bytes, *, lowered: bool = False) -> bool:
        """Whether any pattern occurs (early-exit variant of search)."""
        if not lowered:
            haystack = haystack.lower()
        for chunk in self._chunks:
            if chunk.regex.search(haystack) is not None:
                return True
        if self._long_prefixes is not None:
            for index in self._long_prefixes.search(haystack, lowered=True):
                if self._long[index][0] in haystack:
                    return True
        return False


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
