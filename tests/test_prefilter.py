"""Tests for the C-speed regex fast-pattern prefilter.

The unit tests mirror ``tests/test_automaton.py`` case for case — the
prefilter keeps the oracle automaton's contract — and the hypothesis
properties check the strong form directly: :class:`RegexPrefilter` and the
:class:`AhoCorasick` of ``tests/scan_oracle.py`` nominate *identical*
pattern-id sets on arbitrary inputs, including dense self-overlapping
alphabets, awkward chunk boundaries and pattern lists built to stress
the grouping of patterns under heads.  The grouping's invariants are
checked directly, and each chunk's lazily derived closure tables and its
trie regex (both over head texts) against the frozen builders in
``tests/prefilter_oracle.py``.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import STAGE_MODULES
from repro.nids.prefilter import (
    DEFAULT_CHUNK_SIZE,
    LEAF,
    MAX_TRIE_PATTERN,
    MIN_HEAD,
    RegexPrefilter,
    _group_heads,
    _trie_regex,
)
from repro.nids.scale import ScaleConfig, generate_scaled
from tests import import_closure
from tests.prefilter_oracle import pairwise_tables, per_node_trie_regex
from tests.scan_oracle import AhoCorasick


class TestRegexPrefilter:
    def test_basic_search(self):
        prefilter = RegexPrefilter([b"he", b"she", b"his", b"hers"])
        assert prefilter.search(b"ushers") == {0, 1, 3}
        assert prefilter.search(b"his hen") == {0, 2}
        assert prefilter.search(b"nothing") == set()

    def test_case_insensitive(self):
        prefilter = RegexPrefilter([b"${JNDI:"])
        assert prefilter.search(b"x=${jndi:ldap}") == {0}
        assert prefilter.contains_any(b"X=${JnDi:LDAP}")

    def test_overlapping_patterns(self):
        prefilter = RegexPrefilter([b"ab", b"abc", b"bc", b"c"])
        assert prefilter.search(b"abc") == {0, 1, 2, 3}

    def test_pattern_is_prefix_of_other(self):
        prefilter = RegexPrefilter([b"jndi", b"jndi:ldap"])
        assert prefilter.search(b"${jndi:ldap://x}") == {0, 1}
        assert prefilter.search(b"${jndi:rmi://x}") == {0}

    def test_duplicate_patterns_both_reported(self):
        prefilter = RegexPrefilter([b"dup", b"dup"])
        assert prefilter.search(b"a dup b") == {0, 1}

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            RegexPrefilter([b"ok", b""])

    def test_empty_haystack(self):
        prefilter = RegexPrefilter([b"x"])
        assert prefilter.search(b"") == set()
        assert not prefilter.contains_any(b"")

    def test_binary_patterns(self):
        prefilter = RegexPrefilter([b"\x00\xff", b"\xde\xad\xbe\xef"])
        assert prefilter.search(b"aa\x00\xffbb\xde\xad\xbe\xef") == {0, 1}

    def test_pattern_hidden_inside_reported_match(self):
        # The greedy trie reports "aaba" at position 0; "abab" starts inside
        # that span and must be recovered by the occurrence closure.
        prefilter = RegexPrefilter([b"aaba", b"abab"])
        assert prefilter.search(b"aabab") == {0, 1}

    def test_lowered_flag_skips_lowering(self):
        prefilter = RegexPrefilter([b"NeEdLe"])
        haystack = b"xx NEEDLE xx"
        assert prefilter.search(haystack) == {0}
        assert prefilter.search(haystack.lower(), lowered=True) == {0}
        # Declaring an *unlowered* haystack lowered is the caller's bug:
        # uppercase bytes are then matched literally, like the automaton.
        assert prefilter.search(haystack, lowered=True) == set()
        assert prefilter.contains_any(haystack.lower(), lowered=True)

    def test_chunking_preserves_results(self):
        patterns = [b"ab", b"abc", b"bc", b"c", b"xyz", b"yz"]
        whole = RegexPrefilter(patterns)
        chunked = RegexPrefilter(patterns, chunk_size=2)
        assert whole.chunk_count == 1
        assert chunked.chunk_count == 3
        for haystack in (b"abc", b"xyzc", b"", b"nothing", b"abcxyz"):
            assert chunked.search(haystack) == whole.search(haystack)
            assert chunked.contains_any(haystack) == whole.contains_any(
                haystack
            )

    def test_long_patterns_bypass_trie(self):
        """A long pattern's bytes past its ``MAX_TRIE_PATTERN``-byte head
        stay out of the trie: the head screens it, and one ``in``
        confirms it."""
        long_pattern = b"L" * (MAX_TRIE_PATTERN + 1)
        prefilter = RegexPrefilter([b"short", long_pattern])
        assert prefilter.search(b"x" + long_pattern.lower() + b"x") == {1}
        assert prefilter.search(b"a short one") == {0}
        assert prefilter.contains_any(long_pattern)
        # One chunk spells "short" and the long pattern's head.
        assert prefilter.chunk_count == 1
        head = long_pattern[:MAX_TRIE_PATTERN].lower()
        assert prefilter.heads == [head, b"short"]
        assert prefilter._ids == {head: (), b"short": (0,)}
        assert prefilter._confirms == {
            head: ((long_pattern.lower(), (1,)),),
            b"short": (),
        }
        # A head hit is confirmed by the full pattern before it reports.
        prefix_only = b"x" + head + b"x"
        assert prefilter._chunks[0].regex.findall(prefix_only) == [head]
        assert prefilter.search(prefix_only) == set()
        assert not prefilter.contains_any(prefix_only)

    def test_short_runs_share_one_head(self):
        """A run of at most LEAF texts with a common prefix of at least
        MIN_HEAD bytes is one head; the member equal to it reports
        directly, the others after an ``in``."""
        stem = b"/cgi-bin/"
        assert len(stem) >= MIN_HEAD
        patterns = [stem + b"b", stem, stem + b"a", stem + b"a"]
        prefilter = RegexPrefilter(patterns)
        assert prefilter.heads == [stem]
        assert prefilter._ids == {stem: (1,)}
        assert prefilter._confirms == {
            stem: ((stem + b"a", (2, 3)), (stem + b"b", (0,)))
        }
        assert prefilter.search(b"GET " + stem + b"a") == {1, 2, 3}
        assert prefilter.search(b"GET " + stem + b"c") == {1}
        assert not prefilter.contains_any(stem[:-1])

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            RegexPrefilter([b"x"], chunk_size=0)

    def test_default_chunk_size_sane(self):
        assert 1 <= DEFAULT_CHUNK_SIZE
        patterns = [bytes([65 + i % 26, 97 + i // 26]) for i in range(40)]
        prefilter = RegexPrefilter(patterns)
        assert prefilter.chunk_count == 1

    def test_regex_metacharacters_are_literal(self):
        prefilter = RegexPrefilter([b".*", b"a+b", b"(x)"])
        assert prefilter.search(b"literal .* here") == {0}
        assert prefilter.search(b"a+b and (x)") == {1, 2}
        assert prefilter.search(b"aab xx") == set()


@given(
    st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=8),
    st.binary(max_size=120),
)
@settings(max_examples=300)
def test_search_equivalent_to_automaton(patterns, haystack):
    """Property: the regex prefilter nominates exactly the automaton's
    candidate set — the differential-equivalence guarantee the detection
    engines rely on."""
    automaton = AhoCorasick(patterns)
    prefilter = RegexPrefilter(patterns)
    expected = automaton.search(haystack)
    assert prefilter.search(haystack) == expected
    assert prefilter.contains_any(haystack) == automaton.contains_any(
        haystack
    )
    lowered = haystack.lower()
    assert prefilter.search(lowered, lowered=True) == expected
    assert automaton.search(lowered, lowered=True) == expected


@given(
    st.lists(
        st.text(alphabet="ab", min_size=1, max_size=5).map(
            lambda s: s.encode()
        ),
        min_size=1,
        max_size=10,
    ),
    st.text(alphabet="ab", max_size=60).map(lambda s: s.encode()),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=300)
def test_dense_overlaps_equivalent_to_automaton(patterns, haystack, chunk):
    """Property: a two-letter alphabet maximises self-overlap (prefixes,
    suffix bridges, patterns hidden inside greedy matches) and small chunk
    sizes force patterns apart — the closure logic must still agree with
    the automaton exactly."""
    automaton = AhoCorasick(patterns)
    prefilter = RegexPrefilter(patterns, chunk_size=chunk)
    assert prefilter.search(haystack) == automaton.search(haystack)
    assert prefilter.contains_any(haystack) == automaton.contains_any(
        haystack
    )


def _chunk_heads(prefilter, chunk_size):
    """The head texts of each chunk, as ``RegexPrefilter`` splits them:
    sorted heads in runs of ``chunk_size``."""
    heads = prefilter.heads
    return [heads[i : i + chunk_size] for i in range(0, len(heads), chunk_size)]


def _assert_heads_group(prefilter, patterns):
    """The heads partition the distinct lowered patterns: sorted and
    unique, each a prefix of all its members, and no head below
    MAX_TRIE_PATTERN bytes stands for more than LEAF texts; a head with
    confirms is no proper prefix of another head (search reads only the
    confirms of the heads it finds); the members carry the patterns'
    ids."""
    heads = prefilter.heads
    assert heads == sorted(set(heads))
    ids_by_text = {}
    for index, pattern in enumerate(patterns):
        ids_by_text.setdefault(pattern.lower(), []).append(index)
    seen = {}
    assert set(prefilter._ids) == set(prefilter._confirms) == set(heads)
    for head in heads:
        direct, confirm = prefilter._ids[head], prefilter._confirms[head]
        members = [text for text, _ in confirm]
        if direct:
            members.append(head)
            seen[head] = direct
        assert members
        assert len(head) <= MAX_TRIE_PATTERN
        assert len(members) <= LEAF or len(head) == MAX_TRIE_PATTERN
        if len(members) > 1 or members[0] != head:
            assert len(head) >= MIN_HEAD
        for text, ids in confirm:
            assert text != head and text.startswith(head)
            seen[text] = ids
    for head, following in zip(heads, heads[1:]):
        # Texts extending a head sort right after it.
        assert not (prefilter._confirms[head] and following.startswith(head))
    assert seen == {text: tuple(ids) for text, ids in ids_by_text.items()}


def _assert_tables_match_oracle(patterns, chunk_size=DEFAULT_CHUNK_SIZE):
    prefilter = RegexPrefilter(patterns, chunk_size=chunk_size)
    _assert_heads_group(prefilter, patterns)
    chunks = _chunk_heads(prefilter, chunk_size)
    assert len(chunks) == prefilter.chunk_count
    for texts, chunk in zip(chunks, prefilter._chunks):
        assert list(chunk.position) == texts
        assert chunk.ordered == sorted(texts)
        closure, overlaps = pairwise_tables(texts, chunk.ids_by_text)
        for text in texts:
            assert chunk.tables(text) == (closure[text], overlaps[text])
    return prefilter


@given(
    st.lists(
        st.text(alphabet="ab", min_size=1, max_size=5).map(
            lambda s: s.encode()
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=300)
def test_lazy_tables_equal_pairwise_oracle(patterns, chunk):
    """Property: every text's lazily derived closure tables equal the
    frozen pairwise builder's, tuple order included, on dense
    self-overlapping pattern lists."""
    _assert_tables_match_oracle(patterns, chunk)


def test_tables_derived_only_for_matched_texts():
    """A new chunk holds no tables; a search derives them only for the
    texts it matched or confirmed, and a repeat search reuses them."""
    patterns = [b"abc", b"ab", b"bcd", b"cd", b"xyz", b"zzz"]
    prefilter = RegexPrefilter(patterns)
    (chunk,) = prefilter._chunks
    assert chunk._tables == {}
    # findall reports only "abc" (its prefix "ab" rides in its closure);
    # "bcd" and "cd" straddle out of it and are confirmed with ``in``.
    first = prefilter.search(b"xxabcdxx")
    assert first == {0, 1, 2, 3}
    assert set(chunk._tables) == {b"abc", b"bcd", b"cd"}
    assert prefilter.search(b"xxabcdxx") == first
    assert set(chunk._tables) == {b"abc", b"bcd", b"cd"}
    assert prefilter.search(b"xyz") == {4}
    assert set(chunk._tables) == {b"abc", b"bcd", b"cd", b"xyz"}


@pytest.fixture(scope="module")
def scaled_patterns():
    """The distinct fast patterns of a 2000-rule scaled corpus, in rule
    order (as :class:`repro.nids.ruleset.Ruleset` hands them over)."""
    scaled = generate_scaled(ScaleConfig(size=2000))
    return list(
        dict.fromkeys(
            item.rule.fast_pattern.pattern.lower()
            for item in scaled
            if item.rule.fast_pattern is not None
        )
    )


def test_scaled_corpus_tables_equal_pairwise_oracle(scaled_patterns):
    prefilter = _assert_tables_match_oracle(scaled_patterns, chunk_size=128)
    assert prefilter.chunk_count >= 3
    # Heads stand for several texts, long patterns among them.
    assert len(prefilter.heads) < len(scaled_patterns) // 2
    assert any(
        len(head) == MAX_TRIE_PATTERN and confirm
        for head, confirm in prefilter._confirms.items()
    )


def test_trie_regex_source_equals_per_node_emitter(scaled_patterns):
    prefilter = RegexPrefilter(scaled_patterns, chunk_size=128)
    for texts in _chunk_heads(prefilter, 128):
        assert (
            _trie_regex(sorted(texts)).pattern
            == per_node_trie_regex(texts).pattern
        )
    for start in range(0, len(scaled_patterns), 256):
        texts = [
            text
            for text in scaled_patterns[start : start + 256]
            if len(text) <= MAX_TRIE_PATTERN
        ]
        assert (
            _trie_regex(sorted(texts)).pattern
            == per_node_trie_regex(texts).pattern
        )


def test_concurrent_first_searches_agree(scaled_patterns):
    """Threads racing to derive (and memoize) the same chunk's tables
    still each get the automaton's answer, and every memo entry equals
    the pairwise oracle's."""
    patterns = scaled_patterns[:600]
    prefilter = RegexPrefilter(patterns)
    automaton = AhoCorasick(patterns)
    haystacks = [
        b"GET " + first + b" " + second
        for first, second in zip(patterns[::7], patterns[3::11])
    ]
    expected = [automaton.search(haystack) for haystack in haystacks]
    failures = []

    def worker(offset):
        for step in range(len(haystacks)):
            index = (offset + step) % len(haystacks)
            if prefilter.search(haystacks[index]) != expected[index]:
                failures.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    chunks = _chunk_heads(prefilter, DEFAULT_CHUNK_SIZE)
    for texts, chunk in zip(chunks, prefilter._chunks):
        closure, overlaps = pairwise_tables(texts, chunk.ids_by_text)
        for text, tables in chunk._tables.items():
            assert tables == (closure[text], overlaps[text])
    assert sum(len(chunk._tables) for chunk in prefilter._chunks) > 0


@given(
    st.lists(
        st.text(alphabet="ab", min_size=1, max_size=8).map(str.encode),
        min_size=1,
        max_size=16,
        unique=True,
    )
)
@settings(max_examples=300)
def test_trie_regex_source_equals_per_node_emitter_dense(texts):
    """Property: on dense two-letter patterns (deep shared prefixes, texts
    that end inside runs) the sorted emitter spells the per-node source."""
    assert _trie_regex(sorted(texts)).pattern == per_node_trie_regex(texts).pattern


_LONG = st.text(alphabet="ab", min_size=60, max_size=80).map(str.encode)


@st.composite
def _long_pattern_cases(draw):
    """Long two-letter patterns that share prefixes and overlap, plus a
    haystack stitched from their whole texts, prefixes (including bare
    MAX_TRIE_PATTERN-byte heads) and suffixes."""
    stem = draw(_LONG)
    patterns = draw(
        st.lists(
            st.one_of(
                _LONG,
                st.tuples(
                    st.integers(min_value=1, max_value=len(stem)), _LONG
                ).map(lambda cut_tail: (stem[: cut_tail[0]] + cut_tail[1])[:80]),
                st.text(alphabet="ab", min_size=1, max_size=6).map(str.encode),
            ),
            min_size=1,
            max_size=8,
        )
    )
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        source = draw(st.sampled_from(patterns + [stem]))
        kind = draw(st.sampled_from(["whole", "prefix", "head", "suffix", "filler"]))
        if kind == "whole":
            pieces.append(source)
        elif kind == "prefix":
            pieces.append(source[: draw(st.integers(0, len(source)))])
        elif kind == "head":
            pieces.append(source[:MAX_TRIE_PATTERN])
        elif kind == "suffix":
            pieces.append(source[draw(st.integers(0, len(source))) :])
        else:
            pieces.append(draw(st.text(alphabet="ab", max_size=8)).encode())
    return patterns, b"".join(pieces)


@given(_long_pattern_cases(), st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_long_patterns_equivalent_to_automaton(case, chunk):
    """Property: long patterns (60-80 bytes, two letters, shared stems)
    behind heads of at most MAX_TRIE_PATTERN bytes report exactly the
    automaton's set, including haystacks holding a long pattern's head but
    not the pattern."""
    patterns, haystack = case
    automaton = AhoCorasick(patterns)
    prefilter = RegexPrefilter(patterns, chunk_size=chunk)
    assert prefilter.search(haystack) == automaton.search(haystack)
    assert prefilter.contains_any(haystack) == automaton.contains_any(
        haystack
    )


#: Bytes that stress escaping, case folding and non-ASCII handling.
_HOSTILE_ALPHABET = b"aA.*(|\\?\x00\xc3\xff"
_HOSTILE_BYTES = st.lists(st.sampled_from(_HOSTILE_ALPHABET), max_size=4).map(bytes)


@st.composite
def _hostile_cases(draw):
    """Pattern lists built to stress the head grouping: stems around
    MIN_HEAD and MAX_TRIE_PATTERN bytes, each extended by up to 3 * LEAF
    tails (runs longer than LEAF under one prefix), the stems' own
    prefixes (texts that are prefixes of others), duplicates, and bytes
    that are regex metacharacters, non-ASCII or upper case.  The
    haystack is stitched from whole patterns, their prefixes, stems cut
    to MAX_TRIE_PATTERN bytes, suffixes and filler, in either case."""
    lengths = [1, MIN_HEAD - 1, MIN_HEAD, MIN_HEAD + 3, MAX_TRIE_PATTERN - 2,
               MAX_TRIE_PATTERN, MAX_TRIE_PATTERN + 9]
    stems = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.sampled_from(lengths))
        base = draw(
            st.lists(st.sampled_from(_HOSTILE_ALPHABET), min_size=length, max_size=length)
        )
        stems.append(bytes(base))
    patterns = []
    for stem in stems:
        count = draw(st.integers(0, 3 * LEAF))
        tails = draw(st.lists(_HOSTILE_BYTES, min_size=count, max_size=count))
        patterns.extend(stem + tail for tail in tails)
        for cut in draw(st.lists(st.integers(1, len(stem)), max_size=3)):
            patterns.append(stem[:cut])
    patterns.extend(draw(st.lists(_HOSTILE_BYTES.filter(bool), max_size=4)))
    if not patterns:
        patterns.append(stems[0])
    patterns.extend(draw(st.lists(st.sampled_from(patterns), max_size=3)))
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        source = draw(st.sampled_from(patterns + stems))
        kind = draw(st.sampled_from(["whole", "prefix", "head", "suffix", "filler"]))
        if kind == "whole":
            piece = source
        elif kind == "prefix":
            piece = source[: draw(st.integers(0, len(source)))]
        elif kind == "head":
            piece = source[:MAX_TRIE_PATTERN]
        elif kind == "suffix":
            piece = source[draw(st.integers(0, len(source))) :]
        else:
            piece = draw(_HOSTILE_BYTES)
        pieces.append(piece.upper() if draw(st.booleans()) else piece)
    return patterns, b"".join(pieces)


@given(_hostile_cases())
@settings(max_examples=200, deadline=None)
def test_heads_group_sorted_texts(case):
    """Property: ``_group_heads`` splits the sorted texts into contiguous
    runs in order; every head is a prefix of each of its members, is at
    most MAX_TRIE_PATTERN bytes, and holds at most LEAF texts unless it
    is MAX_TRIE_PATTERN bytes long; a head shorter than MIN_HEAD is its
    one member; the heads are unique; and a head standing for any text
    but itself is no proper prefix of the next head (nor, since texts
    extending a head sort right after it, of any head)."""
    patterns, _ = case
    ordered = sorted(set(pattern.lower() for pattern in patterns))
    groups = _group_heads(ordered)
    assert [lo for _, lo, _ in groups] == [0] + [hi for _, _, hi in groups[:-1]]
    assert groups[-1][2] == len(ordered)
    heads = [head for head, _, _ in groups]
    assert len(set(heads)) == len(heads)
    for head, lo, hi in groups:
        members = ordered[lo:hi]
        assert all(text.startswith(head) for text in members)
        assert len(head) <= MAX_TRIE_PATTERN
        assert len(members) <= LEAF or len(head) == MAX_TRIE_PATTERN
        if len(head) < MIN_HEAD:
            assert members == [head]
    for (head, lo, hi), (following, _, _) in zip(groups, groups[1:]):
        if ordered[lo:hi] != [head]:
            assert not following.startswith(head)


@given(_hostile_cases(), st.sampled_from([1, 3, DEFAULT_CHUNK_SIZE]))
@settings(max_examples=300, deadline=None)
def test_hostile_corpora_equivalent_to_automaton(case, chunk):
    """Property: on the hostile pattern lists ``search`` and
    ``contains_any`` agree with the automaton, through heads that stand
    for one text and for many, long heads and short ones."""
    patterns, haystack = case
    automaton = AhoCorasick(patterns)
    prefilter = RegexPrefilter(patterns, chunk_size=chunk)
    _assert_heads_group(prefilter, patterns)
    assert prefilter.search(haystack) == automaton.search(haystack)
    assert prefilter.contains_any(haystack) == automaton.contains_any(
        haystack
    )


def test_ruleset_import_closure_is_fingerprinted():
    closure = import_closure.closure("repro.nids.ruleset")
    assert {"repro.nids.prefilter", "repro.net.http"} <= closure
    assert closure <= set(STAGE_MODULES), sorted(closure - set(STAGE_MODULES))


def test_prefilter_source_digest_changes_code_fingerprint(monkeypatch):
    """An edit to prefilter.py must change the cache key's code digest."""
    before, after = import_closure.fingerprint_after_edit(
        monkeypatch, "prefilter.py"
    )
    assert after != before
