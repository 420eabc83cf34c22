"""Tests for the Aho-Corasick automaton of the scan oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.scan_oracle import AhoCorasick


class TestAhoCorasick:
    def test_basic_search(self):
        automaton = AhoCorasick([b"he", b"she", b"his", b"hers"])
        assert automaton.search(b"ushers") == {0, 1, 3}
        assert automaton.search(b"his hen") == {0, 2}
        assert automaton.search(b"nothing") == set()

    def test_case_insensitive(self):
        automaton = AhoCorasick([b"${JNDI:"])
        assert automaton.search(b"x=${jndi:ldap}") == {0}
        assert automaton.contains_any(b"X=${JnDi:LDAP}")

    def test_overlapping_patterns(self):
        automaton = AhoCorasick([b"ab", b"abc", b"bc", b"c"])
        assert automaton.search(b"abc") == {0, 1, 2, 3}

    def test_pattern_is_prefix_of_other(self):
        automaton = AhoCorasick([b"jndi", b"jndi:ldap"])
        assert automaton.search(b"${jndi:ldap://x}") == {0, 1}
        assert automaton.search(b"${jndi:rmi://x}") == {0}

    def test_duplicate_patterns_both_reported(self):
        automaton = AhoCorasick([b"dup", b"dup"])
        assert automaton.search(b"a dup b") == {0, 1}

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([b"ok", b""])

    def test_empty_haystack(self):
        automaton = AhoCorasick([b"x"])
        assert automaton.search(b"") == set()
        assert not automaton.contains_any(b"")

    def test_binary_patterns(self):
        automaton = AhoCorasick([b"\x00\xff", b"\xde\xad\xbe\xef"])
        assert automaton.search(b"aa\x00\xffbb\xde\xad\xbe\xef") == {0, 1}

    def test_failure_links_across_patterns(self):
        # Searching "aabab": "abab" requires following a failure link from
        # the partially matched "aaba".
        automaton = AhoCorasick([b"aaba", b"abab"])
        assert automaton.search(b"aabab") == {0, 1}

    def test_node_count_reasonable(self):
        automaton = AhoCorasick([b"abc", b"abd", b"x"])
        # root + a,ab,abc,abd + x
        assert automaton.node_count == 6


@given(
    st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=8),
    st.binary(max_size=120),
)
@settings(max_examples=300)
def test_search_equivalent_to_naive(patterns, haystack):
    """Property: the automaton agrees with naive lowercased substring
    search for every pattern."""
    automaton = AhoCorasick(patterns)
    lowered = haystack.lower()
    expected = {
        index
        for index, pattern in enumerate(patterns)
        if pattern.lower() in lowered
    }
    assert automaton.search(haystack) == expected
    assert automaton.contains_any(haystack) == bool(expected)
