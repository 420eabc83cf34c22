"""Tests for the synthetic ruleset scaler and the sharded prefilter.

Two invariants anchor everything here:

* **round-trip** — every generated rule's text parses back to the exact
  :class:`~repro.nids.rule.Rule` AST recorded at generation time
  (``parse_rule(scaled.text) == scaled.rule``), checked both on a fixed
  volume and as a hypothesis property over arbitrary (seed, index) pairs;
* **shard transparency** — a sharded prefilter changes *when* patterns are
  compiled, never *what* the scan produces: alerts, their order, and the
  candidate telemetry are byte-identical to the monolithic engine, serial
  and parallel, with and without injected worker faults; the sharded
  candidate sets equal a monolithic oracle automaton's.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nids import ruleset as ruleset_mod
from repro.nids.engine import ScanTelemetry, parallel_scan, scan_stream
from repro.nids.parser import _decode_content, encode_content, parse_rule
from repro.exploits.rulegen import build_study_ruleset
from repro.nids.prefilter import RegexPrefilter, ShardedPrefilter
from repro.nids.rule import ANY_PORT, Rule
from repro.nids.ruleset import (
    AUTO_SHARD_MIN_PATTERNS,
    Ruleset,
    resolve_prefilter_shards,
)
from repro.nids.scale import (
    GATING_CHECKS,
    WINDOW_START,
    ScaleConfig,
    _generate_one,
    build_scaled_ruleset,
    generate_scaled,
    generate_texts,
    lint_scaled,
    synthesize_sessions,
    throughput_sweep,
    unexpected_findings,
)
from tests.scale_oracle import encode_content_bytewise, oracle_generate_scaled
from tests.scan_oracle import AhoCorasick

SIZE = 300  #: big enough for every option/port branch; small enough to be fast


@pytest.fixture(scope="module")
def scaled():
    return generate_scaled(ScaleConfig(size=SIZE))


@pytest.fixture(scope="module")
def sessions(scaled):
    return synthesize_sessions(400, scaled)


class TestGeneration:
    def test_deterministic(self, scaled):
        again = generate_scaled(ScaleConfig(size=SIZE))
        assert [s.text for s in again] == [s.text for s in scaled]

    def test_prefix_stable(self, scaled):
        prefix = generate_texts(ScaleConfig(size=64))
        assert prefix == [s.text for s in scaled][:64]

    def test_different_seed_differs(self, scaled):
        other = generate_texts(ScaleConfig(size=SIZE, seed=1))
        assert other != [s.text for s in scaled]

    def test_round_trip_at_volume(self, scaled):
        for item in scaled:
            assert parse_rule(item.text) == item.rule

    def test_sids_unique_and_sequenced(self, scaled):
        sids = [item.rule.sid for item in scaled]
        assert sids == list(range(scaled[0].rule.sid, scaled[0].rule.sid + SIZE))

    def test_published_within_window(self, scaled):
        config = ScaleConfig(size=SIZE)
        for item in scaled:
            delta = item.published - WINDOW_START
            assert 0 <= delta.days < config.window_days

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScaleConfig(size=0)
        with pytest.raises(ValueError):
            ScaleConfig(fodder_fraction=1.5)
        with pytest.raises(ValueError):
            ScaleConfig(window_days=0)

    def test_lint_gate(self, scaled):
        counts, unexpected = lint_scaled(scaled)
        assert unexpected == []
        # The expected-at-volume findings fire (the ruleset is realistic),
        # but only on the scale the generator promises.
        assert counts.get("port-constrained", 0) > 0

    def test_unexpected_findings_catches_non_fodder(self, scaled):
        from repro.nids.lint import LintFinding

        planted = LintFinding(
            sid=scaled[0].rule.sid, check=GATING_CHECKS[0], message="planted"
        )
        assert scaled[0].fodder is None
        assert unexpected_findings(scaled, [planted]) == [planted]


def _corpus_digest(config):
    digest = hashlib.blake2b(digest_size=16)
    for item in generate_scaled(config):
        digest.update(
            repr((item.text, item.published.isoformat(), item.fodder)).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize(
    "seed, expected",
    [
        (ScaleConfig().seed, "e4d4e7b7f78ea07e3a3af868e1ce731d"),
        (7, "54006163da89ca31192552810fe841ef"),
    ],
)
def test_corpus_pinned_byte_for_byte(seed, expected):
    """Golden digest over every generated rule's text, publication instant
    and fodder category at 10k rules: a changed draw fails here even when
    it happens not to move an alert."""
    assert _corpus_digest(ScaleConfig(size=10000, seed=seed)) == expected


@pytest.mark.parametrize("seed", [123, ScaleConfig().seed, 7])
def test_generation_equals_frozen_oracle(seed):
    """The direct ``random()``/``getrandbits()`` draws reproduce the frozen
    generator's ``choice``/``randint``/``randrange``/``choices`` draws:
    every rule's text, AST, publication instant and fodder category."""
    config = ScaleConfig(size=10000, seed=seed)
    drawn = generate_scaled(config)
    frozen = oracle_generate_scaled(config)
    assert len(drawn) == len(frozen) == 10000
    for new, old in zip(drawn, frozen):
        assert new.text == old.text
        assert new.rule == old.rule
        assert (new.published, new.fodder) == (old.published, old.fodder)
    assert {item.fodder for item in drawn} == {None, "generic", "short", "pure_pcre"}


def test_port_insensitive_equals_replace():
    """The direct-constructor rewrite equals ``dataclasses.replace`` on the
    study ruleset and on scaled rules, field by field, so a field added to
    :class:`Rule` and dropped by the rewrite fails here."""
    rules = build_study_ruleset(port_insensitive=False).rules + [
        item.rule for item in generate_scaled(ScaleConfig(size=500))
    ]
    assert any(not rule.dst_ports.any_port for rule in rules)
    for rule in rules:
        rewritten = rule.port_insensitive()
        expected = dataclasses.replace(rule, src_ports=ANY_PORT, dst_ports=ANY_PORT)
        assert rewritten == expected
        for field in dataclasses.fields(Rule):
            assert getattr(rewritten, field.name) == getattr(expected, field.name)


class TestRoundTripProperty:
    @given(seed=st.integers(min_value=0, max_value=2**31), index=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=150, deadline=None)
    def test_any_rule_round_trips(self, seed, index):
        item = _generate_one(ScaleConfig(size=1, seed=seed), index)
        parsed = parse_rule(item.text)
        assert parsed == item.rule
        assert parsed.options == item.rule.options
        assert parsed.dst_ports == item.rule.dst_ports
        assert parsed.references == item.rule.references
        assert parsed.rev == item.rule.rev


_SPECIALS = b'";\\|'


class TestEncodeContent:
    def test_every_byte_value(self):
        for byte in range(256):
            for pattern in (bytes([byte]), b"a" + bytes([byte, byte]) + b"z"):
                assert encode_content(pattern) == encode_content_bytewise(pattern)
        everything = bytes(range(256))
        assert encode_content(everything) == encode_content_bytewise(everything)
        assert encode_content(b"") == ""

    def test_specials_become_hex(self):
        assert encode_content(b'a"b;c\\d|e') == "a|22|b|3B|c|5C|d|7C|e"
        assert encode_content(b"x\x00\xff;y") == "x|00 FF 3B|y"

    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=8),
                st.sampled_from([bytes([b]) for b in _SPECIALS]),
                st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                        max_size=8).map(str.encode),
            ),
            max_size=8,
        ).map(b"".join)
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_bytewise_oracle(self, pattern):
        encoded = encode_content(pattern)
        assert encoded == encode_content_bytewise(pattern)
        assert _decode_content('"' + encoded + '"') == pattern


class TestShardedPrefilter:
    PATTERNS = [b"alpha", b"alphabet", b"beta", b"gamma", b"delta-long-pattern",
                b"${jndi:", b"${jndi:ldap", b"zz"]

    def test_matches_monolithic(self):
        mono = RegexPrefilter(self.PATTERNS)
        sharded = ShardedPrefilter(self.PATTERNS, shard_size=3)
        haystacks = (
            b"the alphabet has beta in it", b"${jndi:ldap://x}", b"nothing",
            b"zz top gamma delta-long-pattern",
        )
        for haystack in haystacks:
            assert sharded.search(haystack) == mono.search(haystack)
            assert sharded.contains_any(haystack) == mono.contains_any(haystack)

    def test_aho_engine_matches_regex_engine(self):
        regex = ShardedPrefilter(self.PATTERNS, shard_size=3)
        aho = AhoCorasick(self.PATTERNS)
        haystack = b"alphabet ${jndi:ldap zz"
        assert aho.search(haystack) == regex.search(haystack)

    def test_shard_count_override(self):
        sharded = ShardedPrefilter(self.PATTERNS, shard_count=3)
        assert sharded.shard_count == 3
        assert sharded.pattern_count == len(set(self.PATTERNS))

    def test_lazy_compile_counters(self):
        sharded = ShardedPrefilter(self.PATTERNS, shard_size=3)
        assert sharded.shards_compiled == 0
        sharded.search(b"alphabet zz")
        assert sharded.shards_compiled == sharded.shard_count
        assert sharded.compile_seconds > 0
        assert sharded.searches == 1
        sharded.search(b"alphabet")  # no recompiles on a second search
        assert sharded.shards_compiled == sharded.shard_count

    def test_empty_pattern_table_tolerated(self):
        sharded = ShardedPrefilter([])
        assert sharded.search(b"anything") == set()
        assert not sharded.contains_any(b"anything")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            ShardedPrefilter([b"ok", b""])


class TestRulesetSharding:
    def test_argument_resolution(self):
        assert resolve_prefilter_shards(None) is None
        assert resolve_prefilter_shards(1) == 1
        assert resolve_prefilter_shards(4) == 4
        with pytest.raises(ValueError):
            resolve_prefilter_shards(0)

    def test_forced_sharding_and_shard_count(self, scaled):
        ruleset = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=4)
        assert ruleset.prefilter_shards == 4
        mono = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=1)
        assert mono.prefilter_shards == 0

    def test_auto_sharding_threshold(self, monkeypatch):
        monkeypatch.setattr(ruleset_mod, "AUTO_SHARD_MIN_PATTERNS", 8)
        ruleset = build_scaled_ruleset(ScaleConfig(size=64))
        assert ruleset.prefilter_shards >= 1
        assert AUTO_SHARD_MIN_PATTERNS == 4096  # the real default untouched

    def test_prefilter_stats_monolithic_is_zero(self):
        ruleset = build_scaled_ruleset(ScaleConfig(size=16))
        stats = ruleset.prefilter_stats()
        assert stats["prefilter_shards"] == 0
        assert stats["shards_compiled"] == 0


class TestShardedScanEquivalence:
    """Alerts must be byte-identical sharded vs monolithic, however scanned."""

    def test_serial(self, scaled, sessions):
        mono = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=1)
        sharded = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=5)
        reference, scanned, _ = scan_stream(mono, sessions)
        alerts, sharded_scanned, telemetry = scan_stream(sharded, sessions)
        assert reference  # never vacuous
        assert alerts == reference
        assert sharded_scanned == scanned
        assert telemetry.prefilter_shards == 5
        assert telemetry.shards_compiled == 5  # first scan compiles them all

    def test_parallel(self, scaled, sessions):
        mono = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=1)
        reference, _, _ = scan_stream(mono, sessions)
        sharded = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=4)
        alerts, scanned, telemetry = parallel_scan(
            sharded, sessions, workers=2, threshold=0
        )
        assert alerts == reference
        assert scanned == len(sessions)
        assert telemetry.prefilter_shards == 4
        # Each worker compiles its own shards lazily; the merged counter is
        # the per-worker sum, so it lands between one full compile and
        # workers * shards.
        assert 4 <= telemetry.shards_compiled <= 8

    @pytest.mark.parametrize("fault", ["worker_crash:0", "chunk_error:1"])
    def test_parallel_with_faults(self, scaled, sessions, scan_fault, fault):
        mono = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=1)
        reference, _, _ = scan_stream(mono, sessions)
        scan_fault(fault, workers=2)
        sharded = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=4)
        alerts, scanned, telemetry = parallel_scan(
            sharded, sessions, workers=2, threshold=0
        )
        assert alerts == reference
        assert scanned == len(sessions)
        assert telemetry.recovered_chunks >= 1  # the fault actually fired

    def test_second_scan_compiles_nothing(self, scaled, sessions):
        ruleset = build_scaled_ruleset(ScaleConfig(size=SIZE), shards=3)
        _, _, first = scan_stream(ruleset, sessions)
        _, _, second = scan_stream(ruleset, sessions)
        assert first.shards_compiled == 3
        assert second.shards_compiled == 0  # telemetry reports deltas
        assert second.prefilter_shards == 3


class TestTelemetryShardCounters:
    def test_merge_semantics(self):
        left = ScanTelemetry(
            prefilter_shards=4, shards_compiled=4,
            shard_compile_seconds=0.5, shard_searches=10,
        )
        right = ScanTelemetry(
            prefilter_shards=4, shards_compiled=2,
            shard_compile_seconds=0.25, shard_searches=7,
        )
        left.merge(right)
        assert left.prefilter_shards == 4  # partition property: max, not sum
        assert left.shards_compiled == 6
        assert left.shard_compile_seconds == pytest.approx(0.75)
        assert left.shard_searches == 17

    def test_dict_round_trip(self):
        telemetry = ScanTelemetry(
            prefilter_shards=3, shards_compiled=3,
            shard_compile_seconds=0.1, shard_searches=5,
        )
        record = telemetry.as_dict()
        for key in (
            "prefilter_shards", "shards_compiled",
            "shard_compile_seconds", "shard_searches",
        ):
            assert key in record
        assert record["prefilter_shards"] == 3
        assert record["shard_searches"] == 5
        # The record is published into run manifests: JSON-native.
        assert json.loads(json.dumps(record)) == record


class TestThroughputSweep:
    def test_small_sweep_schema(self):
        sweep = throughput_sweep(sizes=(16, 48), session_count=60, workers=2)
        assert sweep["sizes"] == [16, 48]
        assert len(sweep["entries"]) == 2
        for entry in sweep["entries"]:
            assert entry["alerts_equal"] is True
            assert entry["serial"]["seconds"] >= 0
            assert entry["parallel"]["workers"] == 2
