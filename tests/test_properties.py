"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import re
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.desiderata import DESIDERATA
from repro.core.histories import (
    HOUSEHOLDER_SPRING_MODEL,
    THIS_WORK_MODEL,
    simulate_history,
)
from repro.core.skill import skill
from repro.lifecycle.events import CveTimeline, LifecycleEvent
from repro.lifecycle.rca import looks_like_exploit
from repro.nids.parser import format_rule, parse_rule
from repro.nids.rule import (
    ContentMatch,
    HttpBuffer,
    IsDataAt,
    PcreMatch,
    PortSpec,
    Rule,
    SizeBound,
)
from repro.util.iputil import format_ipv4, parse_ipv4
from repro.util.rng import derive_rng, derive_seed
from repro.util.stats import Ecdf
from repro.util.timeutil import format_offset, parse_offset, utc

# -- time offsets -----------------------------------------------------------

offsets = st.timedeltas(
    min_value=timedelta(days=-2000),
    max_value=timedelta(days=2000),
).map(lambda d: timedelta(days=d.days, hours=d.seconds // 3600))


@given(offsets)
def test_offset_format_parse_roundtrip(delta):
    assert parse_offset(format_offset(delta)) == delta


# -- IPv4 -------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ipv4_roundtrip(value):
    assert parse_ipv4(format_ipv4(value)) == value


# -- RNG derivation ---------------------------------------------------------

@given(
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.lists(st.one_of(st.text(max_size=8), st.integers(-1000, 1000)), max_size=4),
)
def test_derive_seed_deterministic(root, keys):
    assert derive_seed(root, *keys) == derive_seed(root, *keys)
    assert 0 <= derive_seed(root, *keys) < 2 ** 64


# -- ECDF -------------------------------------------------------------------

@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e9, max_value=1e9), min_size=1))
def test_ecdf_invariants(values):
    cdf = Ecdf.from_values(values)
    # Monotone, bounded, complete.
    assert list(cdf.ps) == sorted(cdf.ps)
    assert cdf.ps[-1] == 1.0
    assert cdf.at(max(values)) == 1.0
    assert cdf.at(min(values) - 1.0) == 0.0
    # Quantile inverts: P(X <= q(p)) >= p.
    for p in (0.25, 0.5, 0.75, 1.0):
        assert cdf.at(cdf.quantile(p)) >= p


# -- skill metric -----------------------------------------------------------

@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_skill_bounds_and_fixpoints(observed, baseline):
    value = skill(observed, baseline)
    assert value <= 1.0
    if observed == 1.0:
        assert value == 1.0
    if observed >= baseline:
        assert value >= 0.0
    else:
        assert value < 0.0


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_skill_monotone_in_observed(a, b, baseline):
    low, high = sorted((a, b))
    assert skill(low, baseline) <= skill(high, baseline)


# -- CERT histories ---------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=50)
def test_simulated_histories_respect_prerequisites(seed):
    rng = derive_rng(seed, "prop-history")
    for model in (HOUSEHOLDER_SPRING_MODEL, THIS_WORK_MODEL):
        history = simulate_history(rng, model)
        assert sorted(history, key=lambda e: e.value) == sorted(
            LifecycleEvent, key=lambda e: e.value
        )
        assert model.is_admissible(history)


# -- timelines --------------------------------------------------------------

event_times = st.dictionaries(
    st.sampled_from(list(LifecycleEvent)),
    st.one_of(
        st.none(),
        st.integers(min_value=-1000, max_value=1000).map(
            lambda d: utc(2022, 1, 1) + timedelta(days=d)
        ),
    ),
)


@given(event_times)
def test_desiderata_antisymmetric_on_timelines(times):
    timeline = CveTimeline(cve_id="CVE-PROP", times=dict(times))
    for desid in DESIDERATA:
        forward = timeline.precedes(desid.first, desid.second)
        backward = timeline.precedes(desid.second, desid.first)
        if forward is None:
            assert backward is None
        elif forward:
            assert backward is False
        # Ties (same timestamp) leave both False — never both True.
        assert not (forward and backward)


@given(event_times)
def test_ordering_sorted(times):
    timeline = CveTimeline(cve_id="CVE-PROP", times=dict(times))
    ordered = timeline.ordering()
    stamps = [timeline.time(e) for e in ordered]
    assert stamps == sorted(stamps)


# -- PortSpec ---------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=65535), min_size=1,
                max_size=6), st.integers(min_value=0, max_value=65535))
def test_portspec_list_membership(ports, probe):
    spec = PortSpec.parse("[" + ",".join(map(str, ports)) + "]")
    assert spec.matches(probe) == (probe in set(ports))
    negated = PortSpec.parse("![" + ",".join(map(str, ports)) + "]")
    assert negated.matches(probe) == (probe not in set(ports))


@given(st.integers(min_value=0, max_value=65535),
       st.integers(min_value=0, max_value=65535),
       st.integers(min_value=0, max_value=65535))
def test_portspec_range_membership(a, b, probe):
    low, high = sorted((a, b))
    spec = PortSpec.parse(f"{low}:{high}")
    assert spec.matches(probe) == (low <= probe <= high)


# -- Snort rule rendering round-trip -----------------------------------------

_counts = st.integers(min_value=0, max_value=4096)
_optional_counts = st.none() | _counts


@st.composite
def _contents(draw):
    pattern = draw(st.binary(min_size=1, max_size=48))
    depth = draw(st.none() | _counts.map(lambda extra: len(pattern) + extra))
    return ContentMatch(
        pattern=pattern,
        nocase=draw(st.booleans()),
        buffer=draw(st.sampled_from(HttpBuffer)),
        negated=draw(st.booleans()),
        offset=draw(_optional_counts),
        depth=depth,
        distance=draw(_optional_counts),
        within=draw(_optional_counts),
        fast_pattern=draw(st.booleans()),
    )


_pcres = st.builds(
    PcreMatch,
    pattern=st.text(alphabet="abcXYZ019_-", min_size=1, max_size=10).map(
        lambda token: token + "[0-9]{1,3}"
    ),
    flags=st.sets(st.sampled_from([re.IGNORECASE, re.DOTALL, re.MULTILINE])).map(
        lambda chosen: sum(chosen, 0)
    ),
    buffer=st.sampled_from(HttpBuffer),
    negated=st.booleans(),
)

_size_bounds = st.sampled_from(["dsize", "urilen"]).flatmap(
    lambda kind: st.one_of(
        st.builds(SizeBound, kind=st.just(kind), exact=_counts),
        st.builds(SizeBound, kind=st.just(kind), low=_counts),
        st.builds(SizeBound, kind=st.just(kind), high=_counts),
        st.builds(SizeBound, kind=st.just(kind), low=_counts, high=_counts),
    )
)

_isdataats = st.builds(
    IsDataAt, offset=_counts, relative=st.booleans(), negated=st.booleans()
)

_port_pieces = st.integers(0, 65535).map(str) | st.tuples(
    st.integers(0, 65535), st.integers(0, 65535)
).map(lambda pair: f"{min(pair)}:{max(pair)}")

_port_specs = st.one_of(
    st.just("any"),
    st.tuples(st.sampled_from(["", "!"]), _port_pieces).map("".join),
    st.tuples(
        st.sampled_from(["", "!"]),
        st.sampled_from([",", ", "]),
        st.lists(_port_pieces, min_size=1, max_size=4),
    ).map(lambda spec: spec[0] + "[" + spec[1].join(spec[2]) + "]"),
).map(PortSpec.parse)

_words = st.text(alphabet="abcdefXYZ0123456789_-.", min_size=1, max_size=12)

rule_asts = st.builds(
    Rule,
    action=st.sampled_from(["alert", "log", "drop"]),
    protocol=st.sampled_from(["tcp", "udp", "ip"]),
    src=st.sampled_from(["any", "$EXTERNAL_NET", "10.0.0.0/8"]),
    src_ports=_port_specs,
    dst=st.sampled_from(["any", "$HOME_NET", "[10.0.0.1,10.0.0.2]"]),
    dst_ports=_port_specs,
    msg=st.text(alphabet="abc XYZ 019-()/.:;,", max_size=30),
    sid=st.integers(min_value=1, max_value=10**7),
    rev=st.integers(min_value=1, max_value=99),
    options=st.lists(
        st.one_of(_contents(), _pcres, _size_bounds, _isdataats), max_size=5
    ).map(tuple),
    references=st.lists(
        st.tuples(st.sampled_from(["cve", "url", "bugtraq"]), _words), max_size=3
    ).map(tuple),
    metadata=st.dictionaries(
        st.sampled_from(["classtype", "created_at", "policy", "priority"]),
        _words,
        max_size=3,
    ),
    flow_to_server=st.booleans(),
)


@given(rule_asts)
@settings(max_examples=300, deadline=None)
def test_content_escape_roundtrip_through_parser(rule):
    """``format_rule`` is ``parse_rule``'s inverse on any rule AST: content
    bytes (specials and non-ASCII as ``|hex|``), every buffer, the
    positional modifiers, pcre flags, size bounds, ``isdataat`` and parsed
    port specs, whose text is written back as read."""
    text = format_rule(rule)
    assert parse_rule(text) == rule
    assert format_rule(parse_rule(text)) == text


@given(
    rule_asts,
    st.sampled_from([re.VERBOSE, re.ASCII, re.LOCALE, re.VERBOSE | re.ASCII]),
    st.sets(st.sampled_from([re.IGNORECASE, re.DOTALL, re.MULTILINE])),
)
@settings(max_examples=50, deadline=None)
def test_pcre_flag_without_a_letter_is_rejected(rule, unlettered, lettered):
    """A pcre flag no Snort letter stands for is named in an error, not
    dropped from the text (which would parse back as a different rule)."""
    pcre = PcreMatch(pattern="a", flags=unlettered | sum(lettered, 0))
    rule = dataclasses.replace(rule, options=rule.options + (pcre,))
    with pytest.raises(ValueError, match=re.escape(repr(re.RegexFlag(unlettered)))):
        format_rule(rule)


# -- RCA heuristic ------------------------------------------------------------

@given(st.binary(max_size=48))
def test_short_random_payloads_rarely_exploit_like(payload):
    # looks_like_exploit never raises on arbitrary bytes.
    result = looks_like_exploit(payload)
    assert isinstance(result, bool)


@given(st.sampled_from([b"${jndi:", b"../", b"<!ENTITY", b"$(", b"`wget"]),
       st.binary(max_size=32), st.binary(max_size=32))
def test_exploit_markers_detected_anywhere(marker, prefix, suffix):
    assert looks_like_exploit(prefix + marker + suffix)


# -- temporal model -----------------------------------------------------------

from repro.datasets.seed_cves import SEED_CVES, STUDY_WINDOW
from repro.traffic.temporal import exploit_event_times


@given(
    st.sampled_from(SEED_CVES),
    st.integers(min_value=0, max_value=2 ** 32),
    st.floats(min_value=0.002, max_value=0.05),
)
@settings(max_examples=40, deadline=None)
def test_temporal_invariants(seed_cve, seed, scale):
    """Properties of every generated campaign: sorted, in-window, first
    event pinned to the measured A (clamped), nothing precedes it."""
    rng = derive_rng(seed, "prop-temporal", seed_cve.cve_id)
    times = exploit_event_times(
        seed_cve, window=STUDY_WINDOW, rng=rng, volume_scale=scale
    )
    assert times == sorted(times)
    assert all(STUDY_WINDOW.contains(when) for when in times)
    if seed_cve.first_attack is not None:
        assert times[0] == STUDY_WINDOW.clamp(seed_cve.first_attack)
    assert min(times) == times[0]


# -- size bounds --------------------------------------------------------------

from repro.nids.rule import SizeBound


@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000))
def test_sizebound_range_semantics(a, b, probe):
    low, high = sorted((a, b))
    bound = SizeBound.parse("dsize", f"{low}<>{high}")
    assert bound.matches(probe) == (low < probe < high)


@given(st.integers(min_value=0, max_value=1000))
def test_sizebound_exact(value):
    bound = SizeBound.parse("urilen", str(value))
    assert bound.matches(value)
    assert not bound.matches(value + 1)

