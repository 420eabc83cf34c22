"""Property-based tests (hypothesis) on core data structures and invariants."""

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
from repro.nids.parser import parse_rule
from repro.nids.rule import PortSpec
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


# -- Snort content escaping round-trip ---------------------------------------

@given(st.binary(min_size=1, max_size=64))
def test_content_escape_roundtrip_through_parser(pattern):
    from repro.exploits.rulegen import _snort_escape

    text = (
        f'alert tcp any any -> any any (msg:"m"; '
        f'content:"{_snort_escape(pattern)}"; sid:1;)'
    )
    rule = parse_rule(text)
    assert rule.options[0].pattern == pattern


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

