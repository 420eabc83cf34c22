"""The synthetic world's draws against the frozen scalar-draw oracle.

Each payload draws its bounded integers in one broadcast
``rng.integers(lows, highs)`` call, ports are picked with
``rng.integers(0, n)`` and the NVD background draws its CVSS scores in one
broadcast ``rng.uniform``, rounded by :func:`round_tenths`; the KEV
scores take all their uniforms in one ``rng.random`` call.  These tests
pin every output, and the random stream's state after it, to
``tests/traffic_oracle.py``: the same bytes from the same stream.  The
property tests at the end pin the numpy equivalences the change relies on,
so a numpy upgrade that breaks one fails here by name.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import StudyConfig
from repro.cache.fingerprint import STAGE_MODULES
from repro.datasets.kev import build_kev, kev_cvss_scores
from repro.datasets.nvd import background_cvss, round_tenths
from repro.datasets.seed_cves import STUDY_WINDOW
from repro.datasets.seed_log4shell import LOG4SHELL_VARIANTS
from repro.exploits.log4shell import log4shell_payload
from repro.exploits.templates import (
    all_templates,
    build_payload,
    payload_plan,
    template_for,
)
from repro.scenarios.builtins import botnet_burst, paper_traffic
from tests import import_closure, traffic_oracle

SEEDS = (0, 7, 20230321)


def _twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


# -- payloads -----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "template", all_templates(), ids=lambda template: template.cve_id
)
def test_template_payloads_equal_oracle(template, seed):
    new, old = _twin_rngs(seed)
    plan = payload_plan(template)
    for _ in range(4):
        assert plan.build(new) == traffic_oracle.build_payload(template, old)
        assert new.bit_generator.state == old.bit_generator.state
    assert build_payload(template, new) == traffic_oracle.build_payload(
        template, old
    )
    assert new.bit_generator.state == old.bit_generator.state


_texts = st.lists(
    st.one_of(
        st.sampled_from(["{host}", "{hex}", "{hexq}", "{pad}"]),
        st.text(alphabet="ax{}%$:/", max_size=5),
    ),
    max_size=6,
).map("".join)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), _texts, _texts, st.none() | _texts)
def test_any_placeholder_layout_equals_oracle(seed, uri, body, header_value):
    """Placeholders in every text, repeated, mixed and next to literal
    braces: the plan draws and renders them as the scalar helpers did."""
    template = dataclasses.replace(
        template_for("CVE-2022-1388"),
        uri=uri,
        body=body,
        header_name=None if header_value is None else "X-Probe",
        header_value=header_value or "",
    )
    new, old = _twin_rngs(seed)
    assert build_payload(template, new) == traffic_oracle.build_payload(
        template, old
    )
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "variant", LOG4SHELL_VARIANTS, ids=lambda variant: str(variant.sid)
)
def test_log4shell_payloads_equal_oracle(variant, seed):
    new, old = _twin_rngs(seed)
    for _ in range(4):
        assert log4shell_payload(variant, new) == traffic_oracle.log4shell_payload(
            variant, old
        )
        assert new.bit_generator.state == old.bit_generator.state


def test_log4shell_variants_include_smtp_and_every_http_context():
    contexts = {variant.context for variant in LOG4SHELL_VARIANTS}
    assert {"SMTP", "HTTP URI", "HTTP Header", "HTTP Body", "HTTP Cookie",
            "HTTP Request Method"} <= contexts


# -- whole arrival streams ----------------------------------------------------


def _generators(component, seed):
    config = StudyConfig.from_scenario("quick", seed=seed)
    generator = component(config, STUDY_WINDOW)
    oracle = traffic_oracle.OracleTrafficGenerator(
        generator.config, window=generator.window
    )
    return generator, oracle


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "component", [paper_traffic, botnet_burst], ids=["paper", "botnet"]
)
def test_generate_equals_oracle(component, seed):
    generator, oracle = _generators(component, seed)
    arrivals = generator.generate()
    assert arrivals == oracle.generate()
    assert len(arrivals) > 1000


def test_botnet_component_exercises_shards_and_offport():
    generator, _ = _generators(botnet_burst, 7)
    assert generator.config.background_shards == 2
    assert generator.config.offport_fraction == 0.05


@pytest.mark.parametrize("cursor", [0, 1, 2345])
def test_stream_equals_oracle(cursor):
    generator, oracle = _generators(botnet_burst, 7)
    assert list(generator.stream(cursor=cursor)) == list(
        oracle.stream(cursor=cursor)
    )


# -- NVD background -----------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 2, 9, 500, 5000, 20000])
def test_nvd_background_equals_oracle(seed, count):
    assert background_cvss(seed=seed, count=count) == tuple(
        record.cvss
        for record in traffic_oracle.background_population(seed=seed, count=count)
    )


@pytest.mark.parametrize("seed", list(range(20)) + [20230321])
def test_kev_cvss_scores_equal_oracle(seed):
    entries = build_kev(seed=seed)
    scores = kev_cvss_scores(entries, seed=seed)
    expected = traffic_oracle.kev_cvss_scores(entries, seed=seed)
    assert list(scores.items()) == list(expected.items())
    assert all(type(score) is float for score in scores.values())


# -- the numpy equivalences ---------------------------------------------------

_seeds = st.integers(min_value=0, max_value=2**63 - 1)


@settings(max_examples=60, deadline=None)
@given(
    _seeds,
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**20), max_value=2**20),
            st.integers(min_value=1, max_value=2**20),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_broadcast_integers_equal_scalar_draws(seed, bounds):
    new, old = _twin_rngs(seed)
    lows = np.array([low for low, _ in bounds])
    highs = np.array([low + span for low, span in bounds])
    drawn = new.integers(lows, highs).tolist()
    assert drawn == [int(old.integers(low, low + span)) for low, span in bounds]
    assert new.bit_generator.state == old.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(_seeds, st.lists(st.integers(), min_size=1, max_size=40), st.integers(1, 5))
def test_choice_equals_indexing_an_integers_draw(seed, population, picks):
    new, old = _twin_rngs(seed)
    for _ in range(picks):
        assert population[int(new.integers(0, len(population)))] == old.choice(
            population
        )
    assert new.bit_generator.state == old.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    _seeds,
    st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6),
            st.floats(min_value=0.0, max_value=1e6),
        ),
        min_size=1,
        max_size=24,
    ),
)
def test_broadcast_uniform_equals_scalar_draws(seed, bounds):
    new, old = _twin_rngs(seed)
    lows = np.array([low for low, _ in bounds])
    highs = np.array([low + width for low, width in bounds])
    drawn = new.uniform(lows, highs).tolist()
    assert drawn == [
        float(old.uniform(low, high)) for low, high in zip(lows, highs)
    ]
    assert new.bit_generator.state == old.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(_seeds, st.integers(1, 64), st.integers(0, 3))
def test_random_equals_uniform_without_arguments(seed, count, interleaved):
    """``rng.random()`` is the draw ``rng.uniform()`` makes (NumPy computes
    ``0.0 + 1.0 * next_double``): equal doubles, one after another and
    between other draws, and the generator ends in the same state."""
    new, old = _twin_rngs(seed)
    for _ in range(count):
        assert new.random() == old.uniform()
        assert new.integers(0, 1 << 20, size=interleaved).tolist() == (
            old.integers(0, 1 << 20, size=interleaved).tolist()
        )
    assert new.bit_generator.state == old.bit_generator.state


def _half_tenths():
    """Every (k + 0.5) / 10 in [0, 10] and its two neighbouring doubles."""
    for k in range(100):
        tie = (k + 0.5) / 10
        yield from (math.nextafter(tie, 0.0), tie, math.nextafter(tie, 10.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50))
def test_round_tenths_equals_round(values):
    values = values + list(_half_tenths())
    assert round_tenths(np.array(values)).tolist() == [
        round(value, 1) for value in values
    ]


# -- cache fingerprint coverage -----------------------------------------------


def test_traffic_import_closure_is_fingerprinted():
    closure = import_closure.closure("repro.traffic.generator")
    assert {"repro.datasets.catalog", "repro.obs.trace"} <= closure
    assert closure <= set(STAGE_MODULES), sorted(closure - set(STAGE_MODULES))


def test_catalog_source_digest_changes_code_fingerprint(monkeypatch):
    """An edit to catalog.py (a CVE's port or family) must change the cache
    key's code digest."""
    before, after = import_closure.fingerprint_after_edit(
        monkeypatch, "catalog.py"
    )
    assert after != before
