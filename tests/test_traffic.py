"""Tests for traffic generation: temporal models, actors, world generator."""

from datetime import timedelta

import pytest

from repro.datasets.seed_cves import SEED_CVES, STUDY_WINDOW, seed_by_id
from repro.datasets.seed_log4shell import LOG4SHELL_CVE
from repro.traffic.actors import (
    _DRAW_BLOCK,
    _SCANNER_PREFIXES,
    ScannerPopulation,
    _scanner_pool,
)
from repro.traffic.arrivals import ScanArrival
from repro.traffic.generator import (
    LOG4SHELL_VARIANT_WEIGHTS,
    TrafficConfig,
    TrafficGenerator,
)
from repro.traffic.temporal import (
    DEFAULT_MODEL,
    TemporalModel,
    background_times,
    exploit_event_times,
    scaled_event_count,
    weaponization_point,
)
from repro.util.rng import derive_rng
from repro.util.timeutil import utc


class TestTemporalModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TemporalModel(prepub_weight=0.5, early_weight=0.5,
                          mass_weight=0.5, tail_weight=0.5)

    def test_scales_positive(self):
        with pytest.raises(ValueError):
            TemporalModel(early_scale_days=0)

    def test_scaled_event_count_floor(self):
        assert scaled_event_count(1, 0.01) == 1
        assert scaled_event_count(1000, 0.1) == 100
        with pytest.raises(ValueError):
            scaled_event_count(10, 0)


class TestExploitEventTimes:
    def _times(self, cve_id, scale=0.2):
        seed = seed_by_id(cve_id)
        rng = derive_rng(1, "t", cve_id)
        return seed, exploit_event_times(
            seed, window=STUDY_WINDOW, rng=rng, volume_scale=scale
        )

    def test_first_event_is_measured_attack_date(self):
        seed, times = self._times("CVE-2021-36260")
        assert times[0] == seed.first_attack

    def test_sorted_and_bounded(self):
        _, times = self._times("CVE-2022-26134")
        assert times == sorted(times)
        for when in times:
            assert STUDY_WINDOW.contains(when)

    def test_no_event_precedes_first_attack(self):
        seed, times = self._times("CVE-2021-27561")  # A before P
        assert min(times) == times[0] == STUDY_WINDOW.clamp(seed.first_attack)

    def test_prepub_cve_generates_prepub_events(self):
        seed, times = self._times("CVE-2022-1388", scale=1.0)
        prepub = [t for t in times if t < seed.published]
        assert prepub  # A is 410 days before P; scanning continues

    def test_event_count_scales(self):
        seed = seed_by_id("CVE-2021-36260")
        rng = derive_rng(2, "s")
        times = exploit_event_times(
            seed, window=STUDY_WINDOW, rng=rng, volume_scale=0.01
        )
        assert len(times) == round(seed.events * 0.01)

    def test_missing_first_attack_starts_after_publication(self):
        seed = seed_by_id("CVE-2022-44877")
        rng = derive_rng(3, "m")
        times = exploit_event_times(
            seed, window=STUDY_WINDOW, rng=rng, volume_scale=1.0
        )
        assert times[0] >= seed.published

    def test_mass_adoption_follows_weaponization(self):
        """With X well after the rule (Hikvision), most traffic must land
        after X — the mechanism behind the paper's 95% per-event
        mitigation."""
        seed = seed_by_id("CVE-2021-36260")  # X at P+158d
        rng = derive_rng(4, "w")
        times = exploit_event_times(
            seed, window=STUDY_WINDOW, rng=rng, volume_scale=0.05
        )
        after_x = sum(1 for t in times if t >= seed.exploit_public)
        assert after_x / len(times) > 0.6


class TestWeaponization:
    def test_uses_x_when_known(self):
        seed = seed_by_id("CVE-2021-36260")
        rng = derive_rng(5, "wp")
        assert weaponization_point(seed, seed.first_attack, rng) == seed.exploit_public

    def test_never_before_first_event(self):
        seed = seed_by_id("CVE-2022-1388")  # X after P, A long before P
        rng = derive_rng(6, "wp")
        first = seed.first_attack
        assert weaponization_point(seed, first, rng) >= first

    def test_drawn_delay_when_x_unknown(self):
        seed = seed_by_id("CVE-2021-20090")
        rng = derive_rng(7, "wp")
        point = weaponization_point(seed, seed.published, rng)
        assert point > seed.published


class TestBackgroundTimes:
    def test_uniform_in_window(self):
        rng = derive_rng(8, "bg")
        times = background_times(window=STUDY_WINDOW, rng=rng, count=500)
        assert len(times) == 500
        assert times == sorted(times)
        midpoint = STUDY_WINDOW.start + STUDY_WINDOW.duration / 2
        first_half = sum(1 for t in times if t < midpoint)
        assert 200 < first_half < 300

    def test_negative_count_rejected(self):
        rng = derive_rng(9, "bg")
        with pytest.raises(ValueError):
            background_times(window=STUDY_WINDOW, rng=rng, count=-1)


def _random_ip(rng, prefixes=None) -> int:
    """The scalar scanner-address draw the population made before it drew
    each pool in broadcast blocks, kept as the oracle."""
    base, prefix_len = (prefixes or _SCANNER_PREFIXES)[
        int(rng.integers(0, len(prefixes or _SCANNER_PREFIXES)))
    ]
    host_bits = 32 - prefix_len
    return base | int(rng.integers(1, (1 << host_bits) - 1))


class TestScannerPopulation:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2023])
    @pytest.mark.parametrize(
        "exploit,background",
        [(1, 1), (5, 37), (_DRAW_BLOCK, _DRAW_BLOCK + 1), (3600, 150000)],
    )
    def test_pools_equal_scalar_draws(self, seed, exploit, background):
        oracle = derive_rng(seed, "scanner-population")
        exploit_sources = sorted({_random_ip(oracle) for _ in range(exploit)})
        background_sources = sorted({_random_ip(oracle) for _ in range(background)})
        population = ScannerPopulation(seed=seed, exploit_source_count=exploit,
                                       background_source_count=background)
        assert population.exploit_sources == exploit_sources
        assert population.background_sources == background_sources
        assert all(type(ip) is int for ip in population.exploit_sources)
        # The block draws leave the generator where the scalar ones did.
        bulk = derive_rng(seed, "scanner-population")
        _scanner_pool(bulk, exploit)
        _scanner_pool(bulk, background)
        assert bulk.integers(0, 1 << 62, size=4).tolist() == (
            oracle.integers(0, 1 << 62, size=4).tolist()
        )

    def test_pools_deterministic(self):
        a = ScannerPopulation(seed=1, exploit_source_count=100,
                              background_source_count=100)
        b = ScannerPopulation(seed=1, exploit_source_count=100,
                              background_source_count=100)
        assert a.exploit_sources == b.exploit_sources

    def test_campaign_size_sublinear(self):
        population = ScannerPopulation(seed=1, exploit_source_count=1000,
                                       background_source_count=100)
        small = population.campaign_sources("CVE-A", 10)
        large = population.campaign_sources("CVE-B", 10000)
        assert len(small) < len(large) < 10000

    def test_source_for_event_heavy_tailed(self):
        population = ScannerPopulation(seed=1, exploit_source_count=1000,
                                       background_source_count=100)
        sources = population.campaign_sources("CVE-C", 5000)
        rng = derive_rng(2, "pick")
        picks = [population.source_for_event(sources, rng) for _ in range(500)]
        # The most frequent source dominates.
        top_count = max(picks.count(source) for source in set(picks))
        assert top_count > 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ScannerPopulation(seed=1, exploit_source_count=0,
                              background_source_count=10)


class TestTrafficGenerator:
    @pytest.fixture(scope="class")
    def arrivals(self):
        generator = TrafficGenerator(
            TrafficConfig(volume_scale=0.02, background_per_exploit=0.5)
        )
        return generator.generate()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(volume_scale=0)
        with pytest.raises(ValueError):
            TrafficConfig(offport_fraction=1.5)
        with pytest.raises(ValueError):
            TrafficConfig(background_per_exploit=-1)

    def test_stream_sorted(self, arrivals):
        times = [a.timestamp for a in arrivals]
        assert times == sorted(times)

    def test_every_cve_campaigns(self, arrivals):
        cves = {a.truth_cve for a in arrivals if a.truth_cve}
        assert cves == {seed.cve_id for seed in SEED_CVES}

    def test_background_present(self, arrivals):
        background = [a for a in arrivals if a.truth_cve is None]
        exploit = [a for a in arrivals if a.truth_cve is not None]
        assert len(background) == int(len(exploit) * 0.5)

    def test_log4shell_variant_weights_sum_to_one(self):
        assert sum(LOG4SHELL_VARIANT_WEIGHTS.values()) == pytest.approx(1.0)

    def test_log4shell_all_variants_emitted(self, arrivals):
        sids = {a.variant_sid for a in arrivals if a.truth_cve == LOG4SHELL_CVE}
        assert sids == set(LOG4SHELL_VARIANT_WEIGHTS)

    def test_prepub_traffic_sprayed_across_ports(self):
        generator = TrafficGenerator(TrafficConfig(volume_scale=1.0))
        seed = seed_by_id("CVE-2022-28938")  # A 444 days before P
        arrivals = generator.campaign_arrivals(seed)
        prepub = [a for a in arrivals if a.timestamp < seed.published]
        assert prepub
        from repro.datasets.catalog import profile_for
        product_port = profile_for(seed.cve_id).port
        on_port = sum(1 for a in prepub if a.dst_port == product_port)
        assert on_port / len(prepub) < 0.5

    def test_deterministic(self):
        config = TrafficConfig(volume_scale=0.01, background_per_exploit=0.2)
        a = TrafficGenerator(config).generate()
        b = TrafficGenerator(config).generate()
        assert [(x.timestamp, x.src_ip) for x in a] == [
            (x.timestamp, x.src_ip) for x in b
        ]

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            ScanArrival(
                timestamp=utc(2022, 1, 1), src_ip=1, src_port=99999,
                dst_port=80, payload=b"",
            )
