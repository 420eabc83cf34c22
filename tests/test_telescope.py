"""Tests for the DSCOPE telescope simulator."""

from datetime import timedelta

import pytest

from repro.telescope.collector import DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.telescope.pool import REGION_BLOCKS, CloudIpPool
from repro.traffic.arrivals import ScanArrival
from repro.util.iputil import ipv4_in_network, parse_cidr
from repro.util.timeutil import TimeWindow, utc
from tests.packet_model import TelescopeInstance

WINDOW = TimeWindow(utc(2021, 3, 1), utc(2021, 3, 2))


def _arrival(minute, *, src=0x2D010101, port=80, payload=b"GET / HTTP/1.1\r\n\r\n"):
    return ScanArrival(
        timestamp=WINDOW.start + timedelta(minutes=minute),
        src_ip=src,
        src_port=50000,
        dst_port=port,
        payload=payload,
    )


class TestTelescopeConfig:
    def test_defaults_match_paper(self):
        config = TelescopeConfig()
        assert config.concurrent_instances == 300
        assert config.instance_lifetime == timedelta(minutes=10)
        # ~30k unique IPs per day at paper geometry.
        assert config.ips_per_day == pytest.approx(300 * 144)

    def test_validation(self):
        with pytest.raises(ValueError):
            TelescopeConfig(concurrent_instances=0)
        with pytest.raises(ValueError):
            TelescopeConfig(instance_lifetime=timedelta(0))
        with pytest.raises(ValueError):
            TelescopeConfig(regions=())

    def test_region_striping(self):
        config = TelescopeConfig()
        regions = {config.region_for_slot(slot) for slot in range(16)}
        assert regions == set(config.regions)


class TestCloudIpPool:
    def test_allocation_deterministic(self):
        pool = CloudIpPool(seed=1)
        a = pool.allocate("us-east-1", 0, 0)
        b = pool.allocate("us-east-1", 0, 0)
        assert a == b

    def test_allocation_in_region_blocks(self):
        pool = CloudIpPool(seed=1)
        networks = [parse_cidr(c) for c in REGION_BLOCKS["eu-west-1"]]
        for epoch in range(50):
            address = pool.allocate("eu-west-1", 3, epoch)
            assert any(ipv4_in_network(address, net) for net in networks)

    def test_addresses_churn_across_epochs(self):
        pool = CloudIpPool(seed=1)
        addresses = {pool.allocate("us-east-1", 0, epoch) for epoch in range(100)}
        assert len(addresses) > 95

    def test_unknown_region_rejected(self):
        pool = CloudIpPool(seed=1)
        with pytest.raises(KeyError):
            pool.allocate("mars-north-1", 0, 0)

    def test_region_capacity(self):
        pool = CloudIpPool(seed=1)
        # /13 + /15 per region.
        assert pool.region_capacity("us-east-1") == (1 << 19) + (1 << 17)

    def test_natural_probe0_collision_rehashes_clean(self):
        # A found-in-the-wild probe-0 collision: with seed 0, slot 3's
        # first draw for this epoch lands on slot 0's address.  Allocation
        # must rehash to an address no lower slot holds.
        pool = CloudIpPool(seed=0)
        epoch = 15960
        addresses = [pool.allocate("us-east-1", slot, epoch) for slot in range(4)]
        assert len(set(addresses)) == 4
        assert not pool._collides("us-east-1", 3, epoch, addresses[3])

    def test_every_probe_rechecks_collisions(self):
        # Force the first N draws to "collide": allocate must keep probing
        # until a draw passes the collision check, not trust the first
        # rehash blindly (the old code returned probe 1 unchecked).
        class _ForcedCollisions(CloudIpPool):
            def __init__(self, *, seed, poisoned_draws):
                super().__init__(seed=seed)
                self._poisoned_draws = poisoned_draws
                self._seen = []

            def _collides(self, region, slot, epoch, address):
                if address not in self._seen:
                    self._seen.append(address)
                return self._seen.index(address) < self._poisoned_draws

        pool = _ForcedCollisions(seed=1, poisoned_draws=2)
        address = pool.allocate("us-east-1", 5, 42)
        # Draws 0 and 1 were marked colliding, so the third draw wins.
        assert address == pool._seen[2]
        assert not pool._collides("us-east-1", 5, 42, address)

    def test_exhausted_probes_still_return(self):
        class _AlwaysCollides(CloudIpPool):
            def _collides(self, region, slot, epoch, address):
                return True

        # Pathological pool: all eight probes collide; allocation must
        # terminate (keeping the last draw) rather than loop or raise.
        address = _AlwaysCollides(seed=1).allocate("us-east-1", 0, 0)
        assert isinstance(address, int)


class TestTelescopeInstance:
    def _instance(self):
        return TelescopeInstance(
            ip=0x0A000001, region="us-east-1", slot=0, epoch=0,
            start=WINDOW.start, lifetime=timedelta(minutes=10),
        )

    def test_receives_during_tenancy(self):
        instance = self._instance()
        instance.receive(_arrival(5))
        sessions = instance.teardown()
        assert len(sessions) == 1
        assert sessions[0].payload == b"GET / HTTP/1.1\r\n\r\n"
        assert sessions[0].dst_ip == 0x0A000001

    def test_rejects_outside_tenancy(self):
        instance = self._instance()
        with pytest.raises(ValueError):
            instance.receive(_arrival(15))

    def test_empty_payload_still_captured(self):
        instance = self._instance()
        instance.receive(_arrival(1, payload=b""))
        sessions = instance.teardown()
        assert len(sessions) == 1
        assert sessions[0].payload == b""

    def test_is_live_half_open(self):
        instance = self._instance()
        assert instance.is_live(WINDOW.start)
        assert not instance.is_live(WINDOW.start + timedelta(minutes=10))


class TestDscopeCollector:
    def test_collects_all_arrivals(self):
        collector = DscopeCollector(
            TelescopeConfig(concurrent_instances=10), window=WINDOW
        )
        arrivals = [_arrival(m) for m in range(0, 120, 2)]
        store = collector.collect(arrivals)
        assert len(store) == len(arrivals)
        assert collector.stats.arrivals_routed == len(arrivals)
        assert collector.stats.sessions_captured == len(arrivals)

    def test_session_ids_globally_unique(self):
        collector = DscopeCollector(
            TelescopeConfig(concurrent_instances=4), window=WINDOW
        )
        store = collector.collect([_arrival(m) for m in range(100)])
        ids = [session.session_id for session in store]
        assert len(set(ids)) == len(ids)

    def test_receiving_ips_churn_over_time(self):
        collector = DscopeCollector(
            TelescopeConfig(concurrent_instances=2), window=WINDOW
        )
        # Arrivals spread over 12 hours with 10-minute tenancies: many
        # distinct receiving addresses.
        collector.collect([_arrival(m) for m in range(0, 720, 30)])
        assert collector.stats.unique_receiving_ips >= 20

    def test_rejects_unsorted_stream(self):
        collector = DscopeCollector(window=WINDOW)
        with pytest.raises(ValueError):
            collector.collect([_arrival(10), _arrival(5)])

    def test_out_of_window_arrivals_skipped(self):
        collector = DscopeCollector(window=WINDOW)
        late = ScanArrival(
            timestamp=WINDOW.end + timedelta(hours=1), src_ip=1, src_port=1,
            dst_port=80, payload=b"x",
        )
        store = collector.collect([late])
        assert len(store) == 0

    def test_tenancy_geometry(self):
        collector = DscopeCollector(
            TelescopeConfig(concurrent_instances=10), window=WINDOW
        )
        when = WINDOW.start + timedelta(minutes=25)
        epoch, start = collector.tenancy_for(0, when)
        assert start <= when < start + timedelta(minutes=10)
        # Stagger: slot 5 starts its tenancies offset by half a lifetime.
        _, staggered_start = collector.tenancy_for(5, when)
        assert staggered_start != start

    def test_expected_unique_ips_order_of_magnitude(self):
        from repro.datasets.seed_cves import STUDY_WINDOW

        collector = DscopeCollector(window=STUDY_WINDOW)
        # Paper: ~5M unique IPs over two years.
        assert 4_000_000 < collector.expected_unique_ips < 6_000_000
        assert collector.total_tenancies > 30_000_000

    def test_sessions_preserve_payloads(self):
        collector = DscopeCollector(window=WINDOW)
        payload = b"\x00\x01binary\xff"
        store = collector.collect([_arrival(3, payload=payload)])
        assert next(iter(store)).payload == payload


class TestPreemption:
    def test_preempted_tenancies_lose_arrivals_but_flush_sessions(self):
        config = TelescopeConfig(concurrent_instances=2, preemption_rate=0.5,
                                 seed=99)
        collector = DscopeCollector(config, window=WINDOW)
        arrivals = [_arrival(m) for m in range(0, 360, 1)]
        store = collector.collect(arrivals)
        lost = collector.stats.arrivals_lost_to_preemption
        assert lost > 0
        assert len(store) + lost == len(arrivals)
        # Captured sessions all predate their tenancy's end.
        assert collector.stats.sessions_captured == len(store)

    def test_preemption_deterministic(self):
        config = TelescopeConfig(concurrent_instances=2, preemption_rate=0.5,
                                 seed=99)
        a = DscopeCollector(config, window=WINDOW)
        b = DscopeCollector(config, window=WINDOW)
        arrivals = [_arrival(m) for m in range(0, 120, 1)]
        assert len(a.collect(arrivals)) == len(b.collect(arrivals))
        assert (a.stats.arrivals_lost_to_preemption
                == b.stats.arrivals_lost_to_preemption)

    def test_rate_validation(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            TelescopeConfig(preemption_rate=1.5)

    def test_instance_end_respects_preemption(self):
        from datetime import timedelta as _td
        instance = TelescopeInstance(
            ip=1, region="us-east-1", slot=0, epoch=0, start=WINDOW.start,
            lifetime=_td(minutes=10),
            preempted_at=WINDOW.start + _td(minutes=4),
        )
        assert instance.was_preempted
        assert instance.end == WINDOW.start + _td(minutes=4)
        assert not instance.is_live(WINDOW.start + _td(minutes=5))

    def test_fully_preempted_tenancies_never_count_as_receiving(self):
        # Regression: receiving_ips used to be stamped at tenancy
        # materialisation, *before* the is_live preemption check — an IP
        # whose only arrivals were lost to preemption still counted as
        # "received at least one analysed arrival", inflating
        # unique_receiving_ips against its own docstring.
        config = TelescopeConfig(
            concurrent_instances=1, preemption_rate=0.999, seed=7
        )
        collector = DscopeCollector(config, window=WINDOW)
        lifetime = config.instance_lifetime
        # Land every arrival in the last 3% of its tenancy: preemption cuts
        # tenancies at 20-95% of a lifetime, so (at this rate) every one of
        # these arrivals is lost.
        arrivals = [
            ScanArrival(
                timestamp=WINDOW.start + k * lifetime + 0.97 * lifetime,
                src_ip=k, src_port=50000, dst_port=80, payload=b"X",
            )
            for k in range(5)
        ]
        collector.collect(arrivals)
        stats = collector.stats
        assert stats.tenancies_materialised == 5
        assert stats.arrivals_lost_to_preemption == 5
        assert stats.arrivals_routed == 0
        assert stats.unique_receiving_ips == 0  # pre-fix: 5

    def test_received_arrival_still_counts_receiving_ip(self):
        config = TelescopeConfig(
            concurrent_instances=1, preemption_rate=0.999, seed=7
        )
        collector = DscopeCollector(config, window=WINDOW)
        lifetime = config.instance_lifetime
        lost = [
            ScanArrival(
                timestamp=WINDOW.start + k * lifetime + 0.97 * lifetime,
                src_ip=k, src_port=50000, dst_port=80, payload=b"X",
            )
            for k in range(5)
        ]
        received = ScanArrival(
            timestamp=WINDOW.start + 10 * lifetime + 0.01 * lifetime,
            src_ip=99, src_port=50000, dst_port=80, payload=b"X",
        )
        collector.collect(lost + [received])
        assert collector.stats.arrivals_routed == 1
        assert collector.stats.unique_receiving_ips == 1


class TestCollectWindows:
    def _config(self):
        return TelescopeConfig(
            concurrent_instances=4, preemption_rate=0.3, seed=5
        )

    def test_concatenated_windows_equal_batch_capture(self):
        arrivals = [_arrival(m) for m in range(0, 720, 3)]
        batch = DscopeCollector(self._config(), window=WINDOW)
        batch_store = batch.collect(arrivals)
        streaming = DscopeCollector(self._config(), window=WINDOW)
        windows = list(
            streaming.collect_windows(arrivals, span=timedelta(hours=2))
        )
        merged = [s for w in windows for s in w.sessions]
        # Same sessions with the same ids — the store iterates in
        # (start, session_id) order, windows in tenancy-finish order.
        key = lambda s: (s.start, s.session_id)  # noqa: E731
        assert sorted(merged, key=key) == list(batch_store)
        assert streaming.stats == batch.stats
        assert streaming.ground_truth == batch.ground_truth
        # Cadence: contiguous indexes, only the last window final, and the
        # in-window arrival counts add up.
        assert [w.index for w in windows] == list(range(len(windows)))
        assert [w.final for w in windows] == [False] * (len(windows) - 1) + [True]
        assert sum(w.arrivals for w in windows) == len(arrivals)

    def test_quiet_windows_yielded_empty(self):
        arrivals = [_arrival(1), _arrival(700)]
        collector = DscopeCollector(self._config(), window=WINDOW)
        windows = list(
            collector.collect_windows(arrivals, span=timedelta(hours=2))
        )
        assert len(windows) >= 5
        assert any(w.arrivals == 0 and not w.sessions for w in windows[1:-1])

    def test_max_windows_truncates(self):
        arrivals = [_arrival(m) for m in range(0, 720, 3)]
        collector = DscopeCollector(self._config(), window=WINDOW)
        windows = list(
            collector.collect_windows(
                arrivals, span=timedelta(hours=2), max_windows=2
            )
        )
        assert len(windows) == 2
        assert windows[-1].final

    def test_rejects_non_positive_span(self):
        collector = DscopeCollector(self._config(), window=WINDOW)
        with pytest.raises(ValueError):
            list(collector.collect_windows([], span=timedelta(0)))


@pytest.mark.parametrize("seed", [3, 11])
def test_ip_counts_are_the_sessions_distinct_addresses(seed, tmp_path):
    """``unique_receiving_ips`` and ``unique_source_ips`` equal the store's
    distinct ``session_dst_ip`` and ``session_src_ip`` values after
    ``collect``, after the last window of ``collect_windows`` and on a
    cache hit."""
    from repro.analysis.pipeline import StudyConfig, run_study
    from repro.datasets.loader import build_bundle
    from repro.scenarios import resolve

    def counts(stats):
        return stats.unique_receiving_ips, stats.unique_source_ips

    def distinct(session_columns):
        dst, src = set(), set()
        for columns in session_columns:
            dst.update(columns.columns["session_dst_ip"].tolist())
            src.update(columns.columns["session_src_ip"].tolist())
        return len(dst), len(src)

    config = StudyConfig(
        seed=seed, volume_scale=0.01, background_per_exploit=0.3,
        background_nvd_count=500, workers=1,
    )
    cold = run_study(config, cache=tmp_path)
    assert not cold.from_cache
    expected = distinct([cold.store.columns()])
    assert counts(cold.collection_stats) == expected
    assert min(expected) > 0

    warm = run_study(config, cache=tmp_path)
    assert warm.from_cache
    assert counts(warm.collection_stats) == distinct([warm.store.columns()])
    assert warm.collection_stats == cold.collection_stats

    resolved = resolve("paper-default", config)
    window = build_bundle(resolved.plan).window
    collector = resolved.build_collector(window)
    windows = list(collector.collect_windows(
        resolved.build_traffic(window).stream(), span=timedelta(days=30)
    ))
    assert len(windows) > 1 and windows[-1].final
    assert counts(collector.stats) == distinct(w.sessions for w in windows)
    assert collector.stats == cold.collection_stats
