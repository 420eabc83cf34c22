"""The batch capture core against the frozen per-arrival collector.

:class:`DscopeCollector` routes arrivals a batch at a time (bulk slot
draws, integer-microsecond tenancy arithmetic, prefix-state address
hashing, closed-form sessions).  These tests pin it byte for byte to
:mod:`tests.capture_oracle`, the per-arrival loop it replaced, and pin each
equivalence the fast path relies on.
"""

from __future__ import annotations

import dataclasses
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import STAGE_MODULES
from repro.net.pcapstore import SessionColumns
from repro.telescope.collector import DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.telescope.pool import CloudIpPool
from repro.traffic.arrivals import ScanArrival
from repro.util.rng import derive_rng, derive_seed
from repro.util.timeutil import TimeWindow, utc
from tests import import_closure
from tests.capture_oracle import OracleCollector, OracleIpPool
from tests.packet_model import TelescopeInstance

WINDOW = TimeWindow(utc(2021, 3, 1), utc(2021, 3, 2))
HOUR_US = 3_600_000_000


def _arrival(offset_us, *, src=0x2D010101, port=80, payload=b"GET /",
             truth=None, src_port=50000):
    return ScanArrival(
        timestamp=WINDOW.start + timedelta(microseconds=offset_us),
        src_ip=src,
        src_port=src_port,
        dst_port=port,
        payload=payload,
        truth_cve=truth,
    )


def assert_same_columns(got, expected):
    """Two :class:`SessionColumns` hold equal columns, dtypes and zone."""
    assert got.zone == expected.zone
    assert sorted(got.columns) == sorted(expected.columns)
    for name, column in expected.columns.items():
        assert got.columns[name].dtype == column.dtype, name
        assert got.columns[name].tolist() == column.tolist(), name


def _assert_same_capture(new, new_sessions, old, old_sessions):
    assert new_sessions == old_sessions
    assert [s.session_id for s in new_sessions] == [
        s.session_id for s in old_sessions
    ]
    assert new.stats == old.stats
    assert list(new.stats.receiving_ips) == list(old.stats.receiving_ips)
    assert list(new.stats.source_ips) == list(old.stats.source_ips)
    assert list(new.ground_truth.items()) == list(old.ground_truth.items())
    assert new.arrivals_fed == old.arrivals_fed


# -- generated streams ------------------------------------------------------

#: A few instants hit repeatedly, so equal timestamps are common.
_GRID = [k * 7_000_000 for k in range(-3, 40)]

configs = st.builds(
    lambda slots, minutes, rate, seed: TelescopeConfig(
        concurrent_instances=slots,
        instance_lifetime=timedelta(minutes=minutes),
        preemption_rate=rate,
        seed=seed,
    ),
    st.integers(1, 4),
    st.integers(1, 12),
    st.one_of(st.just(0.0), st.floats(0.05, 0.95)),
    st.integers(0, 2**31),
)

arrivals = st.builds(
    lambda offset, src, src_port, port, payload, truth: _arrival(
        offset, src=src, src_port=src_port, port=port, payload=payload,
        truth=truth,
    ),
    # Mostly dense traffic in the first hours, some before the window and
    # some after it, and the window's edges exactly.
    st.one_of(
        st.sampled_from(_GRID),
        st.sampled_from([-1, 0, 24 * HOUR_US - 1, 24 * HOUR_US]),
        st.integers(-HOUR_US, 3 * HOUR_US),
        st.integers(23 * HOUR_US, 25 * HOUR_US),
    ),
    st.sampled_from([1, 2, 0xC0A80001]),
    st.sampled_from([1024, 50000]),
    st.sampled_from([22, 80, 443]),
    st.sampled_from([b"", b"x", b"GET / HTTP/1.1\r\n\r\n"]),
    st.sampled_from([None, "CVE-2021-44228"]),
)

streams = st.lists(arrivals, max_size=60).map(
    lambda items: sorted(items, key=lambda a: a.timestamp)
)


@settings(max_examples=150, deadline=None)
@given(configs, streams)
def test_collect_matches_oracle(config, stream):
    new = DscopeCollector(config, window=WINDOW)
    old = OracleCollector(config, window=WINDOW)
    store = new.collect(stream)
    reference = list(old.collect(stream))
    _assert_same_capture(new, list(store), old, reference)
    # The store is a view over capture's columns: the records packed.
    assert_same_columns(store.columns(), SessionColumns.pack(reference))


def _feed_both(config, stream):
    """Feed both collectors one arrival at a time, comparing every step."""
    new = DscopeCollector(config, window=WINDOW)
    old = OracleCollector(config, window=WINDOW)
    old._begin_stream()
    new_sessions, old_sessions = [], []
    for arrival in stream:
        new_sessions.extend(new.feed(arrival))
        old_sessions.extend(old.feed(arrival))
        assert new_sessions == old_sessions
    new_sessions.extend(new.flush())
    old_sessions.extend(old.flush())
    _assert_same_capture(new, new_sessions, old, old_sessions)
    return new


@settings(max_examples=60, deadline=None)
@given(configs, streams)
def test_feed_then_flush_matches_oracle(config, stream):
    _feed_both(config, stream)


@settings(max_examples=60, deadline=None)
@given(
    configs,
    streams,
    st.sampled_from([timedelta(minutes=5), timedelta(minutes=47),
                     timedelta(hours=2), timedelta(days=2)]),
)
def test_windows_concatenate_to_collect(config, stream, span):
    batch = DscopeCollector(config, window=WINDOW)
    store = list(batch.collect(stream))
    streaming = DscopeCollector(config, window=WINDOW)
    windows = list(streaming.collect_windows(stream, span=span))
    merged = [s for w in windows for s in w.sessions]
    assert sorted(merged, key=lambda s: (s.start, s.session_id)) == store
    assert streaming.stats == batch.stats
    assert streaming.ground_truth == batch.ground_truth
    assert streaming.arrivals_fed == batch.arrivals_fed == len(stream)


def test_dense_slot_closes_several_tenancies_at_once():
    # One slot, one-minute tenancies: each arrival past a quiet stretch
    # sweeps the previous tenancy, and with two slots one arrival can
    # sweep both the slot's old tenancy and the other slot's expired one.
    config = TelescopeConfig(
        concurrent_instances=2, instance_lifetime=timedelta(minutes=1),
        preemption_rate=0.5, seed=3,
    )
    stream = [_arrival(k * 20_000_000) for k in range(40)]
    stream += [_arrival(HOUR_US + k) for k in range(3)]
    new = DscopeCollector(config, window=WINDOW)
    old = OracleCollector(config, window=WINDOW)
    _assert_same_capture(
        new, list(new.collect(stream)), old, list(old.collect(stream))
    )
    assert new.stats.arrivals_lost_to_preemption > 0


def test_arrivals_on_exact_tenancy_boundaries():
    # Two slots staggered by half a lifetime: every arrival lands on some
    # tenancy's planned end, so the sweep's ``end <= now`` edge decides
    # which tenancies a step closes.
    config = TelescopeConfig(concurrent_instances=2, seed=4)
    five_minutes = 300_000_000
    _feed_both(config, [_arrival(k * five_minutes) for k in range(48)])


def test_arrival_at_exact_preemption_instant_is_lost():
    config = TelescopeConfig(
        concurrent_instances=1, preemption_rate=0.999, seed=7
    )
    first = _arrival(1_000_000)
    cut = OracleCollector(config, window=WINDOW).instance_for(
        0, first.timestamp
    ).end
    at_cut = _arrival((cut - WINDOW.start) // timedelta(microseconds=1))
    collector = _feed_both(config, [first, at_cut])
    assert collector.stats.arrivals_lost_to_preemption == 1


# -- streaming regressions --------------------------------------------------


def test_collect_windows_pulls_at_most_one_arrival_ahead():
    stream = [_arrival(k * 600_000_000) for k in range(30)]  # every 10 min
    pulled = []

    def lazy():
        for arrival in stream:
            pulled.append(arrival)
            yield arrival

    collector = DscopeCollector(
        TelescopeConfig(concurrent_instances=3), window=WINDOW
    )
    span = timedelta(hours=1)
    for window in collector.collect_windows(lazy(), span=span):
        in_window = sum(
            1 for a in stream
            if window.start <= a.timestamp < window.end
        )
        through = sum(1 for a in stream if a.timestamp < window.end)
        assert window.arrivals == in_window
        if not window.final:
            assert len(pulled) <= through + 1
            assert collector.arrivals_fed == through


def test_out_of_order_across_window_boundary_raises():
    # The late out-of-window arrival closes window 0's batch; the next
    # in-window arrival starts window 1's batch but precedes it in time.
    stream = [
        _arrival(10),
        _arrival(25 * HOUR_US),
        _arrival(HOUR_US + 5),
    ]
    collector = DscopeCollector(window=WINDOW)
    with pytest.raises(ValueError, match="time-sorted"):
        list(collector.collect_windows(stream, span=timedelta(hours=1)))


def test_out_of_order_across_feed_calls_raises():
    collector = DscopeCollector(window=WINDOW)
    collector.feed(_arrival(HOUR_US))
    with pytest.raises(ValueError, match="time-sorted"):
        collector.feed(_arrival(HOUR_US - 1))


def test_feed_one_at_a_time_equals_collect():
    config = TelescopeConfig(concurrent_instances=4, preemption_rate=0.3, seed=5)
    stream = [_arrival(k * 180_000_000, src=k % 7) for k in range(240)]
    fed = DscopeCollector(config, window=WINDOW)
    sessions = [s for a in stream for s in fed.feed(a)] + fed.flush()
    batch = DscopeCollector(config, window=WINDOW)
    store = batch.collect(stream)
    assert sorted(sessions, key=lambda s: (s.start, s.session_id)) == list(store)
    assert fed.stats == batch.stats
    assert fed.ground_truth == batch.ground_truth


# -- the equivalences the fast path relies on -------------------------------


def test_bulk_slot_draws_equal_scalar_draws():
    scalar = derive_rng(11, "routing")
    expected = [int(scalar.integers(0, 300)) for _ in range(1000)]
    bulk = derive_rng(11, "routing")
    drawn = []
    for size in (1, 7, 300, 1, 191, 500):
        drawn.extend(bulk.integers(0, 300, size=size).tolist())
    assert drawn == expected
    # The generators end in the same state.
    assert scalar.integers(0, 2**62) == bulk.integers(0, 2**62)


@pytest.mark.parametrize("seed", [0, 1, 20230321])
def test_pool_prefix_hash_equals_derive_seed(seed):
    pool = CloudIpPool(seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        region = str(rng.choice(sorted(pool._blocks)))
        epoch = int(rng.integers(-3, 110_000))
        slot = int(rng.integers(0, 300))
        probe = int(rng.integers(0, 8))
        assert pool._draw(region, epoch, slot, probe) == derive_seed(
            seed, "ip", region, epoch, slot, probe
        )


def test_pool_allocations_equal_oracle_including_negative_epochs():
    pool, oracle = CloudIpPool(seed=0), OracleIpPool(seed=0)
    for region in ("us-east-1", "sa-east-1"):
        for epoch in (-1, 0, 15960, 15961):
            for slot in range(12):
                assert pool.allocate(region, slot, epoch) == oracle.allocate(
                    region, slot, epoch
                )


def test_negative_epoch_near_window_start():
    config = TelescopeConfig(concurrent_instances=300)
    collector = DscopeCollector(config, window=WINDOW)
    oracle = OracleCollector(config, window=WINDOW)
    when = WINDOW.start + timedelta(seconds=30)
    # Slot 299's stagger is almost a whole lifetime: 30 s in, its first
    # tenancy of the window has not started yet.
    assert collector.tenancy_for(299, when) == oracle.tenancy_for(299, when)
    assert collector.tenancy_for(299, when)[0] == -1
    for slot in range(300):
        assert collector.tenancy_for(slot, when) == oracle.tenancy_for(slot, when)


@pytest.mark.parametrize(
    "payload", [b"", b"x", b"\x00\xffbinary", b"GET / HTTP/1.1\r\n\r\n"]
)
def test_closed_form_session_equals_packet_path(payload):
    arrival = _arrival(123_456_789, payload=payload, truth="CVE-2017-5638")
    collector = DscopeCollector(
        TelescopeConfig(concurrent_instances=1), window=WINDOW
    )
    (session,) = collector.collect([arrival])
    assert collector.ground_truth == {0: arrival.truth_cve}

    instance = TelescopeInstance(
        ip=session.dst_ip, region="us-east-1", slot=0, epoch=0,
        start=WINDOW.start, lifetime=timedelta(minutes=10),
    )
    instance.receive(arrival)
    (reference,) = instance.teardown()
    assert instance.truths() == [arrival.truth_cve]
    assert session == dataclasses.replace(reference, session_id=0)
    assert session.payload == payload


# -- cache fingerprint coverage ---------------------------------------------


def test_capture_import_closure_is_fingerprinted():
    closure = import_closure.closure("repro.telescope.collector")
    assert "repro.util.iputil" in closure
    assert closure <= set(STAGE_MODULES), sorted(closure - set(STAGE_MODULES))
