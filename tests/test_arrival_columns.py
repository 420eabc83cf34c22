"""Arrivals as columns: traffic's output and capture's input.

:class:`ArrivalColumns` is the one encoding of an arrival stream;
:class:`ScanArrival` is its row view.  These tests pin:

* the round trip rows → columns → rows, with naive and aware times, tied
  times, duplicate and empty payloads and Log4Shell variant SIDs, and the
  stable time sort against Python's stable ``list.sort``;
* capture over columns against capture over the same rows and a
  record-built store: equal ``store.cols.zlib`` bytes and ground truth,
  with out-of-window and preempted arrivals whose payloads the capture's
  heap must leave out, and a heap that is not in first-use order;
* the evasive-traffic wrapper's column ``generate()`` against its row
  ``stream()``;
* range checks at the entry points, the capture's tracer spans, and a
  cold run that builds no ``ScanArrival``.
"""

from __future__ import annotations

import dataclasses
from datetime import timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.study import write_stage
from repro.datasets.seed_log4shell import LOG4SHELL_VARIANTS
from repro.net.pcapstore import SessionStore
from repro.obs import Tracer
from repro.scenarios.builtins import EvasiveTraffic
from repro.telescope.collector import CollectionStats, DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.traffic.arrivals import ArrivalColumns, ScanArrival
from repro.traffic.generator import TrafficConfig, TrafficGenerator
from tests.test_capture_batch import HOUR_US, WINDOW, configs

ZONES = [None, timezone.utc, timezone(timedelta(hours=2))]
SIDS = [None] + [variant.sid for variant in LOG4SHELL_VARIANTS[:4]]


def _rows(zone, draws):
    start = WINDOW.start.replace(tzinfo=zone)
    return [
        ScanArrival(
            timestamp=start + timedelta(microseconds=offset),
            src_ip=src_ip,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            truth_cve=truth,
            variant_sid=sid,
        )
        for offset, src_ip, src_port, dst_port, payload, truth, sid in draws
    ]


#: Offsets (µs from the window start) from a small grid, so ties are
#: common, plus arrivals before and after the one-day window.
_offsets = st.one_of(
    st.sampled_from([0, 7, 7_000_000, 60_000_000, 24 * HOUR_US - 1]),
    st.integers(-HOUR_US, 25 * HOUR_US),
)
_draws = st.tuples(
    _offsets,
    st.sampled_from([0, 1, 0xC0A80001, 2**32 - 1]),
    st.sampled_from([0, 1024, 65535]),
    st.sampled_from([22, 80, 443]),
    st.sampled_from([b"", b"x", b"GET / HTTP/1.1\r\n\r\n", b"\x00\xff"]),
    st.sampled_from([None, "CVE-2021-44228", "CVE-2022-26134"]),
    st.sampled_from(SIDS),
)
row_lists = st.builds(
    _rows, st.sampled_from(ZONES), st.lists(_draws, max_size=80)
)
#: Naive UTC only: what the stage files store.
naive_row_lists = st.builds(_rows, st.just(None), st.lists(_draws, max_size=80))


def _by_time(rows):
    return sorted(rows, key=lambda arrival: arrival.timestamp)


def assert_same_arrival_columns(got, expected):
    assert got.zone == expected.zone
    assert got.cves == expected.cves and got.heap == expected.heap
    for name in ("t", "src_ip", "src_port", "dst_port", "payload", "truth",
                 "variant_sid"):
        assert getattr(got, name).dtype == getattr(expected, name).dtype, name
        assert getattr(got, name).tolist() == getattr(expected, name).tolist()


# -- round trip ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(row_lists)
def test_rows_round_trip_through_columns(rows):
    columns = ArrivalColumns.from_rows(rows)
    assert len(columns) == len(rows)
    assert list(columns) == rows
    assert columns == rows and rows == columns
    for got, arrival in zip(list(columns), rows):
        assert got.timestamp.tzinfo == arrival.timestamp.tzinfo
    # Payloads and CVEs are interned in row order, one heap entry each.
    assert columns.heap == list(dict.fromkeys(a.payload for a in rows))
    assert columns.cves == tuple(
        dict.fromkeys(a.truth_cve for a in rows if a.truth_cve is not None)
    )
    assert_same_arrival_columns(ArrivalColumns.from_rows(columns), columns)
    if rows:
        assert columns[-1] == rows[-1] and columns[0] == rows[0]
        assert list(columns[1::2]) == rows[1::2]


@settings(max_examples=150, deadline=None)
@given(row_lists)
def test_time_sort_is_stable(rows):
    assert list(ArrivalColumns.from_rows(rows).sorted()) == _by_time(rows)


def test_time_sort_keeps_tied_arrivals_in_order():
    # Enough tied rows that an unstable sort reorders some of them.
    rows = _rows(None, [
        ((k * 7) % 3 * 1000, k, 1024, 80, bytes([k]), None, None)
        for k in range(200)
    ])
    assert list(ArrivalColumns.from_rows(rows).sorted()) == _by_time(rows)


@settings(max_examples=60, deadline=None)
@given(row_lists, row_lists)
def test_concat_merges_heaps(first, second):
    if first and second and (
        (first[0].timestamp.tzinfo is None)
        != (second[0].timestamp.tzinfo is None)
    ):
        with pytest.raises(ValueError, match="naive and aware"):
            ArrivalColumns.concat(
                [ArrivalColumns.from_rows(first),
                 ArrivalColumns.from_rows(second)]
            )
        return
    merged = ArrivalColumns.concat(
        [ArrivalColumns.from_rows(first), ArrivalColumns.from_rows(second)]
    )
    assert list(merged) == first + second
    assert_same_arrival_columns(
        merged, ArrivalColumns.from_rows(first + second)
    )


# -- capture over columns -----------------------------------------------------


def _store_bytes(directory, store, collector):
    directory.mkdir(exist_ok=True)
    write_stage(
        "store", directory, (store, collector.stats, collector.ground_truth)
    )
    return (directory / "store.cols.zlib").read_bytes()


@settings(max_examples=80, deadline=None)
@given(configs, naive_row_lists)
def test_collect_columns_equals_collect_rows(tmp_path_factory, config, rows):
    # Packed before the sort: the heap is in the unsorted rows' first-use
    # order, so capture must renumber it.
    columns = ArrivalColumns.from_rows(rows).sorted()
    rows = _by_time(rows)
    by_columns = DscopeCollector(config, window=WINDOW)
    by_rows = DscopeCollector(config, window=WINDOW)
    captured = by_columns.collect(columns)
    reference = by_rows.collect(rows)
    assert list(captured) == list(reference)
    assert list(by_columns.ground_truth.items()) == list(
        by_rows.ground_truth.items()
    )
    records = SessionStore()
    records.extend(list(reference))
    written = {
        _store_bytes(tmp_path_factory.mktemp("stage"), store, collector)
        for store, collector in (
            (captured, by_columns), (reference, by_rows), (records, by_rows)
        )
    }
    assert len(written) == 1


def test_capture_heap_leaves_out_unreceived_payloads(tmp_path):
    # Payloads sent only before the window, after it, or into a preempted
    # tenancy must not reach the store's heap.
    config = TelescopeConfig(
        concurrent_instances=1, preemption_rate=0.999, seed=7
    )
    lifetime_us = 600_000_000
    rows = _rows(None, [
        (-5, 1, 1024, 80, b"early", None, None),
        (1_000_000, 2, 1024, 80, b"kept", "CVE-2021-44228", 58722),
        (lifetime_us - 1, 3, 1024, 80, b"lost", None, None),
        (25 * HOUR_US, 4, 1024, 80, b"late", None, None),
    ])
    collector = DscopeCollector(config, window=WINDOW)
    store = collector.collect(ArrivalColumns.from_rows(rows))
    assert collector.stats.arrivals_lost_to_preemption == 1
    assert store.columns().distinct_payloads() == [b"kept"]
    assert collector.ground_truth == {0: "CVE-2021-44228"}
    records = SessionStore()
    records.extend(list(store))
    assert _store_bytes(tmp_path / "a", store, collector) == _store_bytes(
        tmp_path / "b", records, collector
    )


def test_collect_records_route_and_take_spans():
    rows = _rows(None, [(k * 90_000_000, k, 1024, 80, b"x", None, None)
                        for k in range(30)])
    collector = DscopeCollector(
        TelescopeConfig(concurrent_instances=3), window=WINDOW
    )
    tracer = Tracer()
    with tracer.span("capture"):
        store = collector.collect(rows, tracer=tracer)
    (capture,) = tracer.tree()
    route, take = capture["children"]
    assert route["name"] == "route" and take["name"] == "take"
    assert route["attributes"] == {
        "tenancies": collector.stats.tenancies_materialised
    }
    assert take["attributes"] == {"sessions": len(store)} == {"sessions": 30}


# -- range checks ---------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [("src_ip", 2**32 + 5), ("src_ip", -1), ("src_port", 65536),
     ("dst_port", -1), ("dst_port", 2**70)],
)
def test_out_of_range_fields_are_rejected(field, value):
    fields = dict(
        timestamp=WINDOW.start, src_ip=1, src_port=1024, dst_port=80,
        payload=b"x",
    )
    with pytest.raises(ValueError, match=f"{field} out of range"):
        ScanArrival(**{**fields, field: value})
    # A row that skipped the check fails at packing, before capture
    # changes any state, and the port column is checked before its cast.
    row = SimpleNamespace(
        **{**fields, field: value}, truth_cve=None, variant_sid=None
    )
    collector = DscopeCollector(window=WINDOW)
    with pytest.raises(ValueError, match=f"{field} out of range"):
        collector.collect([row])
    assert collector.stats == CollectionStats()
    assert collector.ground_truth == {}


# -- traffic sources --------------------------------------------------------------


def _mangled_rows(traffic):
    """The oracle for the evasive wrapper's column mangling: the inner
    stream's rows, each exploit row's payload mangled by its index."""
    for index, arrival in enumerate(traffic.inner.stream()):
        if arrival.truth_cve is None:
            yield arrival
        else:
            yield dataclasses.replace(
                arrival, payload=traffic._mangle(arrival.payload, index)
            )


def test_evasive_generate_equals_stream():
    traffic = EvasiveTraffic(
        TrafficGenerator(
            TrafficConfig(volume_scale=0.005, background_per_exploit=0.3)
        ),
        seed=11,
    )
    arrivals = traffic.generate()
    rows = list(arrivals)
    assert rows == list(_mangled_rows(traffic))
    assert rows == list(traffic.stream())
    plain = list(traffic.inner.generate())
    mangled = sum(a.payload != b.payload for a, b in zip(rows, plain))
    assert 0 < mangled < sum(a.truth_cve is not None for a in plain)
    for cursor in (1, 17, len(rows) // 2, len(rows) - 1, len(rows)):
        assert list(traffic.stream(cursor=cursor)) == rows[cursor:]
    # The mangled payloads are interned: the heap holds no duplicate.
    assert len(set(arrivals.heap)) == len(arrivals.heap)


def test_generate_returns_sorted_columns():
    arrivals = TrafficGenerator(
        TrafficConfig(volume_scale=0.005, background_per_exploit=0.3)
    ).generate()
    assert isinstance(arrivals, ArrivalColumns)
    assert bool((np.diff(arrivals.t) >= 0).all())
    assert len(set(arrivals.heap)) == len(arrivals.heap)


def test_cold_run_builds_no_arrival_rows(tmp_path, monkeypatch):
    """A cold cached run generates and captures its traffic without
    building a ``ScanArrival``."""
    from repro.analysis.pipeline import StudyConfig, run_study

    built = []
    original = ScanArrival.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ScanArrival, "__init__", counting)
    result = run_study(
        StudyConfig(
            seed=3, volume_scale=0.005, background_per_exploit=0.3,
            background_nvd_count=300,
        ),
        cache=tmp_path / "cache",
    )
    assert not result.from_cache and len(result.store) > 0
    assert built == []
