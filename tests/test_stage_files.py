"""Stage checkpoints are the cache entry's files.

``run_study`` writes each heavy stage (store, alerts) once, as a
compressed column container, into the study's partial entry
(``study/<key>.partial/``); the study cache then publishes that directory
as its entry.  These tests pin down:

* the stage codecs: sessions, alerts, ground truth and collection
  statistics round-trip exactly, and an aware datetime is rejected;
* malformed content behind a matching digest — damaged framing, or
  well-framed columns no writer produces (a session ending before it
  starts, a missing time, an index out of range, a duplicate ground-truth
  session) — is caught by the decoder's checks and read as an integrity
  failure and a miss;
* events derived from the alert columns equal the per-alert derivation,
  and re-indexing a table into a shard's CVE interner equals packing it;
* the remaining JSON codec (``SessionStore`` files):
  ``isoformat``/``fromisoformat`` timestamps give the same strings and
  values as the ``strftime``/``strptime`` codec they replaced;
* each stage is written exactly once per cold cached run, and a resumed
  run with a store checkpoint never generates traffic;
* a run killed in its scan leaves a partial entry holding ``store`` only,
  which no cache inspection counts as an entry and GC reaps only by age;
* a damaged stage file is detected on resume, deleted and recomputed;
* publishing renames the partial entry's stage files into the entry,
  rewriting any that no longer match their record;
* the benchmark's tracing targets still resolve.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import shutil
import tempfile
import time
import zlib
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import StudyConfig, run_study
from repro.cache import (
    CACHE_SCHEMA,
    CheckpointStore,
    StudyCache,
    study_key,
    verify_entry,
)
from repro.cache.checkpoint import encode_stage_alerts, encode_stage_store
from repro.cache.integrity import file_entry
from repro.cache.study import STAGE_FILES, STAGES, STORE_DTYPES, write_stage
from repro.cli import main
from repro.lifecycle.exploit_events import EventTable, ExploitEvent
from repro.net.pcapstore import SessionStore, decode_session, encode_session
from repro.net.session import TcpSession
from repro.nids.engine import DetectionEngine
from repro.nids.ruleset import Alert
from repro.store.columnar import (
    ALERT_DTYPES,
    MISSING,
    AlertTable,
    Interner,
    datetimes,
    micros_column,
    pack_alerts,
    to_micros,
)
from repro.store.shard import container_chunks, read_container
from repro.telescope.collector import CollectionStats
from repro.traffic.generator import TrafficGenerator

#: The timestamp format of the codec ``isoformat`` replaced.
OLD_FORMAT = "%Y-%m-%dT%H:%M:%S.%f"

REPO = Path(__file__).resolve().parents[1]

#: Each stage's column table (what its container must hold).
STAGE_DTYPES = {"store": STORE_DTYPES, "alerts": ALERT_DTYPES}


def _config(**overrides) -> StudyConfig:
    defaults = dict(
        seed=7, volume_scale=0.01, background_per_exploit=0.3,
        background_nvd_count=500,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


# -- strategies ----------------------------------------------------------------

# Years from 1000: below that glibc's ``%Y`` drops the zero padding that
# ``isoformat`` keeps (the package's timestamps are all 20xx).
_naive = st.datetimes(
    min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31, 23, 59)
)
#: Whole-second times are drawn on purpose: plain ``isoformat()`` would
#: drop their ``.000000`` fraction, ``timespec="microseconds"`` keeps it.
times = st.one_of(_naive, _naive.map(lambda value: value.replace(microsecond=0)))
ports = st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535))
ips = st.integers(0, 2**32 - 1)
#: A small pool, so payloads repeat (the store dedups them) and one is empty.
payloads = st.sampled_from([b"", b"GET / HTTP/1.1\r\n\r\n", b"\x00\xff", b"x"])
cve_ids = st.one_of(st.none(), st.sampled_from(["CVE-2021-44228", "CVE-2022-1388"]))


@st.composite
def sessions(draw, payload=st.binary(max_size=64)):
    start, end = sorted([draw(times), draw(times)])
    return TcpSession(
        session_id=draw(st.integers(0, 2**40)),
        start=start,
        end=draw(st.one_of(st.none(), st.just(end))),
        src_ip=draw(ips),
        src_port=draw(ports),
        dst_ip=draw(ips),
        dst_port=draw(ports),
        payload=draw(payload),
        established=draw(st.booleans()),
    )


@st.composite
def alerts(draw):
    return Alert(
        session_id=draw(st.integers(0, 2**40)),
        timestamp=draw(times),
        sid=draw(st.integers(1, 10**7)),
        cve_id=draw(cve_ids),
        rule_published=draw(times),
        dst_ip=draw(ips),
        dst_port=draw(ports),
        src_ip=draw(ips),
    )


@st.composite
def collection_stats(draw):
    counter = st.integers(0, 10**9)
    return CollectionStats(
        arrivals_routed=draw(counter),
        sessions_captured=draw(counter),
        tenancies_materialised=draw(counter),
        arrivals_lost_to_preemption=draw(counter),
        unique_receiving_ips=draw(counter),
        unique_source_ips=draw(counter),
    )


def _round_trip(stage: str, value):
    with tempfile.TemporaryDirectory() as directory:
        record = write_stage(stage, Path(directory), value)
        assert record["records"] == STAGES[stage].size(value)
        return STAGES[stage].read(Path(directory))


# -- the stage codecs ----------------------------------------------------------


class TestStageCodecs:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(sessions(payload=payloads), max_size=12),
        st.dictionaries(st.integers(0, 2**40), cve_ids, max_size=12),
        collection_stats(),
    )
    def test_store_round_trip(self, session_list, ground_truth, stats):
        store = SessionStore()
        store.extend(session_list)
        read_store, read_stats, read_truth = _round_trip(
            "store", (store, stats, ground_truth)
        )
        assert list(read_store) == list(store)
        assert read_stats == stats
        assert read_truth == ground_truth
        assert list(read_truth) == list(ground_truth)  # key order too

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            sessions(payload=payloads).map(
                lambda session: dataclasses.replace(
                    session, session_id=session.session_id % 5
                )
            ),
            max_size=12,
        ),
        st.lists(st.integers(-1, 6), max_size=6),
    )
    def test_loaded_payloads_equal_the_records_dict(self, session_list, probes):
        """The loaded store's payload mapping reads the rows on demand and
        still equals the dict the records give, repeated ids included (the
        last row wins, as in a dict)."""
        store = SessionStore()
        store.extend(session_list)
        expected = {session.session_id: session.payload for session in store}
        read_store, _, _ = _round_trip("store", (store, CollectionStats(), {}))
        loaded = read_store.payloads()
        assert len(read_store) == len(session_list)  # no session was built
        assert list(loaded.items()) == list(expected.items())
        assert len(loaded) == len(expected)
        for session_id in probes:
            assert loaded.get(session_id, b"?") == expected.get(session_id, b"?")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(alerts(), max_size=12))
    def test_alerts_round_trip(self, alert_list):
        assert _round_trip("alerts", alert_list) == alert_list

    @settings(max_examples=150, deadline=None)
    @given(st.lists(alerts(), max_size=12))
    @example([
        Alert(
            session_id=1, timestamp=datetime(2022, 1, 1), sid=1,
            cve_id="CVE-2021-44228", rule_published=datetime(2022, 1, 1),
            dst_ip=1, dst_port=80, src_ip=2,
        )
    ])
    def test_events_from_alert_columns(self, alert_list):
        """The column derivation gives the events the per-alert one did,
        ``mitigated`` included (a tie with the rule's publication is
        mitigated), for a table and for a plain list."""
        expected = [
            ExploitEvent(
                cve_id=alert.cve_id, timestamp=alert.timestamp, sid=alert.sid,
                session_id=alert.session_id, src_ip=alert.src_ip,
                dst_ip=alert.dst_ip, dst_port=alert.dst_port,
                mitigated=not alert.pre_publication,
            )
            for alert in alert_list
            if alert.cve_id is not None
        ]
        assert EventTable.from_alerts(alert_list) == expected
        assert EventTable.from_alerts(AlertTable.pack(alert_list)) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(alerts(), max_size=12), st.lists(cve_ids, max_size=3))
    def test_table_columns_into_an_interner(self, alert_list, seen):
        """Re-indexing a table's CVE column into a shard's interner equals
        packing the records into it."""
        packed, remapped = Interner(), Interner()
        for cve_id in seen:
            packed.intern(cve_id)
            remapped.intern(cve_id)
        expected = pack_alerts(alert_list, packed)
        columns = AlertTable.pack(alert_list).columns_into(remapped)
        assert remapped.values == packed.values
        assert sorted(columns) == sorted(expected)
        for name, column in expected.items():
            assert columns[name].dtype == column.dtype, name
            assert columns[name].tolist() == column.tolist(), name

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.datetimes()), max_size=8))
    def test_datetime_column(self, values):
        """The column encoder is ``to_micros`` (the shard's arithmetic),
        and decoding inverts it, None included."""
        column = micros_column(values)
        assert column.tolist() == [to_micros(value) for value in values]
        assert datetimes(column) == values

    def test_empty_stages(self):
        store, stats, truth = _round_trip(
            "store", (SessionStore(), CollectionStats(), {})
        )
        assert len(store) == 0 and stats == CollectionStats() and truth == {}
        assert _round_trip("alerts", []) == []

    @pytest.mark.parametrize(
        "end", [None, timedelta(hours=1)], ids=["open", "closed"]
    )
    def test_aware_session_time_is_rejected(self, end, tmp_path):
        start = datetime(2022, 1, 1, tzinfo=timezone.utc)
        store = SessionStore()
        store.append(TcpSession(
            session_id=1, start=start, src_ip=1, src_port=2, dst_ip=3,
            dst_port=80, end=None if end is None else start + end,
        ))
        with pytest.raises(ValueError, match="naive"):
            write_stage("store", tmp_path, (store, CollectionStats(), {}))

    def test_aware_alert_time_is_rejected(self, tmp_path):
        alert = Alert(
            session_id=1, timestamp=datetime(2022, 1, 1, tzinfo=timezone.utc),
            sid=1, cve_id=None, rule_published=datetime(2021, 1, 1),
            dst_ip=1, dst_port=80, src_ip=2,
        )
        with pytest.raises(ValueError, match="naive"):
            write_stage("alerts", tmp_path, [alert])


# -- malformed content behind a matching digest ----------------------------------


#: A stage file's stream opens with the container's length, 8 bytes.
PREFIX = 8


def _recompress(data: bytes, length=None) -> bytes:
    """A stage file holding ``data`` as its container, behind a length
    prefix of ``length`` (default: the container's own)."""
    length = len(data) if length is None else length
    return zlib.compress(length.to_bytes(PREFIX, "little") + bytes(data), 1)


def _inflate(data: bytes) -> bytes:
    """A well-formed stage file's container."""
    raw = zlib.decompress(data)
    assert int.from_bytes(raw[:PREFIX], "little") == len(raw) - PREFIX
    return raw[PREFIX:]


def _rewrite(header, columns, dtypes) -> bytes:
    header = {key: value for key, value in header.items() if key != "columns"}
    return _recompress(b"".join(
        bytes(chunk) for chunk in container_chunks(header, columns, dtypes)
    ))


def _malform(stage: str, data: bytes, how: str) -> bytes:
    """A stage file's bytes, damaged one way; still a valid zlib stream
    with a true length prefix unless ``how`` damages the stream or the
    prefix itself."""
    dtypes = STAGE_DTYPES[stage]
    raw = _inflate(data)
    header, columns = read_container(raw, dtypes)
    columns = {name: np.array(array) for name, array in columns.items()}
    first = sorted(dtypes)[0]
    if how == "bad_magic":
        return _recompress(b"NOTMAGIC" + raw[8:])
    if how == "unknown_column":
        columns["bogus"] = np.zeros(1, np.int64)
        return _rewrite(header, columns, {**dtypes, "bogus": "int64"})
    if how == "missing_column":
        del columns[first]
        return _rewrite(header, columns, {n: d for n, d in dtypes.items() if n != first})
    if how == "dtype_mismatch":
        wrong = "int16" if dtypes[first] != "int16" else "int64"
        columns[first] = columns[first].astype(wrong)
        return _rewrite(header, columns, {**dtypes, first: wrong})
    if how == "short_column":
        return _recompress(raw[:-3])
    if how == "trailing_bytes":
        return _recompress(raw + b"\0" * 8)
    if how == "truncated_stream":
        return data[:-4]
    if how == "trailing_stream_bytes":
        return data + b"junk"
    if how == "length_longer_than_stream":
        return _recompress(raw, len(raw) + 1)
    if how == "length_shorter_than_stream":
        return _recompress(raw, len(raw) - 1)
    if how == "length_beyond_deflate":  # more than any stream can inflate to
        return _recompress(raw, 2**63)
    if how == "stream_shorter_than_prefix":
        return zlib.compress(raw[:PREFIX - 1], 1)
    if how == "file_shorter_than_prefix":
        return data[:PREFIX - 1]
    # Well-framed columns holding what no writer produces.
    if how == "session_ends_before_start":
        columns["session_end"] = columns["session_start"] - 1
    elif how == "session_start_missing":
        columns["session_start"][:] = MISSING
    elif how == "payload_index_out_of_range":
        columns["session_payload"][:] = columns["payload_offset"].size - 1
    elif how == "duplicate_truth_session":
        columns["truth_session"] = np.repeat(columns["truth_session"][:1], 2)
        columns["truth_cve"] = np.repeat(columns["truth_cve"][:1], 2)
    elif how == "alert_cve_out_of_range":
        columns["alert_cve"][:] = len(header["cves"])
    elif how == "alert_time_missing":
        columns["alert_t"][:] = MISSING
    elif how == "alert_time_out_of_range":  # past datetime.max
        columns["alert_t"][:] = np.iinfo(np.int64).max
    else:
        assert how == "rule_published_missing"
        columns["alert_rule_published"][:] = MISSING
    return _rewrite(header, columns, dtypes)


#: Damage to the framing: any stage file.
FRAMING = [
    "bad_magic", "unknown_column", "missing_column", "dtype_mismatch",
    "short_column", "trailing_bytes", "truncated_stream",
    "trailing_stream_bytes", "length_longer_than_stream",
    "length_shorter_than_stream", "length_beyond_deflate",
    "stream_shorter_than_prefix", "file_shorter_than_prefix",
]
#: Columns that decode but that no writer produces, per stage: the reader
#: must reject each by a column check, or the cache would serve a study
#: that fails (or is wrong) later.
SEMANTIC = {
    "store": [
        "session_ends_before_start", "session_start_missing",
        "payload_index_out_of_range", "duplicate_truth_session",
    ],
    "alerts": [
        "alert_cve_out_of_range", "alert_time_missing",
        "alert_time_out_of_range", "rule_published_missing",
    ],
}
MALFORMATIONS = [
    pytest.param(stage, how, id=f"{stage}-{how}")
    for stage in STAGES
    for how in FRAMING + SEMANTIC[stage]
]


@pytest.mark.parametrize("stage, how", MALFORMATIONS)
class TestMalformedContent:
    def test_reader_raises_value_error(self, staged, tmp_path, stage, how):
        _, key, checkpoints, _ = staged
        (name,) = STAGES[stage].files
        data = (checkpoints.dir_for(key) / name).read_bytes()
        (tmp_path / name).write_bytes(_malform(stage, data, how))
        with pytest.raises(ValueError):
            STAGES[stage].read(tmp_path)

    def test_study_cache_load_is_an_integrity_miss(self, staged, tmp_path, stage, how):
        config, _, _, values = staged
        cache = StudyCache(root=tmp_path / "cache")
        entry = cache.save(config, **values)
        (name,) = STAGES[stage].files
        path = entry / name
        path.write_bytes(_malform(stage, path.read_bytes(), how))
        meta = json.loads((entry / "meta.json").read_text())
        meta["files"][name] = file_entry(path)
        (entry / "meta.json").write_text(json.dumps(meta))
        assert verify_entry(entry, deep=True, expect_schema=CACHE_SCHEMA).ok

        assert cache.load(config) is None
        assert cache.telemetry.integrity_failures == 1
        assert cache.telemetry.misses == 1
        assert not entry.exists()

    def test_checkpoint_load_is_an_integrity_miss(self, staged, stage, how):
        _, key, checkpoints, _ = staged
        (name,) = STAGES[stage].files
        path = checkpoints.dir_for(key) / name
        path.write_bytes(_malform(stage, path.read_bytes(), how))
        record_path = checkpoints.dir_for(key) / f"{stage}.stage.json"
        record = json.loads(record_path.read_text())
        record["files"][name] = file_entry(path)
        record_path.write_text(json.dumps(record))

        assert checkpoints.load(key, stage) is None
        assert checkpoints.telemetry.integrity_failures == 1
        assert checkpoints.telemetry.misses == 1
        assert stage not in checkpoints.names(key)


# -- the remaining JSON codecs ---------------------------------------------------


def _old_session(session: TcpSession) -> dict:
    record = encode_session(session)
    record["start"] = session.start.strftime(OLD_FORMAT)
    record["end"] = session.end.strftime(OLD_FORMAT) if session.end else None
    return record


class TestTimestampCodec:
    @settings(max_examples=300, deadline=None)
    @given(times)
    def test_same_string_and_value_as_strftime(self, value):
        text = value.isoformat(timespec="microseconds")
        assert text == value.strftime(OLD_FORMAT)
        assert datetime.fromisoformat(text) == datetime.strptime(text, OLD_FORMAT)

    @settings(max_examples=200, deadline=None)
    @given(sessions())
    def test_session_records(self, session):
        assert encode_session(session) == _old_session(session)
        assert decode_session(_old_session(session)) == session


# -- one write per stage -----------------------------------------------------------


def test_cold_cached_run_writes_each_stage_once(tmp_path, monkeypatch):
    calls = {stage: 0 for stage in STAGES}

    def counting(stage, write):
        def wrapper(directory, value):
            calls[stage] += 1
            return write(directory, value)

        return wrapper

    for stage, codec in list(STAGES.items()):
        monkeypatch.setitem(
            STAGES, stage,
            dataclasses.replace(codec, write=counting(stage, codec.write)),
        )
    config = _config(workers=1)
    cache = StudyCache(root=tmp_path)
    result = run_study(config, cache=cache)  # default: checkpoints on
    assert not result.from_cache
    assert calls == {stage: 1 for stage in STAGES}
    records = cache.load(config).meta["records"]
    assert records == {"sessions": len(result.store), "alerts": len(result.alerts)}


def test_resume_from_store_checkpoint_never_generates_traffic(
    tmp_path, monkeypatch
):
    config = _config(workers=1)

    def killed_scan(self, store):
        raise _Killed

    with monkeypatch.context() as patch:
        patch.setattr(DetectionEngine, "scan", killed_scan)
        with pytest.raises(_Killed):
            run_study(config, cache=tmp_path, manifest=False)
    checkpoints = CheckpointStore(root=tmp_path)
    assert checkpoints.names(study_key(config)) == ["store"]

    def no_traffic(self, *args, **kwargs):
        raise AssertionError("traffic generated despite a store checkpoint")

    monkeypatch.setattr(TrafficGenerator, "generate", no_traffic)
    key = study_key(config)
    (store_file,) = STAGES["store"].files
    partial_file = checkpoints.dir_for(key) / store_file
    inode = partial_file.stat().st_ino
    resumed = run_study(config, cache=tmp_path, checkpoints=checkpoints)
    assert resumed.telemetry.checkpoints == ["store"]
    # The entry's store file is the partial entry's, published by rename,
    # and the run leaves no partial entry and no staging directory.
    entry = StudyCache(tmp_path).entry_path(config)
    assert (entry / store_file).stat().st_ino == inode
    assert os.listdir(tmp_path / "study") == [key]
    monkeypatch.undo()
    plain = run_study(config)
    assert resumed.alerts == plain.alerts
    assert list(resumed.store) == list(plain.store)
    assert resumed.ground_truth == plain.ground_truth
    assert resumed.collection_stats == plain.collection_stats


# -- the partial entry of a killed run -------------------------------------------


@pytest.fixture(scope="module")
def killed_in_scan(tmp_path_factory):
    """A cache root left by a run killed in its scan."""
    config = _config(workers=1)
    root = tmp_path_factory.mktemp("killed_in_scan")

    def killed_scan(self, store):
        raise _Killed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DetectionEngine, "scan", killed_scan)
        with pytest.raises(_Killed):
            run_study(config, cache=root, manifest=False)
    return config, root, study_key(config)


def test_killed_scan_leaves_a_partial_entry(killed_in_scan, tmp_path):
    config, killed_root, key = killed_in_scan
    root = tmp_path / "root"
    shutil.copytree(killed_root, root)
    cache = StudyCache(root)
    assert sorted(os.listdir(cache.study_root)) == [f"{key}.partial"]
    assert sorted(os.listdir(cache.partial_path(key))) == [
        *STAGES["store"].files, "store.stage.json",
    ]
    assert not (root / "checkpoints").exists()
    assert cache.verify() == [] and cache.entries() == []
    assert not cache.has(config)
    (info,) = cache.stats()["partials"]
    assert (info["key"], info["stages"]) == (key, ["store"])

    report = cache.gc()
    assert not report.removed_anything
    assert cache.partials() == [cache.partial_path(key)]
    # Past the age bound an abandoned partial entry goes.
    then = time.time() - 3600
    for path in [cache.partial_path(key), *cache.partial_path(key).iterdir()]:
        os.utime(path, (then, then))
    report = cache.gc(max_age=timedelta(minutes=30))
    assert report.partials_removed == 1
    assert os.listdir(cache.study_root) == []


# -- resume integrity ------------------------------------------------------------


class _Killed(Exception):
    """Stands in for a process killed between the scan and the cache save."""


@pytest.fixture(scope="module")
def killed_run(tmp_path_factory):
    """A run killed after all three stages checkpointed, plus the result of
    the same configuration undisturbed."""
    config = _config(workers=1)
    root = tmp_path_factory.mktemp("killed")

    def killed_save(self, *args, **kwargs):
        raise _Killed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StudyCache, "save", killed_save)
        with pytest.raises(_Killed):
            run_study(config, cache=root, manifest=False)
    key = study_key(config)
    assert CheckpointStore(root=root).names(key) == ["alerts", "store"]
    return config, root, key, run_study(config)


def _damage(path: Path, how: str) -> None:
    data = bytearray(path.read_bytes())
    if how == "flip":
        data[len(data) // 2] ^= 0x01
    else:
        del data[len(data) // 2:]
    path.write_bytes(bytes(data))


STAGE_OF_FILE = {
    name: stage for stage, codec in STAGES.items() for name in codec.files
}


@pytest.mark.parametrize("how", ["flip", "truncate"])
@pytest.mark.parametrize("file_name", sorted(STAGE_OF_FILE))
class TestDamagedStageFile:
    def _copy(self, killed_run, tmp_path) -> Path:
        _, root, _, _ = killed_run
        copy = tmp_path / "root"
        shutil.copytree(root, copy)
        return copy

    def test_load_counts_failure_and_deletes(
        self, killed_run, tmp_path, file_name, how
    ):
        _, _, key, _ = killed_run
        root = self._copy(killed_run, tmp_path)
        store = CheckpointStore(root=root)
        _damage(store.dir_for(key) / file_name, how)
        stage = STAGE_OF_FILE[file_name]

        assert store.load(key, stage) is None
        assert store.telemetry.integrity_failures == 1
        assert not (store.dir_for(key) / file_name).exists()
        assert stage not in store.names(key)

    def test_resume_recomputes_the_stage(
        self, killed_run, tmp_path, file_name, how
    ):
        config, _, key, plain = killed_run
        root = self._copy(killed_run, tmp_path)
        checkpoints = CheckpointStore(root=root)
        _damage(checkpoints.dir_for(key) / file_name, how)
        stage = STAGE_OF_FILE[file_name]
        cache = StudyCache(root=root)

        resumed = run_study(config, cache=cache, checkpoints=checkpoints)
        assert checkpoints.telemetry.integrity_failures == 1
        assert resumed.telemetry.checkpoints == [
            name for name in STAGES if name != stage
        ]
        assert resumed.alerts == plain.alerts
        assert list(resumed.store) == list(plain.store)
        assert resumed.collection_stats == plain.collection_stats
        assert resumed.ground_truth == plain.ground_truth
        assert cache.partials() == [] and cache.staging_dirs() == []
        assert verify_entry(cache.entry_path(config), deep=True).ok


# -- publishing a partial entry --------------------------------------------------


@pytest.fixture()
def staged(tmp_path):
    """A checkpoint store holding both stages of a tiny study."""
    session = TcpSession(
        session_id=1, start=datetime(2022, 1, 1), src_ip=1, src_port=2,
        dst_ip=3, dst_port=80, payload=b"GET / HTTP/1.1",
    )
    store = SessionStore()
    store.append(session)
    values = dict(
        store=store,
        alerts=[
            Alert(
                session_id=1, timestamp=datetime(2022, 1, 1), sid=58722,
                cve_id="CVE-2021-44228", rule_published=datetime(2021, 12, 12),
                dst_ip=3, dst_port=80, src_ip=1,
            )
        ],
        collection_stats=CollectionStats(arrivals_routed=1),
        ground_truth={1: "CVE-2021-44228"},
    )
    config = _config()
    key = study_key(config)
    checkpoints = CheckpointStore(root=tmp_path)
    checkpoints.save(
        key, "store",
        encode_stage_store(store, values["collection_stats"], values["ground_truth"]),
    )
    checkpoints.save(key, "alerts", encode_stage_alerts(values["alerts"]))
    return config, key, checkpoints, values


def _inodes(directory: Path):
    return {name: (directory / name).stat().st_ino for name in STAGE_FILES}


class TestPublishFromPartial:
    def test_entry_files_are_the_checkpoint_files(self, staged, tmp_path):
        config, key, checkpoints, values = staged
        inodes = _inodes(checkpoints.dir_for(key))
        cache = StudyCache(root=tmp_path)
        entry = cache.save(config, **values)
        assert _inodes(entry) == inodes
        # The stage records are dropped: the entry holds what it always has.
        assert sorted(os.listdir(entry)) == sorted([*STAGE_FILES, "meta.json"])
        assert os.listdir(cache.study_root) == [key]
        report = verify_entry(entry, deep=True, expect_schema=CACHE_SCHEMA)
        assert report.ok, report.problems
        loaded = cache.load(config)
        assert loaded.alerts == values["alerts"]
        assert list(loaded.store) == list(values["store"])

    def test_changed_checkpoint_file_is_rewritten_not_linked(
        self, staged, tmp_path
    ):
        config, key, checkpoints, values = staged
        (store_file,) = STAGES["store"].files
        (alerts_file,) = STAGES["alerts"].files
        source = checkpoints.dir_for(key) / alerts_file
        _damage(source, "flip")
        damaged = source.read_bytes()
        kept = _inodes(checkpoints.dir_for(key))[store_file]
        cache = StudyCache(root=tmp_path)
        entry = cache.save(config, **values)
        assert (entry / alerts_file).read_bytes() != damaged
        assert (entry / store_file).stat().st_ino == kept
        assert verify_entry(entry, deep=True).ok
        assert cache.load(config).alerts == values["alerts"]


# -- surfaces --------------------------------------------------------------------


def test_cli_lists_stage_files(staged, capsys):
    """``repro cache stats`` lists a partial entry with all its stages and
    the bytes of its stage files and records."""
    _, key, checkpoints, _ = staged
    root = str(checkpoints.root)
    assert main(["cache", "stats", "--cache-dir", root]) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith(key[:16]))
    assert ",".join(sorted(STAGES)) in row
    assert main(["cache", "stats", "--cache-dir", root, "--json"]) == 0
    (info,) = json.loads(capsys.readouterr().out)["partials"]
    assert info["stages"] == sorted(STAGES)
    directory = checkpoints.dir_for(key)
    assert info["bytes"] == sum(
        path.stat().st_size for path in directory.iterdir()
    )
    assert sorted(STAGE_FILES) == sorted(
        path.name for path in directory.iterdir()
        if not path.name.endswith(".stage.json")
    )


def test_benchmark_trace_targets_resolve():
    """Every name the benchmark wraps (``perfbench/spans.py``) exists."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, path, *_ in spans.TARGETS:
        owner, attribute = spans._resolve_owner(module, path)
        assert callable(getattr(owner, attribute)), (module, path)
