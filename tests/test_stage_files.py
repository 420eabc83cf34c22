"""Stage checkpoints are the cache entry's files.

``run_study`` writes each heavy stage (arrivals, store, alerts) once, in the
cache-entry format, as a crash checkpoint; the study cache then links those
files into its entry.  These tests pin down:

* the record codecs: ``isoformat``/``fromisoformat`` timestamps give the
  same strings and values as the ``strftime``/``strptime`` codec they
  replaced, so entries written by either load to equal records;
* each record is encoded exactly once per cold cached run;
* a damaged stage file is detected on resume, deleted and recomputed;
* publishing links the stage files, falling back to copies;
* the benchmark's tracing targets still resolve.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
import os
import shutil
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.study as study_module
from repro.analysis.pipeline import StudyConfig, run_study
from repro.cache import (
    CACHE_SCHEMA,
    CheckpointStore,
    StudyCache,
    code_fingerprint,
    semantic_config,
    study_key,
    verify_entry,
)
from repro.cache.checkpoint import (
    encode_stage_alerts,
    encode_stage_arrivals,
    encode_stage_store,
)
from repro.cache.integrity import file_entry
from repro.cache.study import (
    STAGES,
    _decode_alert,
    _decode_arrival,
    _encode_alert,
    _encode_arrival,
)
from repro.cli import main
from repro.net.pcapstore import SessionStore, decode_session, encode_session
from repro.net.session import TcpSession
from repro.nids.parallel import _rows_from_json, _rows_to_json
from repro.nids.ruleset import Alert
from repro.telescope.collector import CollectionStats
from repro.traffic.arrivals import ScanArrival

#: The timestamp format of the codec ``isoformat`` replaced.
OLD_FORMAT = "%Y-%m-%dT%H:%M:%S.%f"

REPO = Path(__file__).resolve().parents[1]


def _config(**overrides) -> StudyConfig:
    defaults = dict(
        seed=7, volume_scale=0.01, background_per_exploit=0.3,
        background_nvd_count=500,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


# -- the timestamp codec -----------------------------------------------------

# Years from 1000: below that glibc's ``%Y`` drops the zero padding that
# ``isoformat`` keeps (the package's timestamps are all 20xx).
_naive = st.datetimes(
    min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31, 23, 59)
)
#: Whole-second times are drawn on purpose: plain ``isoformat()`` would
#: drop their ``.000000`` fraction, ``timespec="microseconds"`` keeps it.
times = st.one_of(_naive, _naive.map(lambda value: value.replace(microsecond=0)))


def _old_session(session: TcpSession) -> dict:
    record = encode_session(session)
    record["start"] = session.start.strftime(OLD_FORMAT)
    record["end"] = session.end.strftime(OLD_FORMAT) if session.end else None
    return record


def _old_alert(alert: Alert) -> dict:
    record = _encode_alert(alert)
    record["timestamp"] = alert.timestamp.strftime(OLD_FORMAT)
    record["rule_published"] = alert.rule_published.strftime(OLD_FORMAT)
    return record


def _old_arrival(arrival: ScanArrival) -> dict:
    record = _encode_arrival(arrival)
    record["timestamp"] = arrival.timestamp.strftime(OLD_FORMAT)
    return record


@st.composite
def sessions(draw):
    start, end = sorted([draw(times), draw(times)])
    return TcpSession(
        session_id=draw(st.integers(0, 2**40)),
        start=start,
        end=draw(st.one_of(st.none(), st.just(end))),
        src_ip=draw(st.integers(0, 2**32 - 1)),
        src_port=draw(st.integers(0, 65535)),
        dst_ip=draw(st.integers(0, 2**32 - 1)),
        dst_port=draw(st.integers(0, 65535)),
        payload=draw(st.binary(max_size=64)),
    )


@st.composite
def alerts(draw):
    return Alert(
        session_id=draw(st.integers(0, 2**40)),
        timestamp=draw(times),
        sid=draw(st.integers(1, 10**7)),
        cve_id=draw(st.sampled_from(["CVE-2021-44228", "CVE-2022-1388"])),
        rule_published=draw(times),
        dst_ip=draw(st.integers(0, 2**32 - 1)),
        dst_port=draw(st.integers(0, 65535)),
        src_ip=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def arrivals(draw):
    return ScanArrival(
        timestamp=draw(times),
        src_ip=draw(st.integers(0, 2**32 - 1)),
        src_port=draw(st.integers(0, 65535)),
        dst_port=draw(st.integers(0, 65535)),
        payload=draw(st.binary(max_size=64)),
        truth_cve=draw(st.one_of(st.none(), st.just("CVE-2021-44228"))),
        variant_sid=draw(st.one_of(st.none(), st.integers(1, 10**7))),
    )


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

    @settings(max_examples=200, deadline=None)
    @given(alerts())
    def test_alert_records(self, alert):
        assert _encode_alert(alert) == _old_alert(alert)
        assert _decode_alert(_old_alert(alert)) == alert

    @settings(max_examples=200, deadline=None)
    @given(arrivals())
    def test_arrival_records(self, arrival):
        assert _encode_arrival(arrival) == _old_arrival(arrival)
        assert _decode_arrival(_old_arrival(arrival)) == arrival

    @settings(max_examples=200, deadline=None)
    @given(st.lists(alerts(), max_size=4))
    def test_chunk_rows(self, batch):
        rows = [
            (a.session_id, a.timestamp, a.sid, a.cve_id, a.rule_published,
             a.dst_ip, a.dst_port, a.src_ip)
            for a in batch
        ]
        old = [
            [row[0], row[1].strftime(OLD_FORMAT), row[2], row[3],
             row[4].strftime(OLD_FORMAT), row[5], row[6], row[7]]
            for row in rows
        ]
        assert _rows_to_json(rows) == old
        assert _rows_from_json(old) == rows

    def test_entry_written_by_the_strftime_codec_loads(self, tmp_path):
        """An entry whose files the old codec wrote loads to equal records."""
        session_list = [
            TcpSession(
                session_id=1, start=datetime(2022, 1, 1), src_ip=1,
                src_port=2, dst_ip=3, dst_port=80, payload=b"GET / HTTP/1.1",
                end=datetime(2022, 1, 1, 0, 0, 1, 250),
            ),
            TcpSession(
                session_id=2, start=datetime(2022, 1, 2, 3, 4, 5, 678901),
                src_ip=1, src_port=2, dst_ip=3, dst_port=443,
            ),
        ]
        alert_list = [
            Alert(
                session_id=1, timestamp=datetime(2022, 1, 1), sid=58722,
                cve_id="CVE-2021-44228",
                rule_published=datetime(2021, 12, 12, 0, 0, 0, 1),
                dst_ip=3, dst_port=80, src_ip=1,
            )
        ]
        arrival_list = [
            ScanArrival(
                timestamp=datetime(2022, 1, 1, 12), src_ip=1, src_port=2,
                dst_port=80, payload=b"probe", truth_cve=None, variant_sid=None,
            )
        ]
        stats = CollectionStats(arrivals_routed=1, receiving_ips={3})
        config = _config()
        cache = StudyCache(root=tmp_path)
        entry = cache.entry_path(config)
        entry.mkdir(parents=True)
        streams = {
            "arrivals.jsonl.gz": map(_old_arrival, arrival_list),
            "store.jsonl.gz": map(_old_session, session_list),
            "alerts.jsonl.gz": map(_old_alert, alert_list),
        }
        for name, records in streams.items():
            with gzip.open(entry / name, "wt", encoding="ascii") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        with gzip.open(entry / "collection.json.gz", "wt", encoding="ascii") as handle:
            json.dump(
                {"stats": study_module._encode_stats(stats),
                 "ground_truth": {"1": "CVE-2021-44228", "2": None}},
                handle,
            )
        meta = {
            "schema": CACHE_SCHEMA,
            "key": entry.name,
            "code": code_fingerprint(),
            "config": {k: str(v) for k, v in semantic_config(config).items()},
            "records": {"arrivals": 1, "sessions": 2, "alerts": 1},
            "files": {
                name: file_entry(entry / name)
                for codec in STAGES.values()
                for name in codec.files
            },
        }
        (entry / "meta.json").write_text(json.dumps(meta), encoding="utf-8")

        loaded = cache.load(config)
        assert loaded is not None
        assert list(loaded.store) == session_list
        assert loaded.alerts == alert_list
        assert loaded.load_arrivals() == arrival_list
        assert loaded.collection_stats == stats
        assert loaded.ground_truth == {1: "CVE-2021-44228", 2: None}


# -- one encoding per record ---------------------------------------------------


def test_cold_cached_run_encodes_each_record_once(tmp_path, monkeypatch):
    calls = {"session": 0, "alert": 0, "arrival": 0}

    def counting(kind, encode):
        def wrapper(record):
            calls[kind] += 1
            return encode(record)

        return wrapper

    monkeypatch.setattr(
        study_module, "encode_session", counting("session", encode_session)
    )
    monkeypatch.setattr(
        study_module, "_encode_alert", counting("alert", _encode_alert)
    )
    monkeypatch.setattr(
        study_module, "_encode_arrival", counting("arrival", _encode_arrival)
    )
    config = _config(workers=1)
    cache = StudyCache(root=tmp_path)
    result = run_study(config, cache=cache)  # default: checkpoints on
    assert not result.from_cache
    meta = cache.load(config).meta
    assert calls["session"] == len(result.store) > 0
    assert calls["alert"] == len(result.alerts) > 0
    assert calls["arrival"] == meta["records"]["arrivals"] > 0


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
    assert CheckpointStore(root=root).names(key) == ["alerts", "arrivals", "store"]
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
        assert checkpoints.keys() == []
        assert verify_entry(cache.entry_path(config), deep=True).ok


# -- link-on-publish -------------------------------------------------------------


@pytest.fixture()
def staged(tmp_path):
    """A checkpoint store holding all three stages of a tiny study."""
    session = TcpSession(
        session_id=1, start=datetime(2022, 1, 1), src_ip=1, src_port=2,
        dst_ip=3, dst_port=80, payload=b"GET / HTTP/1.1",
    )
    store = SessionStore()
    store.append(session)
    values = dict(
        arrivals=[
            ScanArrival(
                timestamp=datetime(2022, 1, 1), src_ip=1, src_port=2,
                dst_port=80, payload=b"probe",
            )
        ],
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
    checkpoints.save(key, "arrivals", encode_stage_arrivals(values["arrivals"]))
    checkpoints.save(
        key, "store",
        encode_stage_store(store, values["collection_stats"], values["ground_truth"]),
    )
    checkpoints.save(key, "alerts", encode_stage_alerts(values["alerts"]))
    return config, key, checkpoints, values


def _data_files():
    return [name for codec in STAGES.values() for name in codec.files]


class TestLinkOnPublish:
    def test_entry_files_are_the_checkpoint_files(self, staged, tmp_path):
        config, key, checkpoints, values = staged
        cache = StudyCache(root=tmp_path)
        entry = cache.save(config, checkpoints=checkpoints, **values)
        for name in _data_files():
            assert os.path.samefile(entry / name, checkpoints.dir_for(key) / name)
        assert verify_entry(entry, deep=True).ok
        loaded = cache.load(config)
        assert loaded.alerts == values["alerts"]
        assert list(loaded.store) == list(values["store"])

    def test_copy_fallback_when_link_fails(self, staged, tmp_path, monkeypatch):
        config, key, checkpoints, values = staged

        def no_link(*args, **kwargs):
            raise OSError("cross-device link")

        monkeypatch.setattr(os, "link", no_link)
        cache = StudyCache(root=tmp_path)
        entry = cache.save(config, checkpoints=checkpoints, **values)
        report = verify_entry(entry, deep=True, expect_schema=CACHE_SCHEMA)
        assert report.ok, report.problems
        for name in _data_files():
            source = checkpoints.dir_for(key) / name
            assert not os.path.samefile(entry / name, source)
            assert (entry / name).read_bytes() == source.read_bytes()
        assert cache.load(config).alerts == values["alerts"]

    def test_changed_checkpoint_file_is_rewritten_not_linked(
        self, staged, tmp_path
    ):
        config, key, checkpoints, values = staged
        source = checkpoints.dir_for(key) / "alerts.jsonl.gz"
        _damage(source, "flip")
        damaged = source.read_bytes()
        cache = StudyCache(root=tmp_path)
        entry = cache.save(config, checkpoints=checkpoints, **values)
        assert not os.path.samefile(entry / "alerts.jsonl.gz", source)
        assert source.read_bytes() == damaged  # never written through
        assert verify_entry(entry, deep=True).ok
        assert cache.load(config).alerts == values["alerts"]


# -- surfaces --------------------------------------------------------------------


def test_cli_lists_stage_files(staged, capsys):
    _, key, checkpoints, _ = staged
    checkpoints.save(key, "chunk-x-00000", {"rows": []})
    root = str(checkpoints.root)
    assert main(["cache", "checkpoints", "--cache-dir", root]) == 0
    out = capsys.readouterr().out
    for name in _data_files():
        assert name in out
    assert main(["cache", "checkpoints", "--cache-dir", root, "--json"]) == 0
    (info,) = json.loads(capsys.readouterr().out)["keys"]
    assert info["stages"] == sorted(STAGES)
    assert sorted(info["stage_files"]) == sorted(_data_files())
    assert info["blobs"] == 1 and info["chunks"] == 1


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
