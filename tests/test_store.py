"""Columnar store: packing, shard round-trip, and kernel equivalence.

The load-bearing guarantee is **value identity** with the dataclass path:
every kernel in :mod:`repro.store.kernels` must return exactly what the
corresponding :func:`derive_analysis`-consuming code returns — same
floats, same orders, same dataclasses — for the shared study fixture, for
hand-built edge-case studies (empty, single CVE), and after a shard
round-trip through ``mmap``.
"""

from __future__ import annotations

import itertools
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.kev_compare import compare_with_kev
from repro.analysis.vendors import category_summaries
from repro.core.skill import compute_skill, mean_skill, skill_table
from repro.core.windows import (
    delta_series,
    narrow_violations,
    shifted_satisfaction,
    shifted_satisfaction_profile,
    window_cdf,
)
from repro.lifecycle.events import A, D, F, LifecycleEvent, P, V, X
from repro.store import (
    ColumnarStudy,
    MISSING,
    ShardStore,
    from_micros,
    kernels,
    load_shard,
    to_micros,
    write_shard,
)
from repro.store.columnar import COLUMN_DTYPES
from repro.util.stats import Ecdf


@pytest.fixture(scope="module")
def packed(study):
    return ColumnarStudy.from_study(study)


@pytest.fixture(scope="module")
def mapped(study, packed, tmp_path_factory):
    """The same study after a shard round-trip (mmap-backed columns)."""
    path = write_shard(packed, tmp_path_factory.mktemp("shards") / "s.shard")
    return load_shard(path)


def _ecdf_equal(left: Ecdf, right: Ecdf) -> bool:
    return (
        left.xs.tolist() == right.xs.tolist()
        and left.ps.tolist() == right.ps.tolist()
    )


# ---------------------------------------------------------------------------
# Timestamp conversion
# ---------------------------------------------------------------------------


class TestMicros:
    def test_round_trip(self):
        when = datetime(2021, 12, 10, 3, 4, 5, 678901)
        assert from_micros(to_micros(when)) == when

    def test_none_is_missing(self):
        assert to_micros(None) == int(MISSING)
        assert from_micros(int(MISSING)) is None

    @given(
        st.datetimes(
            min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1)
        )
    )
    def test_round_trip_property(self, when):
        assert from_micros(to_micros(when)) == when

    @given(
        st.datetimes(
            min_value=datetime(2019, 1, 1), max_value=datetime(2024, 1, 1)
        ),
        st.datetimes(
            min_value=datetime(2019, 1, 1), max_value=datetime(2024, 1, 1)
        ),
    )
    def test_delta_days_matches_to_days(self, a, b):
        """(µs delta / 1e6) / 86400 is bit-identical to to_days."""
        from repro.util.timeutil import days_column, to_days

        delta_us = np.asarray([to_micros(a) - to_micros(b)], dtype=np.int64)
        ours = float(days_column(delta_us)[0])
        assert ours == to_days(a - b)


# ---------------------------------------------------------------------------
# Packing and the shard format
# ---------------------------------------------------------------------------


class TestPacking:
    def test_counts_match_study(self, study, packed):
        assert packed.n_timelines == len(study.timelines)
        assert packed.n_alerts == len(study.alerts)
        assert packed.n_events == len(study.kept_events)
        assert packed.n_kev == len(study.bundle.kev)
        counts = packed.meta["counts"]
        assert counts["kept_cves"] == len(study.kept_cves)
        assert counts["sessions"] == len(study.store)

    def test_etag_is_study_key(self, study, packed):
        from repro.cache import study_key

        assert packed.etag == study_key(study.config)

    def test_all_columns_present_and_typed(self, packed):
        assert set(packed.columns) == set(COLUMN_DTYPES)
        for name, array in packed.columns.items():
            assert array.dtype == np.dtype(COLUMN_DTYPES[name]), name

    def test_timeline_rows_in_dict_order(self, study, packed):
        ids = [packed.cves[i] for i in packed.col("timeline_cve")]
        assert ids == list(study.timelines)
        for row, timeline in enumerate(study.timelines.values()):
            for event in LifecycleEvent:
                assert packed.timeline_times(event.value)[row] == to_micros(
                    timeline.time(event)
                )

    def test_events_are_kept_events_in_order(self, study, packed):
        kept = study.kept_events
        times = [to_micros(event.timestamp) for event in kept]
        assert packed.col("event_t").tolist() == times
        ids = [packed.cves[i] for i in packed.col("event_cve")]
        assert ids == [event.cve_id for event in kept]
        assert packed.col("event_mitigated").tolist() == [
            int(event.mitigated) for event in kept
        ]


class TestShardRoundTrip:
    def test_round_trip_equal(self, packed, mapped):
        assert mapped.meta == packed.meta
        assert mapped.cves == packed.cves
        assert mapped.categories == packed.categories
        for name in COLUMN_DTYPES:
            assert mapped.col(name).tolist() == packed.col(name).tolist()

    def test_mapped_columns_are_zero_copy_views(self, mapped):
        """mmap-backed arrays are read-only buffer views, not copies."""
        column = mapped.col("timeline_t_A")
        assert not column.flags.writeable
        assert not column.flags.owndata
        assert mapped._backing is not None

    def test_store_round_trip_and_eviction(self, packed, tmp_path):
        store = ShardStore(root=tmp_path)
        path = store.save(packed)
        assert store.has(packed.etag)
        loaded = store.load(packed.etag)
        assert loaded is not None and loaded.etag == packed.etag
        assert store.load("no-such-etag") is None
        # A corrupt shard is evicted, not served.
        path.write_bytes(b"garbage" * 10)
        assert store.load(packed.etag) is None
        assert not path.exists()

    def test_truncated_shard_rejected(self, packed, tmp_path):
        path = write_shard(packed, tmp_path / "t.shard")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            load_shard(path)


# ---------------------------------------------------------------------------
# Kernel equivalence against the dataclass path (the acceptance criterion)
# ---------------------------------------------------------------------------

EVENT_PAIRS = [
    (later, earlier)
    for later, earlier in itertools.permutations((V, F, D, P, X, A), 2)
]


class TestKernelEquivalence:
    @pytest.fixture(params=["packed", "mapped"])
    def columnar(self, request, packed, mapped):
        """Each equivalence test runs on the in-memory pack AND the
        mmap-reloaded shard — the serving path is the latter."""
        return packed if request.param == "packed" else mapped

    def test_delta_days_all_pairs(self, study, columnar):
        for later, earlier in EVENT_PAIRS:
            ours = kernels.delta_days(columnar, later, earlier).tolist()
            reference = delta_series(study.timelines.values(), later, earlier)
            assert ours == reference, (later, earlier)

    def test_window_cdfs_all_pairs(self, study, columnar):
        for later, earlier in EVENT_PAIRS:
            ours = kernels.window_cdf(columnar, later, earlier)
            reference = window_cdf(study.timelines.values(), later, earlier)
            assert _ecdf_equal(ours, reference), (later, earlier)

    def test_narrow_violations(self, study, columnar):
        for within in (1.0, 30.0, 365.0):
            assert kernels.narrow_violations(
                columnar, A, D, within_days=within
            ) == narrow_violations(
                study.timelines.values(), A, D, within_days=within
            )

    def test_skill_rollup_identical_reports(self, study, columnar):
        ours = kernels.skill_rollup(columnar)
        reference = compute_skill(study.timelines.values())
        assert ours == reference
        assert skill_table(ours) == skill_table(reference)
        assert mean_skill(ours) == mean_skill(reference)

    def test_a_before_p_rate(self, study, columnar):
        from repro.analysis.streaming import StudySnapshot

        reference = StudySnapshot(
            sessions_seen=0,
            alerts=[],
            events=[],
            events_per_cve={},
            rca_decisions=[],
            timelines=study.timelines,
            stats=None,
        ).a_before_p_rate
        assert kernels.a_before_p_rate(columnar) == reference

    def test_vendor_rollup_identical_summaries(self, study, columnar):
        assert kernels.vendor_rollup(columnar) == category_summaries(
            study.timelines
        )

    def test_first_attacks(self, study, columnar):
        assert kernels.first_attacks(columnar) == \
            study.kept_events.first_attacks()

    def test_kev_rollup_identical(self, study, columnar):
        ours = kernels.kev_rollup(columnar)
        reference = compare_with_kev(
            study.bundle, study.kept_events.first_attacks()
        )
        assert ours.kev_in_window == reference.kev_in_window
        assert ours.overlap_cves == reference.overlap_cves
        assert ours.dscope_only_cves == reference.dscope_only_cves
        assert _ecdf_equal(ours.kev_a_minus_p, reference.kev_a_minus_p)
        assert _ecdf_equal(ours.first_seen_delta, reference.first_seen_delta)
        assert ours.kev_pre_publication_rate == reference.kev_pre_publication_rate
        assert ours.dscope_first_rate == reference.dscope_first_rate

    def test_kept_and_dropped_cves(self, study, columnar):
        assert kernels.kept_cves(columnar) == study.kept_cves
        assert kernels.dropped_cves(columnar) == study.dropped_cves


# ---------------------------------------------------------------------------
# Edge cases: empty and tiny synthetic studies
# ---------------------------------------------------------------------------


def _synthetic_columnar(timelines, bundle):
    """Pack hand-built timelines with no alerts/events/RCA rows."""
    return ColumnarStudy._pack(
        etag="test-etag",
        code="test-code",
        config={},
        timelines=timelines,
        alerts=[],
        kept_events=[],
        rca_decisions=[],
        bundle=bundle,
        sessions=0,
        events_total=0,
    )


class TestEdgeCases:
    def test_empty_study(self, bundle):
        columnar = _synthetic_columnar({}, bundle)
        assert columnar.n_timelines == 0
        assert kernels.delta_days(columnar, A, D).size == 0
        assert kernels.a_before_p_rate(columnar) is None
        assert kernels.mitigated_share(columnar) is None
        assert kernels.kept_cves(columnar) == []
        for report in kernels.skill_rollup(columnar):
            assert report.evaluated == 0
        comparison = kernels.kev_rollup(columnar)
        assert comparison.overlap_cves == []
        assert comparison.dscope_only_cves == []
        # An empty study still sees the full KEV catalog (Figure 10).
        reference = compare_with_kev(bundle, {})
        assert _ecdf_equal(comparison.kev_a_minus_p, reference.kev_a_minus_p)

    def test_single_cve_study(self, bundle):
        from repro.lifecycle.events import CveTimeline

        cve_id = bundle.studied[0].cve_id
        base = datetime(2021, 6, 1)
        timeline = CveTimeline(cve_id=cve_id)
        timeline.set(V, base)
        timeline.set(P, base + timedelta(days=3))
        timeline.set(A, base + timedelta(days=1, hours=7))
        columnar = _synthetic_columnar({cve_id: timeline}, bundle)
        reference_timelines = {cve_id: timeline}
        for later, earlier in EVENT_PAIRS:
            assert kernels.delta_days(columnar, later, earlier).tolist() == \
                delta_series(reference_timelines.values(), later, earlier)
        assert kernels.skill_rollup(columnar) == compute_skill(
            reference_timelines.values()
        )
        assert kernels.a_before_p_rate(columnar) == 1.0
        assert kernels.vendor_rollup(columnar) == category_summaries(
            reference_timelines
        )

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_property_random_timelines(self, bundle, data):
        """Random partial timelines: kernels equal the dataclass path."""
        from repro.lifecycle.events import CveTimeline

        stamps = st.one_of(
            st.none(),
            st.datetimes(
                min_value=datetime(2020, 1, 1),
                max_value=datetime(2023, 1, 1),
            ),
        )
        ids = [seed.cve_id for seed in bundle.studied]
        chosen = data.draw(
            st.lists(st.sampled_from(ids), unique=True, max_size=6)
        )
        timelines = {}
        for cve_id in chosen:
            timeline = CveTimeline(cve_id=cve_id)
            for event in LifecycleEvent:
                timeline.set(event, data.draw(stamps))
            timelines[cve_id] = timeline
        columnar = _synthetic_columnar(timelines, bundle)
        for later, earlier in ((A, D), (F, P), (X, A)):
            assert kernels.delta_days(columnar, later, earlier).tolist() == \
                delta_series(timelines.values(), later, earlier)
        assert kernels.skill_rollup(columnar) == compute_skill(
            timelines.values()
        )
        assert kernels.vendor_rollup(columnar) == category_summaries(timelines)


# ---------------------------------------------------------------------------
# Ecdf.at_many / shifted_satisfaction_profile satellites
# ---------------------------------------------------------------------------


class TestAtMany:
    def test_matches_scalar_at(self):
        cdf = Ecdf.from_values([-3.0, -1.0, 0.0, 2.0, 2.0, 7.5])
        queries = [-10.0, -3.0, -1.5, 0.0, 2.0, 7.5, 100.0]
        assert cdf.at_many(queries).tolist() == [cdf.at(x) for x in queries]

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            Ecdf.from_values([]).at_many([0.0])

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50
        ),
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20
        ),
    )
    def test_property_matches_scalar(self, sample, queries):
        cdf = Ecdf.from_values(sample)
        assert cdf.at_many(queries).tolist() == [cdf.at(x) for x in queries]

    def test_profile_matches_scalar_shifts(self):
        cdf = Ecdf.from_values([-5.0, -1.0, 3.0, 10.0])
        shifts = (0.0, 1.0, 5.0, 30.0)
        profile = shifted_satisfaction_profile(cdf, shifts)
        assert profile == {
            shift: shifted_satisfaction(cdf, shift) for shift in shifts
        }
