"""The per-event artifact builders against their frozen oracles.

Table 5 and Figures 4, 6 and 7 read each CVE's timeline constants once
(grouped event timestamps, ``cve_id → P`` maps) and Figure 7's CDFs are
sampled without building the whole series.  ``tests/artifact_oracle.py``
keeps the per-event lookups they replaced; every builder must return what
its oracle returns, float for float, and the 18 artifacts of a real study
must render the same bytes either way.
"""

from __future__ import annotations

from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trends import events_relative_to_publication
from repro.core.exposure import exposure_cdf, unique_cve_bins
from repro.core.perevent import per_event_satisfaction
from repro.datasets.seed_cves import SEED_CVES
from repro.experiments import registry
from repro.experiments.registry import list_experiments, run_experiment
from repro.lifecycle.events import CveTimeline, LifecycleEvent
from repro.lifecycle.exploit_events import ExploitEvent
from repro.reporting.figures import downsample_cdf
from repro.util.stats import Ecdf
from repro.util.timeutil import utc

from tests import artifact_oracle as oracle

T0 = utc(2022, 1, 1)
_CVES = ("CVE-1", "CVE-2", "CVE-3", "CVE-4")

#: Whole days (so ties with lifecycle times and bin edges are common) or
#: any second of the day (so day offsets are non-trivial floats).
_moments = st.builds(
    lambda day, second: T0 + timedelta(days=day, seconds=second),
    st.integers(-300, 600),
    st.just(0) | st.integers(0, 86_399),
)


@st.composite
def _worlds(draw):
    """(events, timelines): CVEs missing from ``timelines``, timelines with
    unknown events (None or absent), and events that are unsorted,
    duplicated, or exactly at a lifecycle time."""
    timelines = {}
    for cve_id in draw(st.sets(st.sampled_from(_CVES))):
        times = {}
        for event in LifecycleEvent:
            when = draw(st.none() | _moments)
            if when is not None or draw(st.booleans()):
                times[event] = when
        timelines[cve_id] = CveTimeline(cve_id=cve_id, times=times)
    known = sorted(
        {when for timeline in timelines.values()
         for when in timeline.times.values() if when is not None}
    )
    timestamps = _moments | st.sampled_from(known) if known else _moments
    drawn = draw(st.lists(
        st.tuples(st.sampled_from(_CVES), timestamps, st.booleans()),
        max_size=60,
    ))
    drawn += draw(st.lists(st.sampled_from(drawn), max_size=10)) if drawn else []
    events = [
        ExploitEvent(
            cve_id=cve_id, timestamp=timestamp, sid=1, session_id=index,
            src_ip=1, dst_ip=2, dst_port=80, mitigated=mitigated,
        )
        for index, (cve_id, timestamp, mitigated) in enumerate(drawn)
    ]
    return events, timelines


def _ranges():
    """(bin_days, lo_days, hi_days) narrower and wider than the events."""
    return st.tuples(
        st.sampled_from([1.0, 2.5, 5.0, 7.0, 30.0]),
        st.integers(-400, 0).map(float),
        st.integers(1, 700).map(float),
    )


def _cdf_values(cdf: Ecdf):
    return (cdf.xs.dtype, cdf.xs.tolist(), cdf.ps.dtype, cdf.ps.tolist())


@settings(max_examples=300, deadline=None)
@given(_worlds())
def test_per_event_satisfaction_matches_oracle(world):
    events, timelines = world
    assert per_event_satisfaction(iter(events), timelines) == \
        oracle.per_event_satisfaction(events, timelines)


@settings(max_examples=300, deadline=None)
@given(_worlds())
def test_exposure_cdf_matches_oracle(world):
    events, timelines = world
    got = exposure_cdf(iter(events), timelines)
    expected = oracle.exposure_cdf(events, timelines)
    assert [_cdf_values(cdf) for cdf in got] == \
        [_cdf_values(cdf) for cdf in expected]


@settings(max_examples=300, deadline=None)
@given(_worlds(), _ranges())
def test_unique_cve_bins_matches_oracle(world, ranges):
    events, timelines = world
    bin_days, lo_days, hi_days = ranges
    kwargs = dict(bin_days=bin_days, lo_days=lo_days, hi_days=hi_days)
    assert unique_cve_bins(iter(events), timelines, **kwargs) == \
        oracle.unique_cve_bins(events, timelines, **kwargs)


@settings(max_examples=300, deadline=None)
@given(_worlds(), _ranges())
def test_events_relative_to_publication_matches_oracle(world, ranges):
    events, timelines = world
    bin_days, lo_days, hi_days = ranges
    kwargs = dict(bin_days=bin_days, lo_days=lo_days, hi_days=hi_days)
    assert events_relative_to_publication(iter(events), timelines, **kwargs) == \
        oracle.events_relative_to_publication(events, timelines, **kwargs)


def _outcome(function, cdf, points):
    try:
        series = function(cdf, points=points)
    except Exception as error:  # noqa: BLE001 - the exception is the outcome
        return type(error)
    return series.name, [(repr(x), repr(p)) for x, p in series.points]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 30))
def test_downsample_cdf_matches_oracle(data, points):
    size = data.draw(
        st.sampled_from([0, 1, points - 1, points, points + 1, 3 * points + 2])
        .filter(lambda n: n >= 0)
    )
    values = data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.5]),
        min_size=size, max_size=size,
    ))
    cdf = Ecdf.from_values(values)
    assert _outcome(downsample_cdf, cdf, points) == \
        _outcome(oracle.downsample_cdf, cdf, points)


def test_seed_cve_ids_are_unique():
    # datasets/kev.py tests KEV overlap rows for membership by cve_id.
    ids = [row.cve_id for row in SEED_CVES]
    assert len(set(ids)) == len(ids)


def test_study_artifacts_match_oracle_build(study, monkeypatch):
    rebuilt = [run_experiment(name, study) for name in list_experiments()]
    # The registry resolves its builders as module globals on every call.
    for name in ("per_event_satisfaction", "exposure_cdf", "unique_cve_bins",
                 "events_relative_to_publication", "downsample_cdf"):
        monkeypatch.setattr(registry, name, getattr(oracle, name))
    artifacts = [run_experiment(name, study) for name in list_experiments()]
    assert len(rebuilt) == 18
    for expected, got in zip(artifacts, rebuilt):
        assert got.experiment_id == expected.experiment_id
        assert got.measured == expected.measured, got.experiment_id
        assert got.text == expected.text, got.experiment_id
    fig7 = rebuilt[list_experiments().index("fig7")]
    assert fig7.measured["unmitigated half-life (days)"] == \
        oracle.unmitigated_half_life_days(study.kept_events, study.timelines)
