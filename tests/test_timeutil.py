"""Unit tests for repro.util.timeutil."""

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.timeutil import (
    TimeWindow,
    days,
    days_column,
    format_offset,
    hours,
    parse_offset,
    to_days,
    to_hours,
    utc,
)


class TestParseOffset:
    def test_days_and_hours(self):
        assert parse_offset("90d 12h") == timedelta(days=90, hours=12)

    def test_days_only(self):
        assert parse_offset("47d") == timedelta(days=47)

    def test_hours_only(self):
        assert parse_offset("13h") == timedelta(hours=13)

    def test_negative_applies_to_whole_offset(self):
        assert parse_offset("-121d 10h") == -timedelta(days=121, hours=10)

    def test_negative_zero_days(self):
        assert parse_offset("-0d 7h") == -timedelta(hours=7)

    def test_minutes(self):
        assert parse_offset("1d 2h 30m") == timedelta(days=1, hours=2, minutes=30)

    @pytest.mark.parametrize("bad", ["", "abc", "12", "d h", "--1d"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_offset(bad)


class TestFormatOffset:
    def test_roundtrip_positive(self):
        assert format_offset(parse_offset("90d 12h")) == "90d 12h"

    def test_roundtrip_negative(self):
        assert format_offset(parse_offset("-0d 7h")) == "-0d 7h"

    def test_zero(self):
        assert format_offset(timedelta(0)) == "0d 0h"

    def test_minutes_not_dropped(self):
        # Regression: "0d 0h 30m" used to format back as "0d 0h".
        assert format_offset(timedelta(minutes=30)) == "0d 0h 30m"
        assert format_offset(timedelta(days=1, hours=2, minutes=5)) == "1d 2h 5m"
        assert format_offset(-timedelta(minutes=45)) == "-0d 0h 45m"

    def test_whole_hours_stay_compact(self):
        assert format_offset(timedelta(hours=26)) == "1d 2h"

    @given(
        days=st.integers(min_value=0, max_value=1000),
        hrs=st.integers(min_value=0, max_value=23),
        mins=st.integers(min_value=0, max_value=59),
        negative=st.booleans(),
    )
    def test_format_parse_roundtrip(self, days, hrs, mins, negative):
        delta = timedelta(days=days, hours=hrs, minutes=mins)
        if negative:
            delta = -delta
        assert parse_offset(format_offset(delta)) == delta

    @given(
        days=st.integers(min_value=0, max_value=1000),
        hrs=st.integers(min_value=0, max_value=23),
        mins=st.integers(min_value=0, max_value=59),
    )
    def test_parse_format_parse_roundtrip(self, days, hrs, mins):
        text = f"{days}d {hrs}h {mins}m"
        once = parse_offset(text)
        assert parse_offset(format_offset(once)) == once


class TestConversions:
    def test_to_days(self):
        assert to_days(timedelta(days=2, hours=12)) == 2.5

    def test_to_hours(self):
        assert to_hours(timedelta(hours=3, minutes=30)) == 3.5

    def test_shorthands(self):
        assert days(2) == timedelta(days=2)
        assert hours(5) == timedelta(hours=5)


class TestTimeWindow:
    def setup_method(self):
        self.window = TimeWindow(utc(2021, 3, 1), utc(2023, 3, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeWindow(utc(2021, 3, 1), utc(2021, 3, 1))

    def test_contains_half_open(self):
        assert self.window.contains(utc(2021, 3, 1))
        assert not self.window.contains(utc(2023, 3, 1))

    def test_clamp_below(self):
        assert self.window.clamp(utc(2020, 1, 1)) == self.window.start

    def test_clamp_above_is_inside(self):
        clamped = self.window.clamp(utc(2024, 1, 1))
        assert self.window.contains(clamped)

    def test_clamp_inside_unchanged(self):
        inside = utc(2022, 6, 1)
        assert self.window.clamp(inside) == inside

    def test_fraction_endpoints(self):
        assert self.window.fraction(self.window.start) == 0.0
        assert self.window.fraction(self.window.end) == 1.0

    def test_elapsed_negative_before_start(self):
        assert self.window.elapsed(utc(2021, 2, 28)) < timedelta(0)

    def test_iter_days_count(self):
        window = TimeWindow(utc(2021, 3, 1), utc(2021, 3, 8))
        assert len(list(window.iter_days())) == 7

    def test_intersect_overlapping(self):
        other = TimeWindow(utc(2022, 1, 1), utc(2024, 1, 1))
        overlap = self.window.intersect(other)
        assert overlap.start == utc(2022, 1, 1)
        assert overlap.end == utc(2023, 3, 1)

    def test_intersect_disjoint_is_none(self):
        other = TimeWindow(utc(2024, 1, 1), utc(2025, 1, 1))
        assert self.window.intersect(other) is None


class TestDaysColumn:
    """The one µs -> days converter equals ``to_days`` of each delta."""

    EDGES = [
        0, 1, -1, 999_999, -999_999, 1_000_000, 86_400_000_000,
        -86_400_000_001, 2**52 - 1, -(2**52), 2**52 + 12_345, 3 * 2**50 + 7,
    ]

    @staticmethod
    def _check(deltas):
        column = np.array(deltas, np.int64)
        got = days_column(column).tolist()
        expected = [to_days(timedelta(microseconds=us)) for us in deltas]
        assert got == expected

    def test_edges(self):
        self._check(self.EDGES)

    @given(st.lists(
        st.integers(-(2**52), 2**52)
        | st.integers(-86_400_000_000, 86_400_000_000)
        | st.integers(-999_999, 999_999),
        max_size=40,
    ))
    def test_equals_to_days(self, deltas):
        self._check(deltas)
