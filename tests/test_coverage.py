"""Tests for detection-coverage validation against ground truth."""

import pytest

from repro.analysis.coverage import attribution_quality
from repro.lifecycle.exploit_events import EventTable


class TestAttributionQuality:
    @pytest.fixture(scope="class")
    def quality(self, study):
        events = EventTable.from_alerts(study.alerts)
        return attribution_quality(events, study.ground_truth)

    def test_ground_truth_covers_all_sessions(self, study):
        assert len(study.ground_truth) == len(study.store)

    def test_perfect_recall(self, quality):
        """Every ground-truth exploit session is attributed to a CVE —
        the signature set covers every generated payload family."""
        assert quality.missed == 0
        assert quality.recall == 1.0

    def test_perfect_precision(self, quality):
        """No exploit session is attributed to the wrong CVE (the
        anchor/needle design guarantees no cross-matching)."""
        assert quality.misattributed == 0
        assert quality.precision == 1.0

    def test_injected_fps_visible_but_nothing_else(self, quality):
        """Background traffic only ever alerts via the two deliberately
        unsound signatures — which RCA then removes."""
        assert quality.injected_fp_alerts > 0
        assert quality.unexpected_background_alerts == 0

    def test_counts_consistent(self, quality, study):
        assert (
            quality.exploit_sessions + quality.background_sessions
            == len(study.store)
        )
