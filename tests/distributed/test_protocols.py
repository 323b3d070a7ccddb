"""Tests for the run report every simulation returns."""

from repro.distributed.metrics import SyncReport


class TestSyncReport:
    def test_consistency_with_no_queries(self):
        assert SyncReport(strategy="x").consistency == 1.0

    def test_summary_row_fields(self):
        report = SyncReport(strategy="x", queries=4, correct_answers=3,
                            incorrect_answers=1, messages=7, bytes=70)
        row = report.summary_row()
        assert row["strategy"] == "x"
        assert row["consistency"] == 0.75
        assert row["messages"] == 7
