"""Tests for the analysis utilities: scheme comparisons and shape checks."""

import pytest

from repro.analysis import ShapeAssessment, compare


class TestComparison:
    def test_overhead_pct(self):
        cmp_ = compare("cycles", {"pmp": 100.0, "pmpt": 150.0, "hpmp": 110.0})
        overhead = cmp_.overhead_pct
        assert overhead["pmpt"] == pytest.approx(50.0)
        assert overhead["hpmp"] == pytest.approx(10.0)
        assert cmp_.winner() == "pmp"

    def test_mitigation_matches_paper_definition(self):
        cmp_ = compare("cycles", {"pmp": 100.0, "pmpt": 150.0, "hpmp": 110.0})
        # HPMP removes 40 of PMPT's 50 extra cycles = 80%.
        assert cmp_.mitigation_pct() == pytest.approx(80.0)

    def test_mitigation_none_when_no_extra(self):
        cmp_ = compare("cycles", {"pmp": 100.0, "pmpt": 100.0, "hpmp": 100.0})
        assert cmp_.mitigation_pct() is None

    def test_missing_baseline_rejected(self):
        with pytest.raises(KeyError):
            compare("cycles", {"pmpt": 1.0})

    def test_shape_assessment_pass(self):
        cmp_ = compare("cycles", {"pmp": 100.0, "pmpt": 150.0, "hpmp": 110.0})
        shape = ShapeAssessment(cmp_, expected_order=("pmp", "hpmp", "pmpt"), mitigation_band=(23.1, 85.0))
        assert shape.evaluate()
        assert "shape reproduced" in shape.notes

    def test_shape_assessment_fail_ordering(self):
        cmp_ = compare("cycles", {"pmp": 100.0, "pmpt": 105.0, "hpmp": 110.0})
        shape = ShapeAssessment(cmp_, expected_order=("pmp", "hpmp", "pmpt"))
        assert not shape.evaluate()
        assert any("ordering" in n for n in shape.notes)
