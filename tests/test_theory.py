import numpy as np
import pytest

from pgrestore import theory
from pgrestore.theory import (
    claim1_check,
    claim2_check,
    claim3_check,
    claim4_check,
    run_verifier_battery,
    theorem1_check,
)


class TestBattery:
    def test_individual_checks_pass(self):
        assert claim1_check().passed
        assert claim2_check().passed
        assert claim3_check().passed
        assert claim4_check().passed

    def test_battery_selection(self):
        results = run_verifier_battery(["claim4"])
        assert [r.name for r in results] == ["claim4"]
        with pytest.raises(ValueError, match="unknown check"):
            run_verifier_battery(["claim9"])

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_claim2_needs_a_pair(self, n_pairs):
        # no pairs would print PASS (0/0 pairs)
        with pytest.raises(ValueError, match=f"n_pairs must be at least 1, got {n_pairs}"):
            claim2_check(n_pairs)

    def test_report_line_format(self):
        line = claim4_check().line()
        assert line.startswith("claim4: PASS (50/50 instances, ")

    def test_theorem1_fails_when_the_estimator_disagrees(self, monkeypatch):
        # Doubling the Gram inverse changes the dense bp and wls estimators only, so the
        # closed forms and the ls mode still hold and bp is the first mode to disagree.
        inv = np.linalg.inv
        monkeypatch.setattr(theory.np.linalg, "inv", lambda a: 2.0 * inv(a))
        result = theorem1_check()
        assert not result.passed
        assert result.detail.startswith("Monte-Carlo disagreement at instance seed 200000 (bp)")
