"""Tests for the combined design evaluation."""

from __future__ import annotations

import pytest

from repro.evaluation import SweepEngine, evaluate_design


class TestEvaluateDesign:
    def test_defaults_use_paper_setup(self, example_design):
        evaluation = evaluate_design(example_design)
        assert evaluation.label == "1 DNS + 2 WEB + 2 APP + 1 DB"
        assert evaluation.before.security.attack_success_probability == 1.0
        assert evaluation.after.coa == pytest.approx(0.99707, abs=5e-6)

    def test_coa_same_before_and_after(self, design_evaluations):
        for evaluation in design_evaluations:
            assert evaluation.before.coa == evaluation.after.coa

    def test_snapshot_metric_lookup(self, design_evaluations):
        snapshot = design_evaluations[0].after
        assert snapshot.metric("COA") == snapshot.coa
        assert snapshot.metric("ASP") == pytest.approx(
            snapshot.security.attack_success_probability
        )
        assert snapshot.metric("NoEV") == 7

    def test_evaluate_designs_shares_caches(
        self, case_study, critical_policy, five_designs
    ):
        engine = SweepEngine(case_study, critical_policy)
        evaluations = engine.evaluate(five_designs)
        assert len(evaluations) == 5
        assert [e.design for e in evaluations] == five_designs


class TestPaperOrderings:
    def test_patch_improves_every_security_metric(self, design_evaluations):
        for evaluation in design_evaluations:
            before, after = evaluation.before.security, evaluation.after.security
            assert after.attack_impact <= before.attack_impact
            assert (
                after.attack_success_probability
                <= before.attack_success_probability
            )
            assert (
                after.number_of_exploitable_vulnerabilities
                <= before.number_of_exploitable_vulnerabilities
            )
            assert after.number_of_attack_paths <= before.number_of_attack_paths
            assert after.number_of_entry_points <= before.number_of_entry_points

    def test_redundancy_increases_coa(self, design_evaluations):
        baseline = design_evaluations[0]
        for evaluation in design_evaluations[1:]:
            assert evaluation.after.coa > baseline.after.coa

    def test_redundancy_never_decreases_asp(self, design_evaluations):
        baseline = design_evaluations[0].after.security.attack_success_probability
        for evaluation in design_evaluations[1:]:
            assert (
                evaluation.after.security.attack_success_probability
                >= baseline - 1e-12
            )

    def test_dns_redundancy_keeps_asp(self, design_evaluations):
        """Paper: designs 1 and 2 have the same ASP after patch."""
        d1 = design_evaluations[0].after.security.attack_success_probability
        d2 = design_evaluations[1].after.security.attack_success_probability
        assert d1 == pytest.approx(d2)

    def test_app_design_has_best_coa(self, design_evaluations):
        best = max(design_evaluations, key=lambda e: e.after.coa)
        assert best.label == "1 DNS + 1 WEB + 2 APP + 1 DB"
