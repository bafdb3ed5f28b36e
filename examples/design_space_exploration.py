"""Design-space exploration beyond the paper's five choices.

Enumerates every design with up to three replicas per tier under a
ten-server budget, evaluates all of them with shared model caches, and
reports (a) the Pareto frontier on (ASP, COA), (b) the cheapest design
meeting the paper's region-1 requirements, and (c) a cost ranking using
the operational-cost extension.

Usage::

    python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro.enterprise import paper_case_study
from repro.evaluation import (
    SweepEngine,
    enumerate_designs,
    pareto_front,
    satisfying_designs,
)
from repro.evaluation.cost import CostModel
from repro.evaluation.requirements import PAPER_REGION_1_TWO_METRIC
from repro.patching import CriticalVulnerabilityPolicy


def main() -> None:
    case_study = paper_case_study()
    policy = CriticalVulnerabilityPolicy()
    designs = list(
        enumerate_designs(
            ["dns", "web", "app", "db"], max_replicas=3, max_total=10
        )
    )
    print(f"evaluating {len(designs)} designs (<=3 replicas/tier, <=10 servers)")

    evaluations = SweepEngine(case_study, policy).evaluate(designs)

    print("\nPareto frontier on (ASP after patch, COA):")
    frontier = pareto_front(evaluations)
    frontier.sort(key=lambda e: e.after.coa)
    for evaluation in frontier:
        security = evaluation.after.security
        print(
            f"  {evaluation.label:<30}"
            f" ASP={security.attack_success_probability:.4f}"
            f" COA={evaluation.after.coa:.6f}"
            f" servers={evaluation.design.total_servers}"
        )

    print("\ncheapest designs satisfying Eq.3 region 1 (phi=0.2, psi=0.9962):")
    feasible = satisfying_designs(evaluations, PAPER_REGION_1_TWO_METRIC)
    feasible.sort(key=lambda e: (e.design.total_servers, -e.after.coa))
    for evaluation in feasible[:5]:
        print(
            f"  {evaluation.label:<30}"
            f" servers={evaluation.design.total_servers}"
            f" COA={evaluation.after.coa:.6f}"
        )
    if not feasible:
        print("  (none)")

    print("\nlowest total monthly cost (hardware + downtime + breach risk):")
    cost_model = CostModel()
    ranked = sorted(evaluations, key=cost_model.total)
    for evaluation in ranked[:5]:
        breakdown = cost_model.breakdown(evaluation)
        print(
            f"  {evaluation.label:<30} total={breakdown.total:9.0f}"
            f" (servers {breakdown.servers:.0f},"
            f" downtime {breakdown.downtime:.0f},"
            f" breach {breakdown.breach_risk:.0f})"
        )


if __name__ == "__main__":
    main()
