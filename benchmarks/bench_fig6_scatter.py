"""Figure 6: ASP vs COA scatter for the five designs, plus Eq. (3) regions.

Paper results: before patch every design sits at ASP = 1.0; after patch
region 1 (phi=0.2, psi=0.9962) selects designs 4 and 5, region 2
(phi=0.1, psi=0.9961) selects design 2.
"""

from __future__ import annotations

from repro.evaluation import SweepEngine
from repro.evaluation.charts import render_scatter, scatter_data
from repro.evaluation.requirements import (
    PAPER_REGION_1_TWO_METRIC,
    PAPER_REGION_2_TWO_METRIC,
    satisfying_designs,
)


def _evaluate_five(case_study, critical_policy, five_designs):
    # A fresh engine per round: the engine memoises its results.
    return SweepEngine(case_study, critical_policy).evaluate(five_designs)


def test_fig6_scatter(benchmark, case_study, critical_policy, five_designs):
    evaluations = benchmark(
        _evaluate_five, case_study, critical_policy, five_designs
    )

    before = scatter_data(evaluations, after_patch=False)
    assert all(point.asp == 1.0 for point in before)

    region1 = satisfying_designs(evaluations, PAPER_REGION_1_TWO_METRIC)
    region2 = satisfying_designs(evaluations, PAPER_REGION_2_TWO_METRIC)
    assert [e.label for e in region1] == [
        "1 DNS + 1 WEB + 2 APP + 1 DB",
        "1 DNS + 1 WEB + 1 APP + 2 DB",
    ]
    assert [e.label for e in region2] == ["2 DNS + 1 WEB + 1 APP + 1 DB"]

    print("\n[Fig. 6b] ASP vs COA after patch")
    print(render_scatter(scatter_data(evaluations, after_patch=True)))
    print(f"  region 1 (phi=0.2, psi=0.9962): {[e.label for e in region1]}")
    print(f"  region 2 (phi=0.1, psi=0.9961): {[e.label for e in region2]}")
