"""Full paper reproduction: every table and figure from one script.

Walks the three phases of the paper's approach — data input, model
construction, evaluation — over the five redundancy designs and prints
Table I, Table II, Table V, the Table VI COA, the Fig. 6 scatter (ASCII),
the Fig. 7 radar values, and the Eq. (3)/(4) design selections.

Usage::

    python examples/paper_pipeline.py
"""

from __future__ import annotations

from repro.enterprise import (
    example_network_design,
    paper_case_study,
    paper_designs,
)
from repro.evaluation import (
    AvailabilityEvaluator,
    SecurityEvaluator,
    SweepEngine,
    satisfying_designs,
)
from repro.evaluation.charts import (
    radar_data,
    render_radar_table,
    render_scatter,
    scatter_data,
)
from repro.evaluation.report import (
    aggregated_rates_table,
    design_comparison_table,
    security_metrics_table,
    vulnerability_table,
)
from repro.evaluation.requirements import (
    PAPER_REGION_1_MULTI_METRIC,
    PAPER_REGION_1_TWO_METRIC,
    PAPER_REGION_2_MULTI_METRIC,
    PAPER_REGION_2_TWO_METRIC,
)
from repro.patching import CriticalVulnerabilityPolicy


def heading(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    # Phase 1: data input -------------------------------------------------
    case_study = paper_case_study()
    policy = CriticalVulnerabilityPolicy()
    example = example_network_design()

    heading("Phase 1 - inputs (Table I: vulnerability information)")
    print(vulnerability_table(case_study))
    print(f"\nattacker model: {case_study.attacker.describe()}")
    print(f"patch schedule: {case_study.schedule}")

    # Phase 2 + 3: security model ------------------------------------------
    heading("Table II - security metrics of the example network")
    security = SecurityEvaluator(case_study)
    print(
        security_metrics_table(
            security.before_patch(example), security.after_patch(example, policy)
        )
    )
    print("(paper: AIM 52.2->42.2, NoAP 8->4, NoEP 3->2; see EXPERIMENTS.md")
    print(" for the documented NoEV/ASP deviations)")

    # Phase 2 + 3: availability model ----------------------------------------
    heading("Table V - aggregated patch/recovery rates (Eqs. 1-2)")
    availability = AvailabilityEvaluator(case_study, policy)
    print(aggregated_rates_table(availability.aggregates_for(example)))

    heading("Table VI - capacity oriented availability")
    coa = availability.coa(example)
    print(f"COA({example.label}) = {coa:.6f}   (paper ~0.99707)")

    # Section IV: the five designs -----------------------------------------
    heading("Section IV - the five redundancy designs, after patch")
    evaluations = SweepEngine(case_study, policy).evaluate(paper_designs())
    print(design_comparison_table(evaluations, after_patch=True))

    heading("Fig. 6b - ASP vs COA after patch (ASCII scatter)")
    print(render_scatter(scatter_data(evaluations, after_patch=True)))

    heading("Fig. 7 - radar values")
    print("before patch:")
    print(render_radar_table(radar_data(evaluations, after_patch=False)))
    print("\nafter patch:")
    print(render_radar_table(radar_data(evaluations, after_patch=True)))

    heading("Eq. (3) / Eq. (4) - design selections")
    for name, region in (
        ("Eq.3 region 1 (phi=0.2, psi=0.9962)", PAPER_REGION_1_TWO_METRIC),
        ("Eq.3 region 2 (phi=0.1, psi=0.9961)", PAPER_REGION_2_TWO_METRIC),
        ("Eq.4 region 1 (+xi=9, omega=2, kappa=1)", PAPER_REGION_1_MULTI_METRIC),
        ("Eq.4 region 2 (+xi=7, omega=1, kappa=1)", PAPER_REGION_2_MULTI_METRIC),
    ):
        selected = satisfying_designs(evaluations, region)
        labels = ", ".join(e.label for e in selected) or "(none)"
        print(f"{name}:")
        print(f"    {labels}")


if __name__ == "__main__":
    main()
