"""Joint security + availability snapshots per design (Figs. 6-7 data).

:func:`evaluate_design` accepts any
:class:`~repro.enterprise.design.DesignSpec` — homogeneous
:class:`~repro.enterprise.design.RedundancyDesign` and diverse-stack
:class:`~repro.enterprise.heterogeneous.HeterogeneousDesign` flow
through the same evaluators and produce the same
:class:`DesignEvaluation` shape, so sweeps and Pareto ranking can mix
design kinds freely.  Many designs go through
:meth:`repro.evaluation.engine.SweepEngine.evaluate`, which runs this
function over one shared evaluator pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import DesignSpec
from repro.evaluation.availability import AvailabilityEvaluator
from repro.evaluation.security import SecurityEvaluator
from repro.harm import SecurityMetrics
from repro.patching.policy import CriticalVulnerabilityPolicy, PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = [
    "DesignSnapshot",
    "DesignEvaluation",
    "evaluate_design",
]


@dataclass(frozen=True)
class DesignSnapshot:
    """One point of Figs. 6-7: security metrics plus COA.

    The COA reflects the patch schedule regardless of the security
    snapshot ("before patch" charts the security state before the cycle
    completes; servers are patched — and briefly down — either way).
    """

    security: SecurityMetrics
    coa: float

    def metric(self, name: str) -> float:
        """Look up a metric by paper abbreviation (incl. ``"COA"``)."""
        if name == "COA":
            return self.coa
        return float(self.security.as_dict()[name])


@dataclass(frozen=True)
class DesignEvaluation:
    """Before- and after-patch snapshots of one design (any spec kind)."""

    design: DesignSpec
    before: DesignSnapshot
    after: DesignSnapshot

    @property
    def label(self) -> str:
        """The design's paper-style label."""
        return self.design.label


def evaluate_design(
    design: DesignSpec,
    case_study: EnterpriseCaseStudy | None = None,
    policy: PatchPolicy | None = None,
    security_evaluator: SecurityEvaluator | None = None,
    availability_evaluator: AvailabilityEvaluator | None = None,
    database: VulnerabilityDatabase | None = None,
) -> DesignEvaluation:
    """Evaluate one design before and after patching.

    With no arguments beyond *design*, uses the paper's case study and
    critical-vulnerability policy.  Pass shared evaluator instances to
    reuse lower-layer solutions across calls; *database*
    supplies variant vulnerability records for heterogeneous designs
    (ignored when explicit evaluators are given).
    """
    if case_study is None:
        case_study = paper_case_study()
    if policy is None:
        policy = CriticalVulnerabilityPolicy()
    if security_evaluator is None:
        security_evaluator = SecurityEvaluator(case_study, database=database)
    if availability_evaluator is None:
        availability_evaluator = AvailabilityEvaluator(
            case_study, policy, database=database
        )

    coa = availability_evaluator.coa(design)
    return DesignEvaluation(
        design=design,
        before=DesignSnapshot(
            security=security_evaluator.before_patch(design), coa=coa
        ),
        after=DesignSnapshot(
            security=security_evaluator.after_patch(design, policy), coa=coa
        ),
    )
