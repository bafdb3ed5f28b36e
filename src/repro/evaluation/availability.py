"""Availability evaluation of designs (lower-layer solve + aggregation +
upper-layer COA), with caching of the per-role and per-variant aggregates
and of the per-pattern upper-layer SRN structures."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.availability.aggregation import ServiceAggregate, aggregate_service
from repro.availability.grouped import (
    CanonicalLayout,
    CoaStructure,
    SlotRef,
    coa_structure,
    design_layout,
)
from repro.availability.heterogeneous import HeterogeneousAvailabilityModel
from repro.availability.network import NetworkAvailabilityModel
from repro.availability.product_form import product_form_coa
from repro.enterprise.casestudy import EnterpriseCaseStudy
from repro.enterprise.design import DesignSpec
from repro.enterprise.heterogeneous import (
    HeterogeneousDesign,
    check_design_kind as _check_spec_kind,
)
from repro.enterprise.roles import ServerRole
from repro.errors import EvaluationError
from repro.patching.policy import PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = ["AvailabilityEvaluator", "scale_patch_rates"]


def scale_patch_rates(rates: np.ndarray, multiplier: float) -> np.ndarray:
    """Flat slot-rate vector with every *patch* entry scaled.

    Rate vectors interleave ``(patch, recovery)`` pairs per slot (see
    :meth:`AvailabilityEvaluator.slot_rates`); a campaign phase scales
    the even (patch) entries and leaves recovery untouched.  A
    multiplier of exactly 1.0 returns the input unchanged, keeping the
    stationary path bit-identical.
    """
    if multiplier == 1.0:
        return rates
    scaled = np.array(rates, dtype=float, copy=True)
    scaled[0::2] *= multiplier
    return scaled


class AvailabilityEvaluator:
    """Compute COA and related availability measures for designs.

    Accepts any :class:`~repro.enterprise.design.DesignSpec`.  The
    expensive part — solving each stack's lower-layer SRN and
    aggregating it into (lambda_eq, mu_eq) — depends only on the stack
    and the patch policy, not on the replica counts, so aggregates are
    cached per role (homogeneous designs) and per variant (heterogeneous
    designs) and reused across every design the evaluator scores.

    The upper-layer COA solve goes through the canonical
    pattern-grouped pipeline (:mod:`repro.availability.grouped`): each
    design maps onto the canonical layout of its transition pattern, and
    designs with the same counts multiset share one reachability
    exploration and one :class:`~repro.ctmc.steady.BatchSteadySolver` —
    bit-identical to solving each design's canonical net on its own (a
    fresh evaluator per design), because the shared structure is a pure
    function of the layout.

    Parameters
    ----------
    case_study:
        The enterprise description.
    policy:
        The patch policy selecting which vulnerabilities get patched.
    database:
        Vulnerability database for variant lookups of heterogeneous
        designs (default: the case study's own database).
    """

    def __init__(
        self,
        case_study: EnterpriseCaseStudy,
        policy: PatchPolicy,
        database: VulnerabilityDatabase | None = None,
    ) -> None:
        self.case_study = case_study
        self.policy = policy
        self.database = database if database is not None else case_study.database
        self._aggregates: dict[str, ServiceAggregate] = {}
        self._variant_aggregates: dict[tuple[str, ServerRole], ServiceAggregate] = {}
        self._structures: dict[tuple, CoaStructure] = {}
        self._aggregate_solves = 0
        self._structure_builds = 0

    # -- per-role aggregation (Table V) ------------------------------------

    def aggregate(self, role: str) -> ServiceAggregate:
        """The (cached) Table V row for *role*."""
        if role not in self._aggregates:
            parameters = self.case_study.server_parameters(role, self.policy)
            self._aggregate_solves += 1
            self._aggregates[role] = aggregate_service(parameters)
        return self._aggregates[role]

    def variant_aggregate(
        self, variant: ServerRole, role: str | None = None
    ) -> ServiceAggregate:
        """The (cached) lower-layer aggregate for a variant stack.

        *role* is the tier the variant serves; it only matters for
        component-rate override lookup (variant name first, then role).
        """
        key = (role or "", variant)
        if key not in self._variant_aggregates:
            parameters = self.case_study.variant_parameters(
                variant, self.policy, database=self.database, role=role
            )
            self._aggregate_solves += 1
            self._variant_aggregates[key] = aggregate_service(parameters)
        return self._variant_aggregates[key]

    def aggregates_for(self, design: DesignSpec) -> dict[str, ServiceAggregate]:
        """Aggregates for every role (or variant) the design uses."""
        if isinstance(design, HeterogeneousDesign):
            return {
                variant.name: self.variant_aggregate(variant, role)
                for role in design.roles
                for variant in design.variants(role)
            }
        _check_spec_kind(design)
        return {role: self.aggregate(role) for role in design.roles}

    # -- precomputed state (shared-memory workers) --------------------------

    def prime_aggregates(
        self,
        roles: Mapping[str, ServiceAggregate] | None = None,
        variants: Mapping[tuple[str, ServerRole], ServiceAggregate] | None = None,
    ) -> None:
        """Seed the aggregate caches with already-solved Table V rows.

        Used by the shared-memory sweep pipeline: the parent solves the
        lower-layer SRNs once and ships the rows to pool workers, which
        prime their evaluators instead of re-solving.
        """
        if roles:
            self._aggregates.update(roles)
        if variants:
            self._variant_aggregates.update(variants)

    def prime_structures(
        self, structures: Mapping[tuple, CoaStructure]
    ) -> None:
        """Seed the canonical-structure cache (keyed by layout tiers)."""
        self._structures.update(structures)

    # -- canonical upper layer ----------------------------------------------

    def design_slots(
        self, design: DesignSpec
    ) -> tuple[CanonicalLayout, tuple[SlotRef, ...]]:
        """The design's canonical layout and slot assignment."""
        return design_layout(design)

    def slot_rates(self, slots: Sequence[SlotRef]) -> np.ndarray:
        """Flat ``(patch, recovery)`` rate vector for canonical *slots*."""
        rates = np.empty(2 * len(slots), dtype=float)
        for position, slot in enumerate(slots):
            if slot.variant is not None:
                aggregate = self.variant_aggregate(slot.variant, slot.role)
            else:
                aggregate = self.aggregate(slot.role)
            rates[2 * position] = aggregate.patch_rate
            rates[2 * position + 1] = aggregate.recovery_rate
        return rates

    def coa_structure_for(
        self, design: DesignSpec
    ) -> tuple[CoaStructure, np.ndarray]:
        """The design's (possibly shared) structure and its rate vector."""
        layout, slots = self.design_slots(design)
        rates = self.slot_rates(slots)
        structure = self._structures.get(layout.tiers)
        if structure is not None:
            return structure, rates
        self._structure_builds += 1
        rate_pairs = [
            (float(rates[2 * i]), float(rates[2 * i + 1]))
            for i in range(len(slots))
        ]
        structure = coa_structure(layout, rate_pairs)
        self._structures[layout.tiers] = structure
        return structure, rates

    # -- per-design measures ------------------------------------------------

    def network_model(
        self, design: DesignSpec
    ) -> NetworkAvailabilityModel | HeterogeneousAvailabilityModel:
        """The upper-layer SRN model for *design*, per spec kind."""
        if isinstance(design, HeterogeneousDesign):
            return HeterogeneousAvailabilityModel(
                design.tiers(), self.aggregates_for(design)
            )
        _check_spec_kind(design)
        return NetworkAvailabilityModel(design.counts, self.aggregates_for(design))

    def coa(self, design: DesignSpec) -> float:
        """Capacity-oriented availability of *design*.

        Solved over the design's canonical layout, so every design with
        the same transition pattern shares one exploration.
        """
        structure, rates = self.coa_structure_for(design)
        return structure.coa(rates)

    def transient_coa(
        self,
        design: DesignSpec,
        times: Sequence[float],
        tolerance: float = 1e-10,
        method: str = "uniformisation",
    ) -> np.ndarray:
        """Expected COA of *design* at each time, from the all-up marking.

        One batched transient pass serves the whole time grid; the
        exploration and reward vector come from the (shared) canonical
        structure.  *method* selects the propagation backend (see
        :class:`~repro.ctmc.transient.BatchTransientSolver`).
        """
        structure, rates = self.coa_structure_for(design)
        return structure.transient_coa(
            rates, times, tolerance=tolerance, method=method
        )

    def transient_coa_piecewise(
        self,
        design: DesignSpec,
        times: Sequence[float],
        multipliers: Sequence[float],
        durations: Sequence[float],
        tolerance: float = 1e-10,
        method: str = "uniformisation",
    ) -> np.ndarray:
        """Expected COA under piecewise-constant patch-rate scaling.

        *multipliers* and *durations* describe one rollout phase each
        (the last duration is open-ended): during phase *p* every patch
        rate is scaled by ``multipliers[p]`` while recovery rates stay
        fixed.  Each phase is uniformised once over the design's
        (shared) canonical structure and the state vector is carried
        across phase boundaries, so the whole curve costs one batch
        pass per phase (:func:`repro.ctmc.transient.transient_piecewise`).
        A single phase at multiplier 1.0 is bit-identical to
        :meth:`transient_coa`.
        """
        from repro.ctmc.transient import transient_piecewise

        if len(multipliers) != len(durations) or not multipliers:
            raise EvaluationError(
                f"piecewise COA needs one duration per multiplier, got "
                f"{len(multipliers)} multipliers and {len(durations)} durations"
            )
        structure, rates = self.coa_structure_for(design)
        solvers: dict[float, object] = {}
        segments = []
        for multiplier, duration in zip(multipliers, durations):
            solver = solvers.get(multiplier)
            if solver is None:
                solver = structure.transient_solver(
                    scale_patch_rates(rates, multiplier),
                    tolerance=tolerance,
                    method=method,
                )
                solvers[multiplier] = solver
            segments.append((solver, duration))
        dists = transient_piecewise(segments, structure.initial, times)
        # Per-row dots, NOT `dists @ reward`: this mirrors the exact op
        # order of BatchTransientSolver.rewards (a gemv may sum in a
        # different order), which is what makes the single-phase
        # campaign bit-identical to transient_coa.
        out = np.empty(len(dists))
        for i in range(len(dists)):
            out[i] = float(dists[i] @ structure.reward)
        return out

    def coa_closed_form(self, design: DesignSpec) -> float:
        """Product-form COA (validation path, no SRN solve)."""
        if isinstance(design, HeterogeneousDesign):
            raise EvaluationError(
                "closed-form COA is defined for homogeneous designs only; "
                "heterogeneous tiers couple variants through the tier-up "
                "condition"
            )
        aggregates = self.aggregates_for(design)
        return product_form_coa(
            design.counts,
            {role: agg.patch_rate for role, agg in aggregates.items()},
            {role: agg.recovery_rate for role, agg in aggregates.items()},
        )

    def system_availability(self, design: DesignSpec) -> float:
        """P(every tier has a running server) for *design*."""
        return self.network_model(design).system_availability()

    def mean_time_to_outage(self, design: DesignSpec) -> float:
        """Expected hours from all-up until some tier first loses all
        servers, for any design kind (per-spec-kind model dispatch)."""
        from repro.availability.survivability import mean_time_to_outage

        return mean_time_to_outage(self.network_model(design))

    # -- instrumentation ------------------------------------------------------

    @property
    def solve_stats(self) -> dict[str, int]:
        """Counters for the benchmarks: lower-layer aggregate solves,
        canonical structures built (= reachability explorations) and
        structures currently shared."""
        return {
            "aggregate_solves": self._aggregate_solves,
            "structure_builds": self._structure_builds,
            "structures_cached": len(self._structures),
        }
