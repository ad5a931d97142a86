"""Phase 3 — reducing memory to shorten the pipeline (§3.3).

For every resizable resource (table capacities and register arrays) P2GO
probes a 50% reduction; resources whose halving saves at least one stage
are candidates.  Candidates are tried lowest-hit-rate-first (to minimize
behavioural risk), the minimum sufficient reduction is found by binary
search (no target memory map needed), and the resize is kept only if a
re-profile of the resized program is identical to the original profile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional, Tuple

from repro.core.observations import Decision, Phase, Verdict
from repro.core.passes import PassResult
from repro.core.profiler import Profile
from repro.core.session import OptimizationContext
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig


class ResourceKind(enum.Enum):
    TABLE = "table"
    REGISTER = "register"


@dataclass(frozen=True)
class MemoryCandidate:
    """A resource whose halving saves at least one stage."""

    kind: ResourceKind
    name: str
    original_size: int
    halved_stages: int
    hit_rate: float
    #: Table whose hit rate stands in for this resource (the owner for
    #: registers, itself for tables).
    rate_table: str


@dataclass(frozen=True)
class MemoryReduction:
    """An accepted (or attempted) resize."""

    candidate: MemoryCandidate
    new_size: int
    stages_before: int
    stages_after: int

    @property
    def reduction_fraction(self) -> float:
        return 1.0 - self.new_size / self.candidate.original_size


#: A candidate-selection policy: reorders phase 3's candidate list.
CandidateOrder = Callable[[List[MemoryCandidate]], List[MemoryCandidate]]


def _policy_highest_hit_rate(
    candidates: List[MemoryCandidate],
) -> List[MemoryCandidate]:
    """The anti-paper order the candidate-choice ablation measures:
    riskiest (highest hit rate) resources first."""
    return sorted(candidates, key=lambda c: -c.hit_rate)


def _policy_largest_memory_first(
    candidates: List[MemoryCandidate],
) -> List[MemoryCandidate]:
    """Greedy-capacity order: try the biggest allocations first."""
    return sorted(candidates, key=lambda c: -c.original_size)


#: Named candidate-selection policies (all module-level functions, so a
#: policy name can cross a process boundary and resolve to the same
#: picklable callable in a pool worker).  ``None`` means "keep the
#: order :func:`find_candidates` produced" — the paper's
#: lowest-hit-rate-first default.  All sorts are stable, so equal-key
#: candidates keep their control order and every policy is
#: deterministic.
CANDIDATE_POLICIES = {
    "lowest-hit-rate": None,
    "highest-hit-rate": _policy_highest_hit_rate,
    "largest-memory-first": _policy_largest_memory_first,
}


def resolve_candidate_policy(
    name: Optional[str],
) -> Optional[CandidateOrder]:
    """The callable behind a policy name (None / "lowest-hit-rate" →
    the built-in paper order).  Unknown names fail loudly — a sweep
    must not silently fall back to the default policy."""
    if name is None:
        return None
    try:
        return CANDIDATE_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown candidate policy {name!r}; known policies: "
            + ", ".join(sorted(CANDIDATE_POLICIES))
        ) from None


def _resized(program: Program, kind: ResourceKind, name: str, size: int) -> Program:
    if kind is ResourceKind.TABLE:
        return program.with_table_size(name, size)
    return program.with_register_size(name, size)


def find_candidates(
    ctx: OptimizationContext,
    program: Program,
    profile: Profile,
    baseline_stages: Optional[int] = None,
) -> List[MemoryCandidate]:
    """Probe a 50% cut of every resource; keep the stage-saving ones,
    ordered lowest hit rate first (ties broken by control order).

    The halving probes are independent per resource, so they go through
    one :meth:`~repro.core.session.OptimizationContext.compile_many`
    batch — compiled concurrently when the session has workers, with
    results and counters identical to the serial loop.
    """
    if baseline_stages is None:
        baseline_stages = ctx.compile(program).stages_used
    order = {
        name: i for i, name in enumerate(program.tables_in_control_order())
    }

    # Enumerate every resizable resource with its halved variant first
    # (tables in declaration order, then owned registers — the serial
    # probe order), then batch-compile all variants in one wave.
    probes: List[Tuple[ResourceKind, str, int, str, Program]] = []
    for table in program.tables.values():
        if table.size < 2 or not table.keys:
            continue
        probes.append(
            (
                ResourceKind.TABLE,
                table.name,
                table.size,
                table.name,
                program.with_table_size(table.name, table.size // 2),
            )
        )
    for register in program.registers.values():
        if register.size < 2:
            continue
        owners = program.tables_accessing_register(register.name)
        if not owners:
            continue
        probes.append(
            (
                ResourceKind.REGISTER,
                register.name,
                register.size,
                owners[0],
                program.with_register_size(
                    register.name, register.size // 2
                ),
            )
        )
    probed_stages = [
        result.stages_used
        for result in ctx.compile_many([variant for *_rest, variant in probes])
    ]

    candidates: List[MemoryCandidate] = []
    for (kind, name, size, rate_table, _variant), stages in zip(
        probes, probed_stages
    ):
        if stages < baseline_stages:
            candidates.append(
                MemoryCandidate(
                    kind=kind,
                    name=name,
                    original_size=size,
                    halved_stages=stages,
                    hit_rate=profile.hit_rate(rate_table),
                    rate_table=rate_table,
                )
            )
    candidates.sort(
        key=lambda c: (c.hit_rate, order.get(c.rate_table, 1 << 30), c.name)
    )
    return candidates


def minimal_reduction(
    ctx: OptimizationContext,
    program: Program,
    candidate: MemoryCandidate,
    baseline_stages: int,
    probe_counter: Optional[List[int]] = None,
) -> int:
    """Binary-search the largest size that still saves a stage (§3.3:
    "binary search allows P2GO to find the minimum reduction without a
    concrete description of the hardware")."""
    lo = candidate.original_size // 2  # known to save
    hi = candidate.original_size  # known not to save
    while hi - lo > 1:
        mid = (lo + hi) // 2
        stages = ctx.compile(
            _resized(program, candidate.kind, candidate.name, mid)
        ).stages_used
        if probe_counter is not None:
            probe_counter.append(mid)
        if stages < baseline_stages:
            lo = mid
        else:
            hi = mid
    return lo


def linear_minimal_reduction(
    ctx: OptimizationContext,
    program: Program,
    candidate: MemoryCandidate,
    baseline_stages: int,
    step: int = 1,
    probe_counter: Optional[List[int]] = None,
) -> int:
    """Linear-scan baseline for the ablation bench: walk down from the
    original size until a stage is saved."""
    size = candidate.original_size - step
    while size > candidate.original_size // 2:
        stages = ctx.compile(
            _resized(program, candidate.kind, candidate.name, size)
        ).stages_used
        if probe_counter is not None:
            probe_counter.append(size)
        if stages < baseline_stages:
            return size
        size -= step
    return candidate.original_size // 2


def run_phase(
    ctx: OptimizationContext,
    program: Program,
    config: RuntimeConfig,
    profile: Profile,
    candidate_order: Optional[CandidateOrder] = None,
) -> PassResult:
    """Try candidates until one resize passes verification.

    ``candidate_order`` lets the ablation bench override the paper's
    lowest-hit-rate-first policy.  All candidate probing (the halving
    probes, the binary search, the verification re-profiles) goes
    through ``ctx``, so repeated probes of the same size are compiled
    once and replays run on the session's trace.
    """
    baseline_stages = ctx.compile(program).stages_used
    candidates = find_candidates(
        ctx, program, profile, baseline_stages=baseline_stages
    )
    if candidate_order is not None:
        candidates = candidate_order(list(candidates))
    if not candidates:
        return PassResult((Decision(Phase.REDUCE_MEMORY, Verdict.NONE),))

    decisions: List[Decision] = []
    for candidate in candidates:
        new_size = minimal_reduction(
            ctx, program, candidate, baseline_stages
        )
        resized = _resized(program, candidate.kind, candidate.name, new_size)
        new_profile = ctx.profile(resized, config)
        reduction = MemoryReduction(
            candidate=candidate,
            new_size=new_size,
            stages_before=baseline_stages,
            stages_after=ctx.compile(resized).stages_used,
        )
        same = profile.same_behavior_as(new_profile)
        decisions.append(
            Decision(
                Phase.REDUCE_MEMORY,
                Verdict.ACCEPTED if same else Verdict.REJECTED,
                reduction,
                reason="" if same else "; ".join(
                    profile.behavior_diff(new_profile)
                ),
                stages_before=reduction.stages_before,
                stages_after=reduction.stages_after,
            )
        )
        if same:
            return PassResult(tuple(decisions), program=resized)
    return PassResult(tuple(decisions))


@dataclass
class MemoryReductionPass:
    """Phase 3 as an :class:`~repro.core.passes.OptimizationPass`.

    Each round accepts at most one verified resize; every probe of the
    candidate search and binary search hits the session's memo cache.
    """

    max_rounds: int = 1
    candidate_order: Optional[CandidateOrder] = None
    name: str = dc_field(default="reduce-memory", init=False)
    phase: Phase = dc_field(default=Phase.REDUCE_MEMORY, init=False)

    def run(self, ctx: OptimizationContext) -> PassResult:
        return run_phase(
            ctx, ctx.program, ctx.config, ctx.profile(),
            candidate_order=self.candidate_order,
        )
