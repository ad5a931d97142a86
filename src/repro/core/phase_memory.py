"""Phase 3 — reducing memory to shorten the pipeline (§3.3).

For every resizable resource (table capacities and register arrays) P2GO
probes a 50% reduction; a resource whose halving saves no stage is
rejected at once.  Candidates are tried lowest-hit-rate-first (to minimize
behavioural risk), the minimum sufficient reduction is found by binary
search (no target memory map needed), and the resize is kept only if a
re-profile of the resized program is identical to the original profile.
No size below what the runtime config installs is ever tried: a table
keeps room for its entries, a register for its initialized indices.

Each probe pays only for the size it changes.  A resize carries its
parent's size-free facts — structure key, register owners, each
table's per-entry memory (``repro.p4.program.SIZE_FREE_PINS``) — so a
compile re-derives nothing but the sizes; and no replay reads a table's
capacity, so a table resize's "re-profile" is its parent's profile, a
memo hit (``repro.p4.dsl.printer.profile_key``).  A register resize
changes hashing and is replayed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Dict, List, Optional

from repro.core.observations import Decision, Phase, Reason, Verdict
from repro.core.passes import PassResult
from repro.core.profiler import Profile
from repro.core.session import OptimizationContext
from repro.p4.program import Program
from repro.sim.runtime import RuntimeConfig


class ResourceKind(enum.Enum):
    TABLE = "table"
    REGISTER = "register"


@dataclass(frozen=True)
class MemoryReduction:
    """A resize of one table or register: the halving phase 3 probes,
    then the smallest cut that still saves a stage."""

    kind: ResourceKind
    name: str
    original_size: int
    new_size: int
    #: Hit rate of the table standing in for this resource (the owner
    #: for registers, itself for tables): the candidate order's key.
    hit_rate: float

    @property
    def reduction_fraction(self) -> float:
        return 1.0 - self.new_size / self.original_size


#: A candidate-selection policy: reorders phase 3's candidate list.
CandidateOrder = Callable[[List[MemoryReduction]], List[MemoryReduction]]


def _policy_highest_hit_rate(
    candidates: List[MemoryReduction],
) -> List[MemoryReduction]:
    """The anti-paper order the candidate-choice ablation measures:
    riskiest (highest hit rate) resources first."""
    return sorted(candidates, key=lambda c: -c.hit_rate)


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


def _resized(program: Program, resize: MemoryReduction, size: int) -> Program:
    if resize.kind is ResourceKind.TABLE:
        return program.with_table_size(resize.name, size)
    return program.with_register_size(resize.name, size)


def installed(config: RuntimeConfig, resize: MemoryReduction) -> int:
    """The smallest size of the resized resource ``config`` still fits
    in: a table's entry count, one past a register's highest
    initialized index."""
    if resize.kind is ResourceKind.TABLE:
        return config.entry_count(resize.name)
    return max(
        (
            index + 1
            for register, index, _value in config.register_inits
            if register == resize.name
        ),
        default=0,
    )


def find_candidates(
    ctx: OptimizationContext,
    program: Program,
    profile: Profile,
) -> Dict[MemoryReduction, int]:
    """Probe a 50% cut of every halvable resource: each halving with the
    stages it compiles to, lowest hit rate first (ties broken by control
    order).
    """
    order = {
        name: i for i, name in enumerate(program.tables_in_control_order())
    }
    # Tables in declaration order, then owned registers (the serial
    # probe order), each with the table whose hit rate stands in for it.
    resources = [
        (ResourceKind.TABLE, table, table.name)
        for table in program.tables.values()
        if table.size >= 2 and table.keys
    ]
    for register in program.registers.values():
        owners = program.tables_accessing_register(register.name)
        if register.size >= 2 and owners:
            resources.append((ResourceKind.REGISTER, register, owners[0]))
    halvings = [
        MemoryReduction(
            kind, resource.name, resource.size, resource.size // 2,
            profile.hit_rate(rate_table),
        )
        for kind, resource, rate_table in resources
    ]
    compiled = [
        ctx.compile(_resized(program, h, h.new_size)) for h in halvings
    ]
    ranked = sorted(
        range(len(halvings)),
        key=lambda i: (
            halvings[i].hit_rate,
            order.get(resources[i][2], 1 << 30),
            halvings[i].name,
        ),
    )
    return {halvings[i]: compiled[i].stages_used for i in ranked}


def minimal_reduction(
    ctx: OptimizationContext,
    program: Program,
    candidate: MemoryReduction,
    baseline_stages: int,
    floor: int = 0,
) -> Optional[int]:
    """Binary-search the largest size that still saves a stage (§3.3:
    "binary search allows P2GO to find the minimum reduction without a
    concrete description of the hardware"), searching no lower than
    ``floor`` (:func:`installed`).  None when the floor is above the
    halving and saves no stage itself: only a size the config does not
    fit in would save one."""
    lo = candidate.original_size // 2  # known to save
    hi = candidate.original_size  # known not to save
    if lo < floor:
        if ctx.compile(
            _resized(program, candidate, floor)
        ).stages_used >= baseline_stages:
            return None
        lo = floor
    while hi - lo > 1:
        mid = (lo + hi) // 2
        stages = ctx.compile(_resized(program, candidate, mid)).stages_used
        if stages < baseline_stages:
            lo = mid
        else:
            hi = mid
    return lo


def run_phase(
    ctx: OptimizationContext,
    program: Program,
    config: RuntimeConfig,
    profile: Profile,
    candidate_order: Optional[CandidateOrder] = None,
) -> PassResult:
    """Try candidates until one resize passes verification: one decision
    per halvable resource, up to the one resized.

    ``candidate_order`` lets the ablation bench override the paper's
    lowest-hit-rate-first policy.  All candidate probing (the halving
    probes, the binary search, the verification re-profiles) goes
    through ``ctx``, so repeated probes of the same size are compiled
    once and replays run on the session's trace.
    """
    baseline_stages = ctx.compile(program).stages_used
    halved = find_candidates(ctx, program, profile)
    candidates = list(halved)
    if candidate_order is not None:
        candidates = candidate_order(candidates)

    decisions: List[Decision] = []
    for halving in candidates:
        if halved[halving] >= baseline_stages:
            decisions.append(
                Decision(
                    Phase.REDUCE_MEMORY, Verdict.REJECTED, halving,
                    Reason.NO_STAGE_SAVED,
                    stages_before=baseline_stages,
                    stages_after=halved[halving],
                )
            )
            continue
        floor = installed(config, halving)
        size = minimal_reduction(
            ctx, program, halving, baseline_stages, floor
        )
        if size is None:
            decisions.append(
                Decision(
                    Phase.REDUCE_MEMORY, Verdict.REJECTED, halving,
                    Reason.ENTRIES_DO_NOT_FIT,
                    stages_before=baseline_stages,
                    stages_after=halved[halving],
                    evidence=(
                        f"the config installs {floor}; no size from "
                        f"{floor} up saves a stage",
                    ),
                )
            )
            continue
        resize = replace(halving, new_size=size)
        resized = _resized(program, resize, resize.new_size)
        diff = tuple(profile.behavior_diff(ctx.profile(resized, config)))
        decisions.append(
            Decision(
                Phase.REDUCE_MEMORY,
                Verdict.REJECTED if diff else Verdict.ACCEPTED,
                resize,
                Reason.BEHAVIOUR_CHANGED if diff else None,
                stages_before=baseline_stages,
                stages_after=ctx.compile(resized).stages_used,
                evidence=diff,
            )
        )
        if not diff:
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
