"""The RMT target model.

Describes the pipeline the compiler maps programs onto: a fixed number of
match-action stages, each with its own SRAM and TCAM block pools and a
bound on how many logical tables it can host.  The numbers are the knobs
the paper's narrative depends on (per-stage budgets force the FIB to span
two stages, a sketch row to monopolize a stage, ...), not a cycle-accurate
chip description — the substitute for the NDA-gated vendor compiler.

Memory is allocated in *blocks* (the RMT unit of SRAM/TCAM assignment);
:meth:`TargetModel.sram_blocks_for` / :meth:`TargetModel.tcam_blocks_for`
round byte footprints up to whole blocks, and any non-empty resource
occupies at least one block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

from repro.exceptions import CompilationError


@dataclass(frozen=True)
class TargetModel:
    """An RMT-style pipeline target.

    All parameters must be positive; violations raise
    :class:`~repro.exceptions.CompilationError` so a malformed target file
    fails loudly at load time rather than mid-allocation.
    """

    name: str = "rmt-default"
    #: Number of physical match-action stages.
    num_stages: int = 12
    #: SRAM blocks per stage (exact-match tables and register arrays).
    sram_blocks_per_stage: int = 16
    #: TCAM blocks per stage (ternary/LPM match memory).
    tcam_blocks_per_stage: int = 8
    #: Bytes per SRAM block.
    sram_block_bytes: int = 1024
    #: Bytes per TCAM block.
    tcam_block_bytes: int = 256
    #: Logical tables a single stage can host.
    max_tables_per_stage: int = 8

    def __post_init__(self) -> None:
        for f in dc_fields(self):
            if f.name == "name":
                if not self.name:
                    raise CompilationError("target model needs a name")
                continue
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise CompilationError(
                    f"target parameter {f.name!r} must be an integer, "
                    f"got {value!r}"
                )
            if value <= 0:
                raise CompilationError(
                    f"target parameter {f.name!r} must be positive, "
                    f"got {value}"
                )

    # ------------------------------------------------------------------
    # Derived capacities

    @property
    def sram_bytes_per_stage(self) -> int:
        return self.sram_blocks_per_stage * self.sram_block_bytes

    @property
    def tcam_bytes_per_stage(self) -> int:
        return self.tcam_blocks_per_stage * self.tcam_block_bytes

    # ------------------------------------------------------------------
    # Block rounding

    def sram_blocks_for(self, nbytes: int) -> int:
        """SRAM blocks needed for ``nbytes`` (at least one)."""
        return self._blocks_for(nbytes, self.sram_block_bytes)

    def tcam_blocks_for(self, nbytes: int) -> int:
        """TCAM blocks needed for ``nbytes`` (at least one)."""
        return self._blocks_for(nbytes, self.tcam_block_bytes)

    @staticmethod
    def _blocks_for(nbytes: int, block_bytes: int) -> int:
        if nbytes < 0:
            raise CompilationError(
                f"memory footprint must be non-negative, got {nbytes}"
            )
        return max(1, -(-nbytes // block_bytes))

    def fingerprint(self) -> tuple:
        """Canonical content key of this target (every field, name
        included — a :class:`~repro.target.compiler.CompileResult`
        embeds the target, so entries must not be shared between
        same-shape targets with different names).  The session keys its
        compile memo and the persistent store on this, so two targets
        that differ only in shape never share a compile entry — a
        design-space sweep depends on that."""
        return tuple(getattr(self, f.name) for f in dc_fields(self))

    def __str__(self) -> str:
        return (
            f"target {self.name}: {self.num_stages} stages, "
            f"{self.sram_blocks_per_stage}x{self.sram_block_bytes}B SRAM + "
            f"{self.tcam_blocks_per_stage}x{self.tcam_block_bytes}B TCAM "
            f"per stage, <= {self.max_tables_per_stage} tables/stage"
        )


#: The default target the CLI and baselines compile against.
DEFAULT_TARGET = TargetModel()
