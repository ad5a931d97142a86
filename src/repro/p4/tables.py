"""Match-action tables.

Tables map parsed header fields to actions.  Their declared ``size`` (entry
capacity) drives memory accounting in the target model and is the second
knob phase 3 (§3.3) resizes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from typing import Tuple

from repro.exceptions import P4SemanticsError
from repro.p4.expressions import FieldRef
from repro.p4.types import KeepsPinsLocal


class MatchKind(enum.Enum):
    """How a key field is matched.

    Exact keys live in SRAM; ternary and LPM keys need TCAM on RMT targets.
    """

    EXACT = "exact"
    LPM = "lpm"
    TERNARY = "ternary"

    @property
    def needs_tcam(self) -> bool:
        return self is not MatchKind.EXACT


@dataclass(frozen=True)
class TableKey:
    """One match key: a field and its match kind."""

    field: FieldRef
    kind: MatchKind

    def __str__(self) -> str:
        return f"{self.field}: {self.kind.value}"


@dataclass(frozen=True)
class Table(KeepsPinsLocal):
    """A match-action table.

    ``actions`` are names of actions declared in the program.  The
    ``default_action`` runs on a miss (with compile-time arguments).
    A table with no keys always misses and thus always executes its default
    action — the shape the offload phase uses for its ``To_Ctl`` table.
    """

    name: str
    keys: Tuple[TableKey, ...] = ()
    actions: Tuple[str, ...] = ()
    default_action: str = "NoAction"
    default_action_args: Tuple[int, ...] = ()
    size: int = 1024

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(
            self, "default_action_args", tuple(self.default_action_args)
        )
        if self.size <= 0:
            raise P4SemanticsError(
                f"table {self.name!r}: size must be positive"
            )
        if len(set(self.actions)) != len(self.actions):
            raise P4SemanticsError(
                f"table {self.name!r}: duplicate action references"
            )

    @property
    def is_ternary(self) -> bool:
        """True if any key needs TCAM."""
        return any(k.kind.needs_tcam for k in self.keys)

    @property
    def match_fields(self) -> Tuple[FieldRef, ...]:
        return tuple(k.field for k in self.keys)

    def resized(self, new_size: int) -> "Table":
        """Return a copy with a different entry capacity (phase 3)."""
        return Table(
            name=self.name,
            keys=self.keys,
            actions=self.actions,
            default_action=self.default_action,
            default_action_args=self.default_action_args,
            size=new_size,
        )

    def all_action_names(self) -> Tuple[str, ...]:
        """Hit actions plus the default action, deduplicated, hit first."""
        names = list(self.actions)
        if self.default_action not in names:
            names.append(self.default_action)
        return tuple(names)

    def __str__(self) -> str:
        keys = ", ".join(str(k) for k in self.keys)
        acts = ", ".join(self.actions)
        return (
            f"table {self.name} {{ keys: [{keys}]; actions: [{acts}]; "
            f"default: {self.default_action}; size: {self.size}; }}"
        )
