"""Table lookup: exact, longest-prefix, and ternary matching.

Two implementations of the same winner-selection semantics live here:

* :func:`lookup` — the reference linear scan, re-canonicalizing every
  entry per packet.  Kept as the legacy baseline (``RuntimeConfig.
  enable_compiled_tables = False``) and as the oracle the equivalence
  tests compare against.
* :func:`compile_table` / :class:`CompiledTable` — per-run precompiled
  match structures: exact tables become hash maps, single-LPM-key tables
  become per-prefix-length hash buckets probed longest-first, and the
  general case becomes a priority-ordered scan over premasked specs.
  The batched profiling engine builds these once per run instead of
  per packet.

Both paths are pure functions of ``(table, entries, key values)`` — they
read no register state.  Entry ranking is identical everywhere: highest
``(total LPM specificity, priority)`` wins, ties broken by installation
order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SimulationError
from repro.p4.tables import MatchKind, Table
from repro.sim.runtime import TableEntry


def _spec_matches(
    kind: MatchKind, spec, value: int
) -> Tuple[bool, int]:
    """Return (matches, specificity).

    Specificity is the prefix length for LPM keys (used to pick the longest
    prefix) and 0 otherwise.
    """
    if kind is MatchKind.EXACT:
        return (spec == value, 0)
    if kind is MatchKind.LPM:
        # lookup() canonicalizes LPM specs to (value, prefix_len, width).
        match_value, plen, width = spec
        if plen == 0:
            return (True, 0)
        shift = width - plen
        return ((value >> shift) == (match_value >> shift), plen)
    # TERNARY
    match_value, mask = spec
    return ((value & mask) == (match_value & mask), 0)


def lookup(
    table: Table,
    key_widths: Sequence[int],
    key_values: Sequence[int],
    entries: Sequence[TableEntry],
) -> Optional[TableEntry]:
    """Find the winning entry for the given key values, or None (miss).

    * Exact tables: first (unique) equal entry wins.
    * LPM: the entry with the longest total prefix length wins.
    * Ternary: the matching entry with the highest priority wins.
    """
    if len(key_values) != len(table.keys):
        raise SimulationError(
            f"table {table.name!r}: got {len(key_values)} key values for "
            f"{len(table.keys)} keys"
        )
    best: Optional[TableEntry] = None
    best_rank: Tuple[int, int] = (-1, -1)
    for entry in entries:
        total_specificity = 0
        matched = True
        for key, width, spec, value in zip(
            table.keys, key_widths, entry.match, key_values
        ):
            if key.kind is MatchKind.LPM:
                match_value, plen = spec
                canonical = (match_value, plen, width)
                ok, specificity = _spec_matches(key.kind, canonical, value)
            else:
                ok, specificity = _spec_matches(key.kind, spec, value)
            if not ok:
                matched = False
                break
            total_specificity += specificity
        if not matched:
            continue
        rank = (total_specificity, entry.priority)
        if best is None or rank > best_rank:
            best = entry
            best_rank = rank
    return best


# ----------------------------------------------------------------------
# Precompiled match structures (built once per profiling run).


def _entry_masks(
    table: Table, key_widths: Sequence[int], entry: TableEntry
) -> Tuple[Tuple[Tuple[int, int], ...], int]:
    """Premask one entry: ((mask, target) per key, total LPM specificity).

    A key value ``v`` matches iff ``v & mask == target`` — exact keys use
    the full-width mask, LPM keys the prefix mask, ternary keys their own
    mask.  This is exactly :func:`_spec_matches` with the per-packet
    canonicalization hoisted out.
    """
    pairs: List[Tuple[int, int]] = []
    specificity = 0
    for key, width, spec in zip(table.keys, key_widths, entry.match):
        if key.kind is MatchKind.EXACT:
            mask = (1 << width) - 1
            pairs.append((mask, spec & mask))
        elif key.kind is MatchKind.LPM:
            value, plen = spec
            mask = (((1 << plen) - 1) << (width - plen)) if plen else 0
            pairs.append((mask, value & mask))
            specificity += plen
        else:  # TERNARY
            value, mask = spec
            pairs.append((mask, value & mask))
    return tuple(pairs), specificity


class CompiledTable:
    """One table's entries, preprocessed for O(1)/near-O(1) lookup.

    Strategy is chosen from the key kinds:

    * all-exact → one dict keyed by the value tuple,
    * exactly one LPM key (rest exact) → per-prefix-length dicts probed
      longest prefix first,
    * anything else (ternary, multi-LPM) → a scan over premasked specs in
      descending ``(specificity, priority)`` order, first match wins.

    All three reproduce :func:`lookup`'s ranking bit-for-bit; a property
    test drives them against the reference scan with random entries.

    ``match(key)`` is the probe: ``key`` is the key value itself on a
    single-key table and the tuple of key values otherwise, and a hit
    returns ``bind(entry)``, so a caller binds what a hit runs once per
    entry instead of once per packet.
    """

    __slots__ = ("table_name", "match")

    def __init__(
        self,
        table: Table,
        key_widths: Sequence[int],
        entries: Sequence[TableEntry],
        bind: Callable[[TableEntry], Any],
    ):
        self.table_name = table.name
        kinds = [key.kind for key in table.keys]
        single = len(kinds) == 1

        def key_of(values: Tuple[int, ...]):
            return values[0] if single else values

        # Rank entries once: highest (specificity, priority) first, ties
        # by installation order (stable sort) — lookup()'s exact order.
        ranked = sorted(
            (
                (*_entry_masks(table, key_widths, entry), entry)
                for entry in entries
            ),
            key=lambda item: (-item[1], -item[2].priority),
        )

        if all(kind is MatchKind.EXACT for kind in kinds):
            exact: Dict = {}
            for pairs, _spec, entry in ranked:
                values = key_of(tuple(target for _mask, target in pairs))
                exact.setdefault(values, entry)
            self.match = {
                values: bind(entry) for values, entry in exact.items()
            }.get
        elif kinds.count(MatchKind.LPM) == 1 and all(
            kind in (MatchKind.EXACT, MatchKind.LPM) for kind in kinds
        ):
            pos = kinds.index(MatchKind.LPM)
            lpm_width = key_widths[pos]
            # With a single LPM key, an entry's specificity IS its prefix
            # length, so bucketing by specificity buckets by prefix.
            buckets: Dict[int, Dict] = {}
            for pairs, plen, entry in ranked:
                masked = key_of(tuple(target for _mask, target in pairs))
                buckets.setdefault(plen, {}).setdefault(masked, entry)
            probes = [
                (
                    (((1 << plen) - 1) << (lpm_width - plen)) if plen else 0,
                    {values: bind(entry) for values, entry in
                     buckets[plen].items()},
                )
                for plen in sorted(buckets, reverse=True)
            ]
            if single:
                def match(value: int):
                    for prefix, bucket in probes:
                        found = bucket.get(value & prefix)
                        if found is not None:
                            return found
                    return None
            else:
                def match(values: Tuple[int, ...]):
                    probe = list(values)
                    value = values[pos]
                    for prefix, bucket in probes:
                        probe[pos] = value & prefix
                        found = bucket.get(tuple(probe))
                        if found is not None:
                            return found
                    return None
            self.match = match
        elif single:
            scan = [
                (*pairs[0], bind(entry)) for pairs, _spec, entry in ranked
            ]

            def match(value: int):
                for key_mask, target, found in scan:
                    if value & key_mask == target:
                        return found
                return None

            self.match = match
        else:
            scan = [(pairs, bind(entry)) for pairs, _spec, entry in ranked]

            def match(values: Tuple[int, ...]):
                for pairs, found in scan:
                    for (key_mask, target), value in zip(pairs, values):
                        if value & key_mask != target:
                            break
                    else:
                        return found
                return None

            self.match = match


def compile_table(
    table: Table,
    key_widths: Sequence[int],
    entries: Sequence[TableEntry],
    bind: Callable[[TableEntry], Any],
) -> CompiledTable:
    """Build the precompiled match structure for one table."""
    return CompiledTable(table, key_widths, entries, bind)
