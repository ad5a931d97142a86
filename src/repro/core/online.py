"""Online profiling (§6, "dynamic compilation").

The paper's future-work direction: "online profiling in which we would
instrument the program with monitoring instructions that update the
profile at runtime ... enables real-time adaptation of programs".

This module implements the monitoring half: an :class:`OnlineProfiler`
runs the original program and reads each packet's step log through the
same fold the offline profiler uses
(:func:`~repro.core.profiler.path_facts` — our simulator reports what
the paper's "monitoring instructions" would record, so nothing is
instrumented), maintaining streaming statistics over a sliding window.
Like the offline profiler it folds each distinct step log once: a memo
on the monitor, bounded by the program's control paths, answers every
later packet that takes the same path.  Against a baseline profile it
raises alerts the moment live traffic invalidates an optimization-time
observation:

* a **new non-exclusive action combination** appears (e.g. the two ACL
  drops fire on one packet — a removed dependency just manifested),
* a table's **windowed hit rate drifts** beyond tolerance.  A table's
  rate moves only on a packet that adds it to the window or evicts it
  (``evicted ^ hit_tables``), so once the window has filled — when every
  table is checked — only those tables are re-checked, in
  ``program.tables`` order: the same alerts, in the same order, as a
  re-check of every table on every packet.

Reacting is the caller's decision, mirroring the paper's cost trade-off
discussion — but once taken, :meth:`OnlineProfiler.reoptimize` re-runs
P2GO on a trace of the drifted traffic *warm*: through the shared
optimization session (and its persistent
:class:`~repro.core.store.SessionStore`, when attached), every candidate
whose content is unchanged is answered from cache instead of being
recompiled or replayed.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.profiler import ActionPair, PathFacts, Profile, path_facts

if TYPE_CHECKING:  # pragma: no cover — typing-only import, no cycle
    from repro.core.session import OptimizationContext
from repro.p4.program import Program
from repro.sim.events import ExecutionStep
from repro.sim.runtime import RuntimeConfig
from repro.sim.switch import BehavioralSwitch, ParseTemplate, SwitchResult


class AlertKind(enum.Enum):
    NEW_ACTION_COMBINATION = "new_action_combination"
    HIT_RATE_DRIFT = "hit_rate_drift"


@dataclass(frozen=True)
class OnlineAlert:
    kind: AlertKind
    subject: str
    details: str
    packet_index: int


AlertCallback = Callable[[OnlineAlert], None]


def check_monitor_settings(window: int, hit_rate_tolerance: float) -> None:
    """Refuse a window or drift tolerance no monitor can use.

    A negative tolerance would alert on every table as soon as the
    window fills; ``not >= 0`` also catches NaN.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if not hit_rate_tolerance >= 0:
        raise ValueError(
            f"hit_rate_tolerance must be >= 0, got {hit_rate_tolerance}"
        )


class OnlineProfiler:
    """Live per-packet profiling with sliding-window drift alerts."""

    def __init__(
        self,
        program: Program,
        config: RuntimeConfig,
        baseline: Optional[Profile] = None,
        window: int = 1000,
        hit_rate_tolerance: float = 0.10,
        alert_callback: Optional[AlertCallback] = None,
        session: Optional["OptimizationContext"] = None,
    ):
        check_monitor_settings(window, hit_rate_tolerance)
        if baseline is None and session is not None:
            # Share the optimization run's compile/profile session: the
            # baseline is the (memoized) profile of this program/config
            # on the session's trace — free when P2GO already computed
            # it, replayed once and cached otherwise.
            baseline = session.profile(program, config)
        self._switch = BehavioralSwitch(program, config)
        self.program = program
        self.config = config
        #: The shared optimization session, when one was provided —
        #: :meth:`reoptimize` re-runs P2GO through it so every candidate
        #: the original run probed (and everything a persistent store
        #: holds) is reused.
        self.session = session
        self.baseline = baseline
        self.window = window
        self.hit_rate_tolerance = hit_rate_tolerance
        self.alert_callback = alert_callback

        self._packets_seen = 0
        self._window_hits: Deque[FrozenSet[str]] = deque(maxlen=window)
        self._hit_counts: Dict[str, int] = {}
        self._seen_combinations: Set[FrozenSet[ActionPair]] = set(
            baseline.nonexclusive_sets
        ) if baseline is not None else set()
        #: Baseline hit rate of every table, in ``program.tables`` order.
        self._baseline_rates: Dict[str, float] = {
            table: baseline.hit_rate(table) for table in program.tables
        } if baseline is not None else {}
        self._drifting: Set[str] = set()
        #: Step log -> its fold, one entry per control path taken.
        self._paths: Dict[Tuple[ExecutionStep, ...], PathFacts] = {}
        self.alerts: List[OnlineAlert] = []

    # ------------------------------------------------------------------
    def _emit(self, alert: OnlineAlert) -> None:
        self.alerts.append(alert)
        if self.alert_callback is not None:
            self.alert_callback(alert)

    def process(
        self, data: bytes, ingress_port: int = 0,
        template: Optional[ParseTemplate] = None,
    ) -> SwitchResult:
        """Forward one packet and update the live profile.  ``template``
        is the packet's parse by the program's parser, or None to parse
        it here (:meth:`BehavioralSwitch.process`)."""
        result = self._switch.process(data, ingress_port, template)
        index = self._packets_seen
        self._packets_seen += 1

        steps = tuple(result.steps)
        facts = self._paths.get(steps)
        if facts is None:
            facts = self._paths[steps] = path_facts(steps)
        pairs, hit_tables, _applied = facts

        # Maintain the sliding window of hit sets.
        evicted = None
        if len(self._window_hits) == self.window:
            evicted = self._window_hits[0]
            for table in evicted:
                self._hit_counts[table] -= 1
        self._window_hits.append(hit_tables)
        for table in hit_tables:
            self._hit_counts[table] = self._hit_counts.get(table, 0) + 1

        # Alert on never-before-seen action combinations.  Combinations
        # are marked seen only when the alert condition is actually
        # evaluated on real multi-table hits: a combination first seen on
        # a packet where only one table hit must not permanently suppress
        # a later genuine multi-hit sighting of the same pairs.
        if self.baseline is not None and len(pairs) > 1:
            hits_only = {p for p in pairs if p[0] in hit_tables}
            if len({p[0] for p in hits_only}) > 1:
                if pairs not in self._seen_combinations:
                    self._seen_combinations.add(pairs)
                    self._emit(
                        OnlineAlert(
                            kind=AlertKind.NEW_ACTION_COMBINATION,
                            subject=", ".join(
                                sorted(f"{t}.{a}" for t, a in hits_only)
                            ),
                            details=(
                                "action combination never observed during "
                                "offline profiling"
                            ),
                            packet_index=index,
                        )
                    )

        # Windowed hit-rate drift, once the window is full: every table
        # on the packet that fills it, then the tables whose count moved.
        if (
            self.baseline is not None
            and len(self._window_hits) == self.window
        ):
            moved = (
                self._baseline_rates if evicted is None
                else evicted ^ hit_tables
            )
            if moved:
                self._recheck(moved, index)
        return result

    def _recheck(self, moved, index: int) -> None:
        """Re-check the windowed hit rate of each table in ``moved``, in
        ``program.tables`` order, and alert on each that starts to
        drift."""
        for table, base in self._baseline_rates.items():
            if table not in moved:
                continue
            live = self._hit_counts.get(table, 0) / self.window
            if abs(live - base) > self.hit_rate_tolerance:
                if table not in self._drifting:
                    self._drifting.add(table)
                    self._emit(
                        OnlineAlert(
                            kind=AlertKind.HIT_RATE_DRIFT,
                            subject=table,
                            details=(
                                f"windowed hit rate {live:.1%} vs "
                                f"baseline {base:.1%}"
                            ),
                            packet_index=index,
                        )
                    )
            else:
                self._drifting.discard(table)

    # ------------------------------------------------------------------
    def reoptimize(self, trace, **p2go_kwargs):
        """Re-run P2GO on drifted traffic (§6's dynamic-compilation
        loop: a drift alert means the optimization-time profile no
        longer matches reality, so the program is re-optimized against
        a trace of the *new* traffic).

        The re-run goes through the monitor's ``session`` and starts
        warm: adopting the session re-keys the profile memo on the
        drifted traffic before any probe runs, so every candidate whose
        behaviour is unchanged under the new traffic is served from the
        session memo or the persistent store instead of being
        recompiled/replayed.  The adoption runs under a guard that
        restores the prior trace if the re-run raises
        (:meth:`~repro.core.pipeline.SwitchRun.execute`).  Raises
        :class:`ValueError` when the monitor has no session.  Returns
        the new :class:`~repro.core.pipeline.P2GOResult`.
        """
        from repro.core.pipeline import P2GO

        if self.session is None:
            raise ValueError(
                "reoptimize runs through the monitor's session; build the "
                "OnlineProfiler with session="
            )
        return P2GO(
            self.program,
            self.config,
            trace,
            self.session.target,
            session=self.session,
            **p2go_kwargs,
        ).run()

    # ------------------------------------------------------------------
    def window_hit_rate(self, table: str) -> float:
        if not self._window_hits:
            return 0.0
        return self._hit_counts.get(table, 0) / len(self._window_hits)

    @property
    def packets_seen(self) -> int:
        return self._packets_seen

    def snapshot(self) -> Dict[str, float]:
        """Current windowed hit rates for every table."""
        return {
            table: self.window_hit_rate(table)
            for table in self.program.tables
        }
