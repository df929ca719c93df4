"""Fault-plan runtime: message filter + scheduled node/partition events.

Message faults
--------------
:class:`MessageFaultInjector` is the per-delivery filter installed into
:class:`~repro.net.network.WirelessNetwork` (see
:meth:`~repro.net.network.WirelessNetwork.set_fault_filter`).  For every
would-be delivery it returns either ``None`` (untouched) or a list of
extra delivery delays — an empty list drops the delivery, ``[0.0, d]``
delivers the original plus one duplicate ``d`` seconds later.  Rule
semantics:

* ``drop`` — the delivery is **silently** lost: the sender still pays
  the transmission (energy, channel time) and learns nothing, so upper
  layers discover the loss through their timeouts, as on a real lossy
  channel.  (Dead-destination and out-of-range drops keep the existing
  sender-visible semantics — those model routing-layer knowledge.)
* ``duplicate`` — ``copies`` extra copies arrive, spaced
  :data:`DUP_SPACING_S` apart, exercising duplicate suppression.
* ``delay`` — a deterministic extra ``delay_s`` seconds of latency.
* ``reorder`` — a uniform extra delay in ``[0, delay_s)``, permuting
  arrival order relative to unaffected traffic.

Matching rules compose in plan order: delays accumulate, duplication
multiplies, and drop short-circuits everything.

Partitions are evaluated per delivery from the *current* region of the
two endpoints: while a ``partition`` window is open, any transmission
with exactly one endpoint inside the named region group is lost.

Node events
-----------
:class:`FaultController` owns a plan's schedule inside a
:class:`~repro.core.network.PReCinCtNetwork`: it installs the message
filter, registers ``crash``/``recover``/partition boundaries on the
simulator, and — when ``check_invariants`` is set (the audit harness
does this) — runs :func:`repro.core.invariants.check_all` at every
fault boundary, turning the invariants module into an actively
exercised correctness tool.

Determinism
-----------
Every rule draws from its own named substream
(``faults.<index>.<kind>``) of the run's
:class:`~repro.sim.rng.RngRegistry`.  Identical seed + config + plan
therefore replays the exact same fault sequence, which the golden-trace
harness in :mod:`repro.faults.audit` relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.network import PReCinCtNetwork
    from repro.net.packet import Packet

__all__ = ["DUP_SPACING_S", "FaultController", "MessageFaultInjector"]

#: Spacing between duplicate copies of one transmission (seconds).
DUP_SPACING_S = 1e-4


class MessageFaultInjector:
    """Deterministic per-delivery fault filter.

    Parameters
    ----------
    rules:
        Message-fault specs (``drop``/``duplicate``/``delay``/``reorder``).
    rngs:
        The run's :class:`~repro.sim.rng.RngRegistry`; one substream is
        derived per rule.
    sim:
        The simulator (for the virtual clock).
    stats:
        Stat registry charged with ``faults.*`` counters.
    partitions:
        ``partition`` specs; require ``region_of``.
    region_of:
        ``node_id -> region_id`` lookup used by partition evaluation.
    """

    def __init__(
        self,
        rules: Sequence[FaultSpec],
        rngs,
        sim,
        stats,
        partitions: Sequence[FaultSpec] = (),
        region_of: Optional[Callable[[int], int]] = None,
    ):
        self.sim = sim
        self.stats = stats
        self.partitions = tuple(partitions)
        self.region_of = region_of
        #: Optional ``callback(kind, src, dst, packet)`` fired whenever a
        #: rule actually bites a delivery — the tracer's fault-tag hook.
        self.observer = None
        if self.partitions and region_of is None:
            raise ValueError("partition rules require a region_of lookup")
        self._rules: List[Tuple[FaultSpec, np.random.Generator]] = [
            (rule, rngs.get(f"faults.{index}.{rule.kind}"))
            for index, rule in enumerate(rules)
        ]

    def _partitioned(self, src: int, dst: int, now: float) -> bool:
        for spec in self.partitions:
            if not spec.active(now):
                continue
            group = spec.regions
            if (self.region_of(src) in group) != (self.region_of(dst) in group):
                return True
        return False

    def __call__(self, src: int, dst: int, packet: "Packet") -> Optional[List[float]]:
        """Decide the fate of one delivery.

        Returns ``None`` (deliver normally), ``[]`` (drop), or a list of
        extra delays, one scheduled delivery per element.
        """
        now = self.sim.now
        if self.partitions and self._partitioned(src, dst, now):
            self.stats.count("faults.partition_blocked")
            self._observe("partition", src, dst, packet)
            return []
        extra = 0.0
        copies = 1
        touched = False
        for rule, rng in self._rules:
            if not rule.matches(now, src, dst, packet.category):
                continue
            if rule.kind == "drop":
                if rule.probability >= 1.0 or rng.random() < rule.probability:
                    self.stats.count("faults.injected_drop")
                    self._observe("drop", src, dst, packet)
                    return []
            elif rule.kind == "duplicate":
                if rule.probability >= 1.0 or rng.random() < rule.probability:
                    copies += rule.copies
                    touched = True
                    self.stats.count("faults.duplicated", rule.copies)
                    self._observe("duplicate", src, dst, packet)
            elif rule.kind == "delay":
                if rule.probability >= 1.0 or rng.random() < rule.probability:
                    extra += rule.delay_s
                    touched = True
                    self.stats.count("faults.delayed")
                    self._observe("delay", src, dst, packet)
            elif rule.kind == "reorder":
                if rule.probability >= 1.0 or rng.random() < rule.probability:
                    extra += float(rng.uniform(0.0, rule.delay_s))
                    touched = True
                    self.stats.count("faults.reordered")
                    self._observe("reorder", src, dst, packet)
        if not touched:
            return None
        return [extra + i * DUP_SPACING_S for i in range(copies)]

    def _observe(self, kind: str, src: int, dst: int, packet: "Packet") -> None:
        if self.observer is not None:
            self.observer(kind, src, dst, packet)


class FaultController:
    """Installs a :class:`FaultPlan` into a live PReCinCt simulation."""

    def __init__(
        self,
        host: "PReCinCtNetwork",
        plan: FaultPlan,
        check_invariants: bool = False,
    ):
        self.host = host
        self.plan = plan
        #: Re-run ``invariants.check_all`` after every fault boundary
        #: (crash, recover, partition, heal).  Set by the audit harness.
        self.check_invariants = check_invariants
        self.injector: Optional[MessageFaultInjector] = None
        self._installed = False

    def install(self) -> None:
        """Wire the plan: message filter now, node events on the clock."""
        if self._installed:
            raise RuntimeError("FaultController.install() may only run once")
        self._installed = True
        host = self.host
        rules = self.plan.message_rules
        partitions = self.plan.partitions
        if rules or partitions:
            self.injector = MessageFaultInjector(
                rules,
                host.rngs,
                host.sim,
                host.stats,
                partitions=partitions,
                region_of=lambda node: int(host._region_of_peer[node]),
            )
            host.network.set_fault_filter(self.injector)
        for spec in self.plan.node_events:
            host.sim.schedule_at(spec.at, self._fire_node_event, spec)
        for spec in partitions:
            host.sim.schedule_at(spec.start, self._on_partition, spec)
            if spec.end is not None:
                host.sim.schedule_at(spec.end, self._on_heal, spec)

    # -- node events -----------------------------------------------------

    def _targets(self, spec: FaultSpec) -> List[int]:
        if spec.nodes:
            return list(spec.nodes)
        # Region-based targeting resolves membership when the event
        # fires, so "crash the home region" follows mobility.
        return self.host._peers_in_region(spec.region)

    def _fire_node_event(self, spec: FaultSpec) -> None:
        host = self.host
        if spec.kind == "crash":
            for node in self._targets(spec):
                if not host.network.is_alive(node):
                    continue
                # A crash is never graceful: no key handoff happens.
                host.peers[node].prepare_departure(graceful=False)
                host.network.fail_node(node)
                host.stats.count("faults.crashes")
                host.trace("fault.crash", node=node)
        else:  # recover
            for node in self._targets(spec):
                if host.network.is_alive(node):
                    continue
                host._rejoin(node)
                host.stats.count("faults.recoveries")
                host.trace("fault.recover", node=node)
        self._boundary(spec.kind)

    def _on_partition(self, spec: FaultSpec) -> None:
        self.host.stats.count("faults.partitions")
        self.host.trace("fault.partition", regions=list(spec.regions))
        self._boundary("partition")

    def _on_heal(self, spec: FaultSpec) -> None:
        self.host.stats.count("faults.heals")
        self.host.trace("fault.heal", regions=list(spec.regions))
        self._boundary("heal")

    def _boundary(self, kind: str) -> None:
        """A fault boundary: optionally prove the invariants still hold.

        A violation dumps a flight-recorder bundle (when the host has one
        armed) before propagating — the post-mortem state would otherwise
        die with the raised exception.
        """
        if self.check_invariants:
            from repro.core.invariants import InvariantViolation, check_all

            try:
                check_all(self.host)
            except InvariantViolation as exc:
                recorder = getattr(self.host, "recorder", None)
                if recorder is not None:
                    recorder.dump(
                        "invariant-violation",
                        context={"boundary": kind, "error": str(exc)},
                        sim_time=self.host.sim.now,
                    )
                raise
