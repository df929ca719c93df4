"""System-level invariant checks.

A reproduction is only as credible as its bookkeeping.  These checks
express the PReCinCt state invariants as executable assertions over a
live :class:`~repro.core.network.PReCinCtNetwork`:

* **cache accounting** — every peer's ``used_bytes`` equals the sum of
  its resident entries and never exceeds capacity, and its victim index
  covers every entry (a record with the entry's admission ``seq`` at or
  below its current priority) within the index's size bound;
* **custody sanity** — a key is never custodied twice by one peer (set
  semantics) and total custody never exceeds the configured copy count;
* **pending consistency** — every pending request has a live timeout
  and a phase the state machine knows;
* **version monotonicity** — no cached copy is *newer* than the
  authoritative version;
* **region residency** — every live peer's ``current_region_id`` names
  an existing region.

Tests call :func:`check_all` after simulations; long-running experiments
can enable periodic checking with ``attach_periodic_checker``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.cache import INDEX_SLACK

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.cache import PeerCache
    from repro.core.network import PReCinCtNetwork

__all__ = [
    "InvariantViolation",
    "attach_periodic_checker",
    "check_all",
    "check_cache",
    "check_cache_accounting",
    "check_custody",
    "check_pending_requests",
    "check_region_residency",
    "check_version_monotonicity",
]


class InvariantViolation(AssertionError):
    """Raised when a system invariant does not hold."""


def check_cache(cache: "PeerCache", owner: str = "cache") -> None:
    """Byte accounting and victim-index invariants of one cache.

    The index half is what makes heap eviction exact (see
    :mod:`repro.core.cache`); it fails when something assigns a lower
    ``entry.priority`` without going through :meth:`PeerCache.hit`.
    """
    actual = sum(e.size_bytes for e in cache.entries.values())
    if not math.isclose(actual, cache.used_bytes, rel_tol=1e-9, abs_tol=1e-6):
        raise InvariantViolation(
            f"{owner}: used_bytes={cache.used_bytes} but entries "
            f"sum to {actual}"
        )
    if cache.used_bytes > cache.capacity_bytes + 1e-6:
        raise InvariantViolation(
            f"{owner}: cache over capacity "
            f"({cache.used_bytes} > {cache.capacity_bytes})"
        )
    heap = cache._heap
    if len(heap) > 2 * len(cache.entries) + INDEX_SLACK:
        raise InvariantViolation(
            f"{owner}: victim index holds {len(heap)} records for "
            f"{len(cache.entries)} entries"
        )
    covered = set()
    for priority, seq, key in heap:
        entry = cache.entries.get(key)
        if entry is not None and entry.seq == seq and priority <= entry.priority:
            covered.add(key)
    for key, entry in cache.entries.items():
        if key not in covered:
            raise InvariantViolation(
                f"{owner}: key {key} (priority {entry.priority}, seq "
                f"{entry.seq}) has no index record at or below its priority"
            )


def check_cache_accounting(net: "PReCinCtNetwork") -> None:
    for peer in net.peers:
        check_cache(peer.cache, f"peer {peer.id}")


def check_custody(net: "PReCinCtNetwork") -> None:
    max_copies = 2 if net.cfg.enable_replication else 1
    counts = [0] * len(net.db)
    for peer in net.peers:
        for key in peer.static_keys:
            counts[key] += 1
    # Handoffs in flight can momentarily hold an extra in-transit copy
    # at the message level, but *custody* (static_keys membership) must
    # never exceed the configured replication degree plus one transient.
    for key, count in enumerate(counts):
        if count > max_copies + 1:
            raise InvariantViolation(
                f"key {key} custodied {count} times (max {max_copies} + 1 transient)"
            )


def check_pending_requests(net: "PReCinCtNetwork") -> None:
    from repro.core.peer import PHASE_HOME, PHASE_LOCAL, PHASE_POLL, PHASE_REPLICA

    known = {PHASE_LOCAL, PHASE_HOME, PHASE_REPLICA, PHASE_POLL}
    for peer in net.peers:
        for request_id, pending in peer.pending.items():
            if pending.request_id != request_id:
                raise InvariantViolation(
                    f"peer {peer.id}: pending key {request_id} holds "
                    f"request {pending.request_id}"
                )
            if pending.phase not in known:
                raise InvariantViolation(
                    f"peer {peer.id}: unknown phase {pending.phase!r}"
                )
            if pending.timeout_handle is None:
                raise InvariantViolation(
                    f"peer {peer.id}: pending {request_id} has no timeout"
                )


def check_version_monotonicity(net: "PReCinCtNetwork") -> None:
    for peer in net.peers:
        for key, entry in peer.cache.entries.items():
            authoritative = net.db.version_of(key)
            if entry.version > authoritative:
                raise InvariantViolation(
                    f"peer {peer.id}: cached version {entry.version} of key "
                    f"{key} exceeds authoritative {authoritative}"
                )


def check_region_residency(net: "PReCinCtNetwork") -> None:
    valid = set(net.table.region_ids())
    for peer in net.peers:
        if not net.network.is_alive(peer.id):
            continue
        if peer.current_region_id not in valid:
            raise InvariantViolation(
                f"peer {peer.id} resides in unknown region "
                f"{peer.current_region_id}"
            )


_ALL = (
    check_cache_accounting,
    check_custody,
    check_pending_requests,
    check_version_monotonicity,
    check_region_residency,
)


def check_all(net: "PReCinCtNetwork") -> None:
    """Run every invariant check; raises :class:`InvariantViolation`."""
    for check in _ALL:
        check(net)


def attach_periodic_checker(net: "PReCinCtNetwork", interval: float = 10.0) -> None:
    """Re-check all invariants every ``interval`` virtual seconds.

    Intended for debugging runs; adds noticeable overhead.
    """
    net._every(interval, check_all, net)
