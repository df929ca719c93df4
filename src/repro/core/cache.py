"""Per-peer dynamic cache with cooperative admission control (paper §3).

Each peer's cache space is split into a *static* part (authoritative
values of keys homed in the peer's current region — held by the peer
layer, :attr:`repro.core.peer.Peer.static_store`) and the *dynamic* part
modeled here: opportunistically cached copies managed by a Greedy-Dual
replacement policy.

Admission control (§3.2): a response is cached only when the responder
resides in a *different* region — "Peers cooperatively cache data and
thus it is unnecessary to replicate data in the same region, as they can
be obtained locally for subsequent requests."

Replacement (§3.3, Fig. 1 ``CacheReplacementPolicy``): evict minimum-
priority entries until the new item fits; the cache's inflation floor
``L`` advances to each victim's priority, and the incoming entry is
primed at ``L + U(d)``.

Victim index.  The Greedy-Dual family is specified as a priority queue
plus ``L``, and that is what the cache keeps: a ``heapq`` of
``(priority, seq, key)`` records, ``seq`` being a per-cache admission
counter stamped on every :meth:`PeerCache.insert`.  A victim is the
live entry with the smallest ``(priority, seq)`` — among equal
priorities, the one admitted (or re-admitted) first, which is also the
first in ``entries`` order.  The heap is repaired lazily, when a victim
is needed, not on every hit: the one invariant is that **every live
entry has a record carrying its ``seq`` whose recorded priority is <=
its current priority**.  A hit therefore touches the heap only when the
policy *lowered* the priority (one push); raised priorities are caught
up with one ``heapreplace`` when their stale record surfaces, and
records of entries that left (or were re-admitted under a new ``seq``)
are discarded there as tombstones.  Under the invariant a top record
that matches its entry exactly is the true minimum, so eviction costs
O(log n) amortised instead of a scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace
from typing import Dict, List, Optional, Tuple

from repro.core.replacement import GDLDPolicy, ReplacementPolicy

__all__ = ["CachedCopy", "PeerCache"]


@dataclass
class CachedCopy:
    """One dynamically cached data item at one peer."""

    key: int
    size_bytes: float
    version: int
    #: Region-level access count driving the GD-LD popularity term.
    access_count: int = 0
    #: Distance between the requesting and responding regions' centers
    #: at fetch time (GD-LD's reg_dst, metres).
    region_distance: float = 0.0
    #: Current Time-to-Refresh duration assigned by the home region (s).
    ttr: float = 0.0
    #: Virtual time the copy was last validated/fetched.
    validated_at: float = 0.0
    #: Eviction priority maintained by the replacement policy.
    priority: float = 0.0
    #: Recency timestamp (used by LRU; refreshed on every hit).
    last_access: float = 0.0
    #: Admission sequence number, stamped by :meth:`PeerCache.insert`
    #: (the victim tie-break); not part of the copy's identity.
    seq: int = field(default=0, init=False, compare=False, repr=False)

    def is_fresh(self, now: float) -> bool:
        """True while the TTR window is open (Push-with-Adaptive-Pull)."""
        return now < self.validated_at + self.ttr


#: Heap records tolerated beyond two per live entry before the index is
#: rebuilt from ``entries`` (keeps tiny caches from rebuilding constantly).
INDEX_SLACK = 16


class PeerCache:
    """The dynamic cache of a single peer.

    Victims come from a lazily repaired min-heap of ``(priority, seq,
    key)`` records (see the module docstring): equal priorities break by
    admission order, a hit does heap work only if it lowered the
    priority, and stale records are repaired or dropped when they reach
    the top during an eviction.  ``len(heap) <= 2 * len(entries) +
    INDEX_SLACK`` between calls.  Code outside the cache and its policy
    must not assign ``entry.priority``: a priority lowered behind the
    cache's back breaks the index invariant
    (:func:`repro.core.invariants.check_cache` detects it).

    Parameters
    ----------
    capacity_bytes:
        Dynamic cache capacity.  Experiments express it as a percentage
        of the database's total size (paper: 0.5 %-2.5 %).
    policy:
        Replacement policy (default: the paper's GD-LD).
    """

    def __init__(
        self,
        capacity_bytes: float,
        policy: Optional[ReplacementPolicy] = None,
    ):
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be nonnegative, got {capacity_bytes}")
        self.capacity_bytes = float(capacity_bytes)
        self.policy = policy if policy is not None else GDLDPolicy()
        self.entries: Dict[int, CachedCopy] = {}
        self.used_bytes = 0.0
        #: Greedy-Dual inflation floor L (priority of the last victim).
        self.inflation = 0.0
        #: Victim index: ``(recorded priority, seq, key)`` min-heap.
        self._heap: List[Tuple[float, int, int]] = []
        self._next_seq = 0
        # -- statistics --
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0

    # -- queries -----------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: int) -> Optional[CachedCopy]:
        """Look up a copy without touching priorities (peek)."""
        return self.entries.get(key)

    def hit(self, key: int, now: float) -> Optional[CachedCopy]:
        """Look up a copy and refresh its priority (a real cache hit).

        The access count is bumped by the *peer* layer (which also sees
        other regional members' requests); this method only re-primes the
        priority so the policy sees the updated count.
        """
        entry = self.entries.get(key)
        if entry is None:
            return None
        entry.last_access = now
        before = entry.priority
        self.policy.on_hit(entry, self.inflation, now)
        if entry.priority < before:
            # The old record now overstates the priority; a raise needs
            # nothing (repaired when its record surfaces).
            self._record(entry)
        return entry

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    # -- admission and replacement (Fig. 1) ---------------------------------

    @staticmethod
    def should_admit(responder_region_id: int, requester_region_id: int) -> bool:
        """Cache admission control (§3.2): admit only cross-region data."""
        return responder_region_id != requester_region_id

    def insert(self, entry: CachedCopy, now: float) -> List[int]:
        """Admit ``entry``, evicting minimum-priority victims as needed.

        Returns the list of evicted keys.  If the item cannot fit even
        with an empty cache it is rejected (no eviction churn).
        Re-inserting an existing key replaces the old copy in place.
        """
        if entry.size_bytes > self.capacity_bytes:
            self.rejections += 1
            return []
        evicted: List[int] = []
        old = self.entries.pop(entry.key, None)
        if old is not None:
            self._release(old)
        while self.used_bytes + entry.size_bytes > self.capacity_bytes and self.entries:
            victim = self._pop_victim()
            self._release(victim)
            if self.policy.uses_inflation:
                # L = min utility in cache (the victim's priority).
                self.inflation = victim.priority
            evicted.append(victim.key)
            self.evictions += 1
        self.policy.prime(entry, self.inflation, now)
        entry.seq = self._next_seq
        self._next_seq += 1
        self.entries[entry.key] = entry
        self.used_bytes += entry.size_bytes
        self._record(entry)
        self.insertions += 1
        return evicted

    def evict(self, key: int) -> bool:
        """Explicitly drop a copy (e.g. on a Plain-Push invalidation)."""
        entry = self.entries.pop(key, None)
        if entry is None:
            return False
        self._release(entry)
        self._trim_index()
        self.evictions += 1
        return True

    def clear(self) -> None:
        self.entries.clear()
        self._heap.clear()
        self.used_bytes = 0.0

    # -- victim index --------------------------------------------------------

    def _release(self, entry: CachedCopy) -> None:
        """Un-account an entry already removed from ``entries``."""
        if self.entries:
            self.used_bytes -= entry.size_bytes
        else:
            # A running float sum does not return to zero by itself.
            self.clear()

    def _record(self, entry: CachedCopy) -> None:
        """Index ``entry`` (already in ``entries``) at its current priority."""
        heappush(self._heap, (entry.priority, entry.seq, entry.key))
        self._trim_index()

    def _trim_index(self) -> None:
        """Rebuild from ``entries`` once stale records outnumber live ones."""
        heap = self._heap
        if len(heap) > 2 * len(self.entries) + INDEX_SLACK:
            heap[:] = [(e.priority, e.seq, k) for k, e in self.entries.items()]
            heapify(heap)

    def _pop_victim(self) -> CachedCopy:
        """Remove and return the live entry with the least (priority, seq)."""
        heap = self._heap
        entries = self.entries
        while True:
            priority, seq, key = heap[0]
            entry = entries.get(key)
            if entry is None or entry.seq != seq or entry.priority < priority:
                heappop(heap)  # tombstone, or superseded by a lower record
            elif entry.priority > priority:
                heapreplace(heap, (entry.priority, seq, key))
            else:
                heappop(heap)
                del entries[key]
                return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerCache(used={self.used_bytes:.0f}/{self.capacity_bytes:.0f} B, "
            f"items={len(self.entries)}, L={self.inflation:.3g})"
        )
