"""Cache replacement policies (paper §3.3).

The paper's contribution is **GD-LD** (Greedy-Dual Least-Distance): a
Greedy-Dual-family policy whose base utility combines three factors
(eq. 1):

    U = wr * ac  +  wd * reg_dst  +  ws * (1 / size)

where ``ac`` is the item's access count in the region, ``reg_dst`` the
distance between requesting and responding regions, and ``size`` the
item size.  As in all Greedy-Dual policies, the cache maintains an
*inflation floor* ``L`` (the priority of the last evicted entry); a
newly admitted or re-hit entry gets priority ``L + U`` (the paper's
``U(d) = L + U(d)`` step in ``CacheReplacementPolicy``), so long-resident
unpopular entries age relative to fresh ones.

Baselines:

* **GD-Size** (Cao & Irani 1997) — Greedy-Dual with base utility
  ``1/size`` (uniform fetch cost): favors small items regardless of
  popularity, exactly the weakness Figs. 4-5 demonstrate.
* **LRU** — classic recency ordering, provided for ablations.

Policies are strategy objects; :class:`~repro.core.cache.PeerCache`
owns the floor ``L`` and calls the policy on admission and on hits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.cache import CachedCopy

__all__ = ["ReplacementPolicy", "GDLDPolicy", "GDSizePolicy", "LRUPolicy", "LFUPolicy"]


class ReplacementPolicy:
    """Interface: compute eviction priorities for cache entries.

    The cache evicts the entry with the *lowest* priority.  Greedy-Dual
    policies add the cache's inflation floor ``L`` on (re)priming; pure
    recency policies ignore it.
    """

    #: Whether the cache should advance its inflation floor to the
    #: priority of evicted entries (Greedy-Dual aging).
    uses_inflation = True

    def base_utility(self, entry: "CachedCopy") -> float:
        """Un-inflated utility of an entry (the paper's U from eq. 1)."""
        raise NotImplementedError

    def prime(self, entry: "CachedCopy", floor: float, now: float) -> None:
        """Set the entry's priority on admission (``U = L + U``)."""
        entry.priority = floor + self.base_utility(entry)

    def on_hit(self, entry: "CachedCopy", floor: float, now: float) -> None:
        """Refresh the entry's priority on a cache hit.

        The paper: "The utility value of the data item is updated when
        there is a hit" — the access count has grown, so the base
        utility is recomputed and re-inflated.
        """
        entry.priority = floor + self.base_utility(entry)


class GDLDPolicy(ReplacementPolicy):
    """Greedy-Dual Least-Distance (the paper's policy, eq. 1).

    Default weights equalize the magnitude of the three terms under the
    paper's parameters (access counts of order 1-100, region distances of
    order hundreds of metres, sizes of order kilobytes): ``wr = 1``,
    ``wd = 1/100`` (metres -> O(1-10)), ``ws = 1024`` (1/bytes -> O(0.1-1)).
    The weight sensitivity is explored by the ablation benchmark.
    """

    def __init__(self, wr: float = 1.0, wd: float = 0.01, ws: float = 1024.0):
        if min(wr, wd, ws) < 0:
            raise ValueError(f"weights must be nonnegative, got {(wr, wd, ws)}")
        self.wr = float(wr)
        self.wd = float(wd)
        self.ws = float(ws)

    def base_utility(self, entry: "CachedCopy") -> float:
        return (
            self.wr * entry.access_count
            + self.wd * entry.region_distance
            + self.ws / entry.size_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GDLDPolicy(wr={self.wr}, wd={self.wd}, ws={self.ws})"


class GDSizePolicy(ReplacementPolicy):
    """GD-Size with uniform fetch cost: base utility ``1/size``.

    "GD-Size favors small data items independent of their popularity,
    thus a large popular data item stands less chance of being cached"
    (paper §6.2.1).  The ``scale`` keeps priorities commensurate with
    GD-LD's so mixed-policy experiments compare like for like.

    Over equal-sized items this is *not* exactly LRU in this cache (the
    Cao & Irani reduction holds up to ties): a priority is ``L`` at the
    last touch plus a constant, so a victim is always an entry last
    touched under the smallest ``L`` of any live entry, but entries
    touched under the same ``L`` tie, and :class:`~repro.core.cache.
    PeerCache` breaks ties by admission order where LRU uses recency.
    The two evict identically whenever an eviction separates every two
    touches of different entries (``tests/test_replacement.py``).
    """

    def __init__(self, scale: float = 1024.0):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    def base_utility(self, entry: "CachedCopy") -> float:
        return self.scale / entry.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GDSizePolicy(scale={self.scale})"


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used baseline (no Greedy-Dual inflation)."""

    uses_inflation = False

    def base_utility(self, entry: "CachedCopy") -> float:
        return entry.last_access

    def prime(self, entry: "CachedCopy", floor: float, now: float) -> None:
        entry.last_access = now
        entry.priority = now

    def on_hit(self, entry: "CachedCopy", floor: float, now: float) -> None:
        entry.last_access = now
        entry.priority = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LRUPolicy()"


class LFUPolicy(ReplacementPolicy):
    """Least-frequently-used with Greedy-Dual aging.

    Pure popularity (GD-LD with ``wd = ws = 0``): isolates how much of
    GD-LD's advantage comes from the access-count term alone, versus
    the distance and size terms — the natural ablation baseline.
    """

    def base_utility(self, entry: "CachedCopy") -> float:
        return float(entry.access_count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LFUPolicy()"
