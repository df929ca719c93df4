"""Regional cache digests (Summary-Cache, the paper's reference [5]).

PReCinCt's search always floods the requester's region first, paying a
flood plus the ``local_timeout`` wait even when *nobody* in the region
has the item.  Fan et al.'s Summary Cache — cited by the paper as the
wired-web ancestor of its cooperative cache — fixes this with compact
cache summaries: every peer periodically broadcasts a Bloom filter of
its cache content inside its region; a requester whose merged regional
digest proves the item absent skips the local phase entirely.

Bloom semantics make this safe: the filter has no false negatives, so
skipping can never miss an available copy; false positives merely cause
the ordinary (wasted) regional flood.  Digests go stale between
announcements — a *newly cached* copy may be missed until the next
announcement, costing only the optimization, not correctness.

Enabled with ``SimulationConfig(enable_digest=True)``; the
``test_ablations`` bench quantifies the trade (digest broadcasts bought
fewer futile floods and lower latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.core.messages import CONTROL_BYTES

__all__ = ["BloomFilter", "DigestAnnounce", "RegionDigestView"]

_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """SplitMix64 round (same mixer family as the geographic hash)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class BloomFilter:
    """Fixed-size Bloom filter over integer keys.

    Uses double hashing (Kirsch & Mitzenmacher): ``h_i = h1 + i * h2``,
    which preserves the classic false-positive bound with two base
    hashes.  Bits live in a numpy uint64 array; set/test are vectorized
    over the k probe positions.
    """

    def __init__(self, n_bits: int = 2048, n_hashes: int = 4):
        if n_bits < 64 or n_bits % 64 != 0:
            raise ValueError(f"n_bits must be a positive multiple of 64, got {n_bits}")
        if n_hashes < 1:
            raise ValueError(f"n_hashes must be >= 1, got {n_hashes}")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self._words = np.zeros(n_bits // 64, dtype=np.uint64)
        self.n_added = 0

    def _positions(self, key: int) -> np.ndarray:
        h1 = _mix(key)
        h2 = _mix(h1) | 1  # odd: full-period stride
        i = np.arange(self.n_hashes, dtype=np.uint64)
        return (np.uint64(h1) + i * np.uint64(h2)) % np.uint64(self.n_bits)

    def add(self, key: int) -> None:
        pos = self._positions(key)
        np.bitwise_or.at(
            self._words, (pos // 64).astype(np.intp), np.uint64(1) << (pos % 64)
        )
        self.n_added += 1

    def add_many(self, keys: Iterable[int]) -> None:
        for key in keys:
            self.add(key)

    def __contains__(self, key: int) -> bool:
        pos = self._positions(key)
        bits = (self._words[(pos // 64).astype(np.intp)] >> (pos % 64)) & np.uint64(1)
        return bool(bits.all())

    @property
    def fill_ratio(self) -> float:
        """Fraction of set bits (false-positive proxy)."""
        set_bits = int(np.unpackbits(self._words.view(np.uint8)).sum())
        return set_bits / self.n_bits

    def false_positive_rate(self) -> float:
        """Classic estimate (1 - e^{-kn/m})^k from the insert count."""
        k, n, m = self.n_hashes, self.n_added, self.n_bits
        return float((1.0 - np.exp(-k * n / m)) ** k)

    @property
    def size_bytes(self) -> float:
        return self.n_bits / 8.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(bits={self.n_bits}, k={self.n_hashes}, "
            f"n={self.n_added}, fill={self.fill_ratio:.3f})"
        )


@dataclass
class DigestAnnounce:
    """A peer's periodic cache summary, flooded within its region."""

    peer: int
    region_id: int
    bloom: BloomFilter
    size_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes == 0.0:
            self.size_bytes = CONTROL_BYTES + self.bloom.size_bytes


class RegionDigestView:
    """A peer's view of its regional members' digests.

    Entries expire after ``ttl`` (default: three announcement periods),
    so departed members stop influencing decisions.
    """

    def __init__(self, ttl: float):
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.ttl = float(ttl)
        self._digests: Dict[int, Tuple[float, BloomFilter]] = {}

    def update(self, peer: int, bloom: BloomFilter, now: float) -> None:
        self._digests[peer] = (now, bloom)

    def clear(self) -> None:
        self._digests.clear()

    def fresh_count(self, now: float) -> int:
        return sum(1 for t, _ in self._digests.values() if now - t <= self.ttl)

    def possibly_in_region(self, key: int, now: float) -> bool:
        """True unless every fresh digest rules the key out.

        With *no* fresh digests the answer is True (fail open): the
        optimization only ever skips work when it has evidence.
        """
        saw_fresh = False
        for stamped, bloom in self._digests.values():
            if now - stamped > self.ttl:
                continue
            saw_fresh = True
            if key in bloom:
                return True
        if not saw_fresh:
            return True
        return False
