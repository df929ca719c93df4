"""Host-speed calibration: express host time in *calibrated* seconds.

The sandbox this benchmark runs on shares its cores: the same code runs
up to 1.6x slower for seconds at a time when a neighbour is busy, which
swamps any bound a regression check could use.  Interference only ever
changes how fast the host executes, so the benchmark brackets every
timed window with a fixed unit of work and scales the window by how
long that unit took::

    calibrated_seconds = host_seconds * reference_seconds / unit_seconds

The reference is pinned, so a calibrated second is "a second on a host
that runs the unit in exactly its reference time" - on a quiet sandbox
it is a host second.  Every timing the benchmark reports is calibrated;
the raw host-second values and the measured factor ride along in the
record so the correction is never hidden.

A slow spell does not slow every kind of work alike (measured here:
Python bytecode 1.5x, numpy 1.4x, socket system calls 1.6x, the JSON
codec 1.8x), so there are two units, each made of what its runtime does:

* :func:`spin` - a dict-walking Python loop plus small numpy kernels,
  for the simulator and for set-up (imports and construction);
* :class:`IoUnit` - ``send``/``recv`` on a socket pair plus JSON round
  trips, for the service's rounds.  Against ten runs of ``svc_hot_read``
  during a noisy spell (raw throughput spread 25 %) it left 3 % where
  :func:`spin` left 8 %.
"""

from __future__ import annotations

import json
import socket
import statistics
from time import perf_counter
from typing import List, Sequence

import numpy as np

__all__ = [
    "CAL_REF_S", "IO_REF_S", "IoUnit", "spin", "spins", "factor",
    "local_factors", "ready_factor",
]

#: Wall time of one :func:`spin` on the reference sandbox when nothing
#: else runs (median of 3000 spins, seed commit, Python 3.11: 245 us).
CAL_REF_S = 250e-6

_TABLE = {i: i for i in range(2048)}
_STEPS = range(2500)
_VEC = np.arange(4096.0)


def spin() -> float:
    """Run one calibration unit; returns its wall time in seconds."""
    t0 = perf_counter()
    table = _TABLE
    acc = 0
    for i in _STEPS:
        acc += table[i & 2047]
    vec = _VEC
    for _ in range(16):
        (vec * vec).sum()
    return perf_counter() - t0


def spins(count: int = 5) -> List[float]:
    """``count`` calibration units back to back (a bracket around a window)."""
    return [spin() for _ in range(count)]


def factor(samples: Sequence[float], ref_s: float = CAL_REF_S) -> float:
    """Multiplier turning host seconds near the unit ``samples`` into calibrated ones."""
    return ref_s / statistics.median(samples)


#: Wall time of one :meth:`IoUnit.spin` inside a saturated event loop on
#: the quiet reference sandbox (closed-loop rounds, seed commit: 216 us).
#: An event loop that is mostly idle (``svc_open_4k``) runs it cold, in
#: about 1.7x that - as it runs the requests themselves.
IO_REF_S = 215e-6

_REQUEST = b'{"op": "get", "key": 123}\n'
_RESPONSE = {
    "op": "get", "key": 123, "ok": True, "value": "x" * 40,
    "latency_ms": 0.123, "version": 3,
}


class IoUnit:
    """The service's calibration unit; owns a socket pair until ``close()``."""

    def __init__(self) -> None:
        self._near, self._far = socket.socketpair()

    def spin(self) -> float:
        """Run one unit; returns its wall time in seconds."""
        t0 = perf_counter()
        near, far = self._near, self._far
        for _ in range(40):
            near.send(_REQUEST)
            far.recv(4096)
        for _ in range(24):
            json.loads(json.dumps(_RESPONSE))
        return perf_counter() - t0

    def close(self) -> None:
        self._near.close()
        self._far.close()


def ready_factor() -> float:
    """Factor for the set-up time a fresh interpreter has just spent."""
    return factor(spins(15))


def local_factors(samples: Sequence[float], half_window: int) -> List[float]:
    """Per-gap factors for the ``len(samples) - 1`` windows between spins.

    Window ``i`` lies between ``samples[i]`` and ``samples[i + 1]``; its
    factor uses the median of the ``2 * half_window`` spins around it,
    which rides out a single disturbed spin.
    """
    out = []
    for i in range(len(samples) - 1):
        lo = max(0, i + 1 - half_window)
        out.append(factor(samples[lo:i + 1 + half_window]))
    return out
