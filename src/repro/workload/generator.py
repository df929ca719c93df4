"""Per-peer Poisson arrival processes for requests and updates.

Each peer runs two independent arrival streams on the simulation clock:

* a **request process** with exponential inter-arrival times of mean
  ``t_request`` (paper: 30 s), each arrival issuing a read for a
  Zipf-sampled key, and
* an **update process** with mean ``t_update``, each arrival issuing a
  write to a Zipf-sampled key.  The consistency experiments sweep the
  ratio ``t_update / t_request`` from 1 (hottest) to 5 (coldest).

The generator is decoupled from the protocol through two callbacks, so
the same workload drives PReCinCt, the flooding baseline, and every
consistency scheme identically.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.sim import Simulator
from repro.workload.zipf import ZipfSampler

__all__ = ["PoissonArrivals", "WorkloadGenerator"]

RequestCallback = Callable[[int, int], None]  # (peer_id, key)


class PoissonArrivals:
    """One Poisson arrival stream bound to a peer.

    ``warmup`` delays the first arrival uniformly within one mean
    interval so peers do not fire in lock-step at t=0.
    """

    def __init__(
        self,
        sim: Simulator,
        peer_id: int,
        mean_interval: float,
        sampler: ZipfSampler,
        callback: RequestCallback,
        rng: np.random.Generator,
        stop_at: Optional[float] = None,
    ):
        if mean_interval <= 0:
            raise ValueError(f"mean_interval must be positive, got {mean_interval}")
        self.sim = sim
        self.peer_id = peer_id
        self.mean_interval = float(mean_interval)
        self.sampler = sampler
        self.callback = callback
        self.rng = rng
        self.stop_at = stop_at
        sim.schedule(0.0, self._start)

    def _start(self) -> None:
        first = float(self.rng.uniform(0.0, self.mean_interval))
        self.sim.schedule(first, self._arrive)

    def _arrive(self) -> None:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        self.callback(self.peer_id, self.sampler.sample())
        gap = float(self.rng.exponential(self.mean_interval))
        self.sim.schedule(gap, self._arrive)


class WorkloadGenerator:
    """Drives request and update streams for a whole peer population."""

    def __init__(
        self,
        sim: Simulator,
        n_peers: int,
        sampler: ZipfSampler,
        rng: np.random.Generator,
        t_request: float = 30.0,
        t_update: Optional[float] = None,
        on_request: Optional[RequestCallback] = None,
        on_update: Optional[RequestCallback] = None,
        stop_at: Optional[float] = None,
        update_sampler: Optional[ZipfSampler] = None,
    ):
        """
        Parameters
        ----------
        t_request:
            Mean inter-request time per peer, seconds (paper: 30 s).
        t_update:
            Mean inter-update time per peer; ``None`` disables updates
            (read-only experiments such as Figs. 4-5 and 9).
        on_request / on_update:
            Protocol hooks, invoked as ``hook(peer_id, key)``.
        update_sampler:
            Key distribution for updates; defaults to the read sampler.
            The paper specifies Zipf for *accesses* only, so experiments
            typically pass a uniform sampler here.
        """
        noop: RequestCallback = lambda peer, key: None
        on_request = on_request or noop
        on_update = on_update or noop
        if update_sampler is None:
            update_sampler = sampler
        for peer in range(n_peers):
            PoissonArrivals(
                sim, peer, t_request, sampler, on_request, rng, stop_at=stop_at
            )
            if t_update is not None:
                PoissonArrivals(
                    sim, peer, t_update, update_sampler, on_update, rng,
                    stop_at=stop_at,
                )
