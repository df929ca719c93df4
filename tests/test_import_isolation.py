"""Import isolation of the runtime-agnostic cache core (PR 9 tentpole).

The ports-and-adapters redesign promises that the policy core —
:mod:`repro.core` (cache, replacement, consistency), :mod:`repro.resilience`,
and :mod:`repro.ports` — can be hosted in a runtime that has *no*
simulation kernel and *no* radio stack.  These tests make the promise
mechanical: they import and exercise the core in a subprocess where
the simulator's own packages — the kernel (``repro.sim``), the radio
(``repro.net``), routing, the energy model and mobility — are blocked
at the import-machinery level, so any direct or transitive import of
one fails loudly.  That also keeps simulator-only work out of every
module the edge-cache service loads.

A subprocess (rather than an in-process ``sys.modules`` dance) keeps
the check honest: nothing another test imported earlier can mask a
regression, and the block covers ``repro``'s own ``__init__`` too.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Installed before any repro import: a meta-path finder that refuses
#: to load the simulation kernel, the radio stack or the other
#: simulator-only packages.
BLOCKER = """
import sys

BLOCKED = (
    "repro.sim", "repro.net", "repro.routing", "repro.energy", "repro.mobility",
)

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name in BLOCKED or any(name.startswith(b + ".") for b in BLOCKED):
            raise ImportError(
                f"BLOCKED: {name} must not be imported by the cache core"
            )
        return None

sys.meta_path.insert(0, Blocker())
"""


#: Every ``repro`` module ``import repro.service.server,
#: repro.service.loadgen`` loads, sorted.
SERVICE_IMPORT_SET = [
    "repro", "repro.checks", "repro.core", "repro.core.cache",
    "repro.core.consistency", "repro.core.geohash", "repro.core.messages",
    "repro.core.regions", "repro.core.replacement", "repro.geom",
    "repro.ports", "repro.resilience", "repro.resilience.backoff",
    "repro.resilience.breaker", "repro.resilience.detector",
    "repro.resilience.manager", "repro.service", "repro.service.chaos",
    "repro.service.clock", "repro.service.core", "repro.service.faultplan",
    "repro.service.loadgen", "repro.service.origin", "repro.service.routing",
    "repro.service.server", "repro.service.supervision", "repro.workload",
    "repro.workload.database", "repro.workload.zipf",
]


def run_blocked(body: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", BLOCKER + body],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


class TestCoreImportIsolation:
    def test_core_and_resilience_import_without_sim_or_net(self):
        result = run_blocked(
            "import repro\n"
            "import repro.ports\n"
            "import repro.core\n"
            "import repro.core.cache\n"
            "import repro.core.replacement\n"
            "import repro.core.consistency\n"
            "import repro.resilience\n"
            "import repro.resilience.manager\n"
            "print('CLEAN')\n"
        )
        assert result.returncode == 0, result.stderr
        assert "CLEAN" in result.stdout

    def test_core_machinery_works_without_sim_or_net(self):
        """Not just importable: cache + scheme + breaker all function."""
        result = run_blocked(
            "from repro.core.cache import CachedCopy, PeerCache\n"
            "from repro.core.consistency import PushAdaptivePull\n"
            "from repro.resilience.manager import ResilienceManager\n"
            "cache = PeerCache(10_000.0)\n"
            "cache.insert(CachedCopy(key=1, size_bytes=512.0, version=0,\n"
            "                        ttr=30.0, validated_at=0.0), now=0.0)\n"
            "assert 1 in cache\n"
            "scheme = PushAdaptivePull()\n"
            "assert not scheme.needs_validation(cache.get(1), now=10.0)\n"
            "mgr = ResilienceManager(retries=0, deadline=1.0)\n"
            "assert mgr.route_home(0, now=0.0) == 'home'\n"
            "assert mgr.deadline_for(2.0) == 3.0\n"
            "print('WORKS')\n"
        )
        assert result.returncode == 0, result.stderr
        assert "WORKS" in result.stdout

    def test_service_imports_without_sim_or_net(self):
        """The asyncio service is a second full host of the core."""
        result = run_blocked(
            "import repro.service\n"
            "from repro.service import CacheService, ShardDirectory\n"
            "d = ShardDirectory(4, 8)\n"
            "assert sorted(d.region_ids()) == [0, 1, 2, 3]\n"
            "assert d.home_region(7) != d.replica_region(7)\n"
            "print('SERVICE-CLEAN')\n"
        )
        assert result.returncode == 0, result.stderr
        assert "SERVICE-CLEAN" in result.stdout

    def test_service_import_set_is_pinned(self):
        """The ``repro`` modules a served process loads, exactly.

        Any byte changed in one of these can move the service's
        latency mode (ROADMAP item 1(f)), so a change that adds or
        drops one has to update this list and say so.
        """
        result = run_blocked(
            "import sys\n"
            "import repro.service.server, repro.service.loadgen\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            "                      if m == 'repro' or m.startswith('repro.'))))\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == SERVICE_IMPORT_SET

    def test_survival_layer_imports_without_sim_or_net(self):
        """Supervision, chaos, and fault plans live service-side only."""
        result = run_blocked(
            "import repro.service.supervision\n"
            "import repro.service.chaos\n"
            "import repro.service.faultplan\n"
            "from repro.service import (\n"
            "    ServiceFaultInjector, ServiceFaultPlan, ShardSupervisor,\n"
            ")\n"
            "plan = ServiceFaultPlan.parse(['shard-kill:at=1,shard=0'])\n"
            "assert plan.max_shard() == 0\n"
            "assert ServiceFaultPlan.from_json(plan.to_json()) == plan\n"
            "print('SURVIVAL-CLEAN')\n"
        )
        assert result.returncode == 0, result.stderr
        assert "SURVIVAL-CLEAN" in result.stdout

    def test_blocker_actually_blocks(self):
        """Sanity: the meta-path hook really refuses each blocked package."""
        for module in ("repro.sim", "repro.routing", "repro.energy", "repro.mobility"):
            result = run_blocked(f"import {module}\n")
            assert result.returncode != 0, module
            assert "BLOCKED" in result.stderr, module

    def test_sim_adapters_satisfy_the_ports(self):
        """In-process: the simulation's own objects fit the protocols."""
        from repro.ports import Clock, PeerDirectory, StatSink
        from repro.sim import Simulator, StatRegistry

        sim = Simulator()
        assert isinstance(sim, Clock)
        assert isinstance(StatRegistry(), StatSink)

        from repro.service.routing import ShardDirectory

        assert isinstance(ShardDirectory(4, 8), PeerDirectory)

    def test_service_adapters_satisfy_the_ports(self):
        from repro.ports import Clock, StatSink, CounterStatSink, NullStatSink
        from repro.service.clock import ManualClock, WallClock

        assert isinstance(WallClock(), Clock)
        assert isinstance(ManualClock(), Clock)
        assert isinstance(CounterStatSink(), StatSink)
        assert isinstance(NullStatSink(), StatSink)
