"""Golden-trace regression: runs must match the checked-in digests.

The digests under ``tests/golden/digests.json`` fingerprint one full
audited run per canonical scenario (event-log digest + report digest at
seed 42).  Any behaviour change — intended or not — lands here first.
An *intended* change is a one-command refresh::

    PYTHONPATH=src python -m repro audit --refresh-golden \
        --golden tests/golden/digests.json

followed by a review of the new digests in the diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.faults.audit import CANONICAL_SCENARIOS, load_golden, run_scenario
from repro.obs import Observers
from tests.reference_kernel import run_reference_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"


@pytest.fixture(scope="module")
def golden():
    return load_golden(GOLDEN_PATH)


def test_golden_file_covers_all_canonical_scenarios(golden):
    assert set(golden) == set(CANONICAL_SCENARIOS)
    for name, entry in golden.items():
        assert set(entry) == {"seed", "eventlog", "report"}, name
        assert len(entry["eventlog"]) == 64  # sha256 hex
        assert len(entry["report"]) == 64


@pytest.mark.parametrize("scenario", CANONICAL_SCENARIOS)
def test_scenario_matches_golden_digest(scenario, golden):
    entry = golden[scenario]
    _, _, digest = run_scenario(scenario, seed=int(entry["seed"]))
    assert digest.eventlog == entry["eventlog"], (
        f"event-log digest for {scenario!r} diverged from the golden; "
        f"if the behaviour change is intentional, refresh with "
        f"`python -m repro audit --refresh-golden --golden {GOLDEN_PATH}`"
    )
    assert digest.report == entry["report"]


@pytest.mark.parametrize("scenario", CANONICAL_SCENARIOS)
def test_reference_kernel_matches_golden(scenario, golden):
    """The vectorized kernel is an *optimization*, never a behaviour.

    Every golden scenario must fingerprint byte-identically on the
    test-side reference kernel (tests/reference_kernel.py: per-call
    neighbor walks, per-node flood handling, scalar point-in-polygon,
    one delivery event per receiver, unmemoized GPSR, keys placed one
    at a time) — it and the
    production kernel must replay the exact same logical event sequence.
    """
    entry = golden[scenario]
    digest = run_reference_scenario(scenario, seed=int(entry["seed"]))
    assert digest.eventlog == entry["eventlog"], (
        f"reference kernel diverged from the golden event-log digest of "
        f"{scenario!r}: a memoized or batched path is not digest-neutral"
    )
    assert digest.report == entry["report"]


@pytest.mark.parametrize("rate", [0.0, 0.25, 1.0])
def test_trace_sampling_is_digest_neutral(rate, golden):
    """Sampled tracing reproduces the golden digests byte-for-byte.

    The sampler draws only from the dedicated observer stream, so a
    run traced at any ``trace_sample_rate`` — including 0 (trace
    nothing) and fractional rates (one RNG draw per request head) —
    must fingerprint identically to the untraced golden run.
    """
    entry = golden["baseline"]
    net, _, digest = run_scenario(
        "baseline", seed=int(entry["seed"]),
        observers=Observers(tracing=True, trace_sample_rate=rate),
    )
    assert digest.eventlog == entry["eventlog"], (
        f"trace_sample_rate={rate} perturbed the event-log digest: "
        f"sampling is drawing from (or reordering) a simulation stream"
    )
    assert digest.report == entry["report"]
    assert net.tracer is not None
    if rate == 0.0:
        assert len(net.tracer) == 0 and net.tracer.sampled_out > 0
    elif rate == 1.0:
        assert len(net.tracer) > 0 and net.tracer.sampled_out == 0


@pytest.mark.parametrize("scenario", ["baseline", "faulted"])
def test_energy_attribution_and_anomalies_are_digest_neutral(
    scenario, golden, tmp_path
):
    """Acceptance: a run with span-level energy attribution AND armed
    anomaly triggers fingerprints byte-identically to the bare golden
    run.  The attributor books into its own registry and the watcher
    reads only collected telemetry rows, so neither may perturb the
    simulation."""
    entry = golden[scenario]
    observers = Observers(
        tracing=True,
        telemetry=True,
        energy_attribution=True,
        recorder_dir=tmp_path / "bundles",
        anomaly_rules=("energy.total_uj>1.0", "mac.backlog_max_s>1e12"),
    )
    net, _, digest = run_scenario(
        scenario, seed=int(entry["seed"]), observers=observers
    )
    assert digest.eventlog == entry["eventlog"], (
        f"energy attribution / anomaly triggers perturbed the event-log "
        f"digest of {scenario!r}"
    )
    assert digest.report == entry["report"]
    # ... and the observers actually observed something.
    assert observers.energy.charges_seen > 0
    assert observers.energy.total() > 0
    assert observers.anomaly.triggers > 0  # total energy exceeds 1 uJ


@pytest.mark.parametrize("scenario", CANONICAL_SCENARIOS)
def test_live_streaming_and_dashboard_are_digest_neutral(
    scenario, golden, tmp_path
):
    """Acceptance: the full --watch stack — telemetry bus, JSONL live
    export, Prometheus snapshot, terminal dashboard (plain mode), and
    an armed anomaly rule — fingerprints byte-identically to the bare
    golden run.  Everything downstream of the sampler is a pure
    consumer of already-collected rows."""
    import io

    entry = golden[scenario]
    out = io.StringIO()
    observers = Observers(
        live_export=tmp_path / "live.jsonl",
        metrics_snapshot=tmp_path / "metrics.prom",
        dashboard=True,
        dashboard_mode="plain",
        dashboard_out=out,
        watch_interval=0.001,
        anomaly_rules=("energy.total_uj>1.0",),
    )
    net, _, digest = run_scenario(
        scenario, seed=int(entry["seed"]), observers=observers
    )
    assert digest.eventlog == entry["eventlog"], (
        f"live streaming/dashboard perturbed the event-log digest of "
        f"{scenario!r}"
    )
    assert digest.report == entry["report"]
    # ... and the live path actually carried the run.
    assert observers.bus.rows_published > 0
    assert observers.live_sink.rows_written == observers.bus.rows_published
    assert observers.metrics_sink.snapshots_written > 0
    assert observers.dashboard.renders > 0
    assert observers.bus.events_published > 0  # the anomaly fired
    text = out.getvalue()
    assert "ANOMALY" in text and "\x1b[" not in text
    # The finished export replays every published row.
    from repro.obs import watch_file

    replay = watch_file(tmp_path / "live.jsonl", mode="plain", out=io.StringIO())
    assert replay.rows == observers.bus.rows_published

