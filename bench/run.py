"""The layered benchmark for both runtimes - one command.

    python3 bench/run.py [--workload W] [--seed S] [--quick]
                         [--json OUT] [--trace-out SPANS]

runs every workload (or the named one) twice, each time in a fresh
interpreter: an **untraced** run for the end-to-end metrics (observers
off, ``fast_kernel`` default) and a **traced** run for the per-layer
table.  It prints every metric by name with its unit, checks the
outputs (pinned digests, response echo, server counters, hit-ratio
bands), writes the record to ``--json`` and exits non-zero if any check
failed.

The benchmark driver calls the same file as

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

which runs that one workload in that one mode and prints, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.

See ``bench/README.md`` for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from metrics import summary
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Fresh interpreters started only to time set-up, besides the one that
#: goes on to measure; ``setup_s`` is the median over all of them.
SETUP_PROBES = 4
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170.0


def _spawn(workload: str, mode: str, seed: int, seconds: float, quick: bool,
           trace_out: Optional[str] = None) -> Dict:
    """Run one worker to completion; returns the object it printed."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--spawned-at", repr(perf_counter()),
    ]
    if quick:
        command.append("--quick")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=True,
        cwd=str(ROOT),
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool,
            quick: bool, trace_out: Optional[str] = None) -> Dict:
    """One workload in one mode; end-to-end runs also time set-up."""
    if traced:
        return _spawn(workload, "traced", seed, seconds, quick, trace_out)
    probes = [
        _spawn(workload, "setup", seed, seconds, quick)
        for _ in range(1 if quick else SETUP_PROBES)
    ]
    out = _spawn(workload, "timed", seed, seconds, quick)
    ready = [p["ready_cal_s"] for p in probes] + [out["ready_cal_s"]]
    out["metrics"]["setup_s"] = statistics.median(ready)
    out["detail"]["spread"]["setup_s"] = summary(ready)
    out["detail"]["raw_setup_s"] = summary(
        [p["ready_s"] for p in probes] + [out["ready_s"]]
    )
    return out


def _with_units(metrics: Dict[str, float], declared: List[Dict]) -> Dict:
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise SystemExit(
            f"metrics disagree with BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }


def _print_metrics(title: str, metrics: Dict[str, Dict], skip_zero: bool) -> None:
    print(title)
    for name, m in metrics.items():
        if skip_zero and not m["value"]:
            continue
        print(f"  {name:<36} {m['value']:>16,.4f} {m['unit']}")


def _host() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "network": "loopback (127.0.0.1), client and server in one process",
    }


def _load_description(spec) -> Dict:
    if spec.runtime == "sim":
        return {"loop": "simulated (discrete-event, no sockets)"}
    if spec.rate is not None:
        return {"loop": "open", "connections": spec.connections,
                "rate_per_s": spec.rate}
    return {"loop": "closed", "connections": spec.connections,
            "window_per_connection": spec.window}


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no src/repro beside {BENCH_DIR}: nothing to measure",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: each workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: only the untraced (0) or traced (1) run")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes; the record is flagged and never comparable")
    parser.add_argument("--json", metavar="OUT", help="write the record here")
    parser.add_argument("--trace-out", metavar="SPANS",
                        help="write the traced service spans here (JSON lines)")
    args = parser.parse_args(argv)

    def seed_of(name: str) -> int:
        return WORKLOADS[name].default_seed if args.seed is None else args.seed

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        out = measure(args.workload, seed_of(args.workload), args.seconds,
                      bool(args.trace), args.quick, args.trace_out)
        metrics = _with_units(
            out["metrics"], declared["per_layer" if args.trace else "end_to_end"]
        )
        _print_metrics(f"{args.workload} (seed {seed_of(args.workload)})",
                       metrics, skip_zero=bool(args.trace))
        for error in out["errors"]:
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        print("detail:", json.dumps(out["detail"]))
        print(json.dumps({
            "correct": not out["errors"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": metrics,
        }))
        return 1 if out["errors"] else 0

    record = {
        "schema": 1,
        "quick": args.quick,
        "run_seconds": args.seconds,
        "host": _host(),
        "workloads": {},
    }
    failed_checks = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        spec = WORKLOADS[name]
        seed = seed_of(name)
        timed = measure(name, seed, args.seconds, False, args.quick)
        trace_out = args.trace_out if spec.runtime == "svc" else None
        if trace_out and args.workload is None:
            trace_out = f"{trace_out}.{name}"
        traced = measure(name, seed, args.seconds, True, args.quick, trace_out)
        end_to_end = _with_units(timed["metrics"], declared["end_to_end"])
        per_layer = _with_units(traced["metrics"], declared["per_layer"])
        errors = timed["errors"] + traced["errors"]
        failed_checks += len(errors)
        print(f"== {name} (seed {seed}) - {spec.why}")
        _print_metrics(
            f" end to end: {timed['attempted']} ops attempted, "
            f"{timed['failed']} failed", end_to_end, skip_zero=False,
        )
        _print_metrics(" per layer (traced run):", per_layer, skip_zero=True)
        for error in errors:
            print(f" CHECK FAILED: {error}")
        record["workloads"][name] = {
            "why": spec.why,
            "seed": seed,
            **_load_description(spec),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "ops_attempted": timed["attempted"],
            "ops_failed": timed["failed"],
            "errors": errors,
            "timed_detail": timed["detail"],
            "traced_detail": traced["detail"],
        }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if failed_checks:
        print(f"bench: {failed_checks} output check(s) failed", file=sys.stderr)
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
