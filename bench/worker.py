"""One workload, one mode, one fresh interpreter (spawned by ``run.py``).

Prints a single JSON object as its last line of standard output.  The
parent passes its own ``perf_counter()`` reading at spawn time
(``CLOCK_MONOTONIC`` is shared between processes), so "time to ready"
includes interpreter start and every import.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    # The benchmark measures the checkout it sits in, never an installed copy.
    sys.path.insert(0, str(SRC_DIR))
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    pinned = expected.get(spec.name, {}).get("quick" if args.quick else "full")
    if pinned is None:
        raise SystemExit(f"expected.json pins nothing for {spec.name} in this mode")
    # Import only the runtime being measured: set-up time and peak RSS
    # of a service workload must not include the simulator, or vice versa.
    if spec.runtime == "sim":
        import simbench

        if args.mode == "setup":
            _, out = simbench.ready(spec, args.seed, args.quick, args.spawned_at)
        else:
            if args.mode == "timed":
                out = simbench.timed(
                    spec, args.seed, args.seconds, args.quick, args.spawned_at
                )
            else:
                out = simbench.traced(spec, args.seed, args.quick, args.spawned_at)
            if args.seed == spec.default_seed:
                out["errors"] += _check_pinned(args.seed, pinned, out)
    else:
        import svcbench

        if args.mode == "setup":
            out = svcbench.setup_only(spec, args.seed, args.spawned_at)
        elif args.mode == "timed":
            out = svcbench.timed(
                spec, args.seed, args.seconds, args.quick, args.spawned_at, pinned
            )
        else:
            out = svcbench.traced(
                spec, args.seed, args.seconds, args.quick, args.spawned_at,
                pinned, args.trace_out,
            )
    print(json.dumps(out))
    return 0


def _check_pinned(seed: int, pinned: dict, out: dict) -> list:
    """The default seed's digest and event count are pinned in expected.json."""
    errors = []
    if out["digest"] != pinned["digest"]:
        errors.append(
            f"report digest {out['digest']} != pinned {pinned['digest']} "
            f"(seed {seed})"
        )
    if out["events"] != pinned["events"]:
        errors.append(f"{out['events']} events != pinned {pinned['events']}")
    return errors


if __name__ == "__main__":
    sys.exit(main())
