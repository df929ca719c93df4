#!/usr/bin/env python
"""Perf regression gate: profile self-time odds vs a committed baseline.

Compares the self-time odds of the gated hot sections
(``engine.dispatch``, ``routing.gpsr`` by default) in a fresh
``repro profile --json`` output against a committed baseline, and fails
when a section's odds regressed by more than ``--max-regression``
(relative).

Odds — ``self_s / (total self_s - self_s)`` — not absolute seconds: CI
machines vary widely in raw speed, but how the interpreter divides its
time between the event loop and the routing hot path is a property of
the code, so a section growing relative to *everything else* means
someone made that path algorithmically heavier, not that the runner was
slow.  Odds rather than plain fractions because fractions saturate: a
section already at 70 % of self-time can never grow +50 % in share, but
its odds triple when its cost triples.

Usage::

    python -m repro profile --nodes 20 --items 80 --duration 120 \
        --warmup 20 --seed 42 --json profile.json
    python scripts/perf_gate.py profile.json          # gate
    python scripts/perf_gate.py profile.json --update # rebless baseline

The committed baseline (``scripts/perf_baseline.json``) must be
regenerated with the same workload arguments whenever the gate's
workload changes.  Throughput and latency claims are not this script's
business: they name a ``BENCHMARK.json`` metric and workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "perf_baseline.json"
DEFAULT_SECTIONS = ("engine.dispatch", "routing.gpsr")


def load_profile(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if "sections" not in payload or "self_total_s" not in payload:
        raise ValueError(
            f"{path}: not a 'repro profile --json' payload "
            "(missing 'sections'/'self_total_s')"
        )
    for name, rec in payload["sections"].items():
        if not isinstance(rec, dict) or "self_s" not in rec:
            raise ValueError(
                f"{path}: section {name!r} has no 'self_s' field — "
                "regenerate the file with 'repro profile --json'"
            )
    return payload


def fraction(payload: dict, section: str) -> float:
    total = payload["self_total_s"]
    if total <= 0:
        return 0.0
    rec = payload["sections"].get(section)
    return (rec["self_s"] / total) if rec else 0.0


def odds(payload: dict, section: str) -> float:
    """Section self-time vs. everything else's: f / (1 - f)."""
    f = fraction(payload, section)
    return f / (1.0 - f) if f < 1.0 else float("inf")


def gate_profile(args: argparse.Namespace) -> int:
    if args.profile is None:
        print(
            "error: the gate needs a fresh 'repro profile --json' file as "
            "the positional argument",
            file=sys.stderr,
        )
        return 2
    try:
        current = load_profile(args.profile)
    except OSError as exc:
        print(
            f"error: cannot read fresh profile {args.profile}: {exc}\n"
            "generate one with: python -m repro profile ... --json "
            f"{args.profile}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update:
        args.baseline.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline updated: {args.baseline}")
        return 0

    try:
        baseline = load_profile(args.baseline)
    except OSError:
        print(
            f"error: baseline {args.baseline} is missing or unreadable.\n"
            "bless one from a fresh profile with:\n"
            f"  python scripts/perf_gate.py {args.profile} --update "
            f"--baseline {args.baseline}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(
            f"error: baseline is malformed: {exc}\n"
            "rebless it with: python scripts/perf_gate.py <profile.json> "
            "--update",
            file=sys.stderr,
        )
        return 2

    missing = [s for s in args.sections if s not in baseline["sections"]]
    if missing:
        print(
            f"error: baseline {args.baseline} has no record of gated "
            f"section(s) {missing}.\n"
            f"sections present: {sorted(baseline['sections'])}\n"
            "either gate on sections the baseline profiled "
            "(--sections ...) or rebless the baseline with a workload "
            "that exercises them:\n"
            f"  python scripts/perf_gate.py <profile.json> --update",
            file=sys.stderr,
        )
        return 2

    failed = False
    print(f"{'section':<24} {'baseline':>10} {'current':>10} "
          f"{'odds change':>12}")
    for section in args.sections:
        base = odds(baseline, section)
        cur = odds(current, section)
        base_f = fraction(baseline, section)
        cur_f = fraction(current, section)
        if base <= 0:
            verdict = "SKIP (baseline self-time is zero)"
            change = ""
        else:
            rel = (cur - base) / base
            change = f"{rel:+8.1%}"
            if rel > args.max_regression:
                verdict = f"FAIL (> +{args.max_regression:.0%})"
                failed = True
            else:
                verdict = "ok"
        print(f"{section:<24} {base_f:>9.1%} {cur_f:>9.1%} "
              f"{change:>12}  {verdict}")
    if failed:
        print(
            "perf gate FAILED: a gated section's self-time odds regressed "
            f"more than {args.max_regression:.0%} vs {args.baseline}",
            file=sys.stderr,
        )
        return 1
    print("perf gate OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile", type=Path, nargs="?", default=None,
                        help="fresh 'repro profile --json' output")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--sections", nargs="+", default=list(DEFAULT_SECTIONS),
                        help="profiled sections to gate on")
    parser.add_argument("--max-regression", type=float, default=0.5,
                        help="fail when (current - baseline) / baseline "
                             "exceeds this (default 0.5 = +50%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the fresh profile")
    return gate_profile(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
