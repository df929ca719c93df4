"""Compare two benchmark records, one row per workload x end-to-end metric.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate.  Each row shows both values with their
quartiles, the change as a ratio *of A's value*, the metric's bound from
``BENCHMARK.json`` and a verdict:

``same``        B is within the bound of A
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  the spread exceeds the bound, so the bound cannot tell
                the two apart - unless the two interquartile ranges do
                not even overlap, in which case the direction decides

A record holds one run, so the run-to-run spread of a value is estimated
from inside it: the interquartile range of the rounds (or repeats, or
set-ups) the value summarises, over the square root of their number,
as a share of A's value; the wider of A's and B's counts.

``failed_share`` (failed / attempted operations) is compared on an
absolute bound: a ratio of a share that is normally zero means nothing.
Exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Absolute rise in failed / attempted that counts as a regression.
FAILED_SHARE_BOUND = 0.005

ROOT = Path(__file__).resolve().parent.parent


def verdict(a: float, b: float, bound: float, better: str,
            spread: float = 0.0, separated: bool = False,
            absolute: bool = False) -> str:
    """Classify the change from ``a`` to ``b``.

    ``spread`` is in the same terms as ``bound`` (a share of ``a``, or
    absolute with ``absolute=True``); ``separated`` says the two
    samples' interquartile ranges do not overlap.
    """
    delta = b - a if absolute else (b - a) / a
    worsening = delta if better == "lower" else -delta
    if spread > bound and not separated:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(a: Dict, b: Dict, declared: Dict) -> List[Dict]:
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in declared["end_to_end"]:
            ea = wa["end_to_end"][metric["name"]]
            eb = wb["end_to_end"][metric["name"]]
            # Quartiles over the run's rounds / repeats / set-ups, if any.
            qa = wa["timed_detail"]["spread"].get(metric["name"])
            qb = wb["timed_detail"]["spread"].get(metric["name"])
            spread, separated = 0.0, False
            if qa and qb:
                spread = max(
                    (q["q3"] - q["q1"]) / math.sqrt(q["n"]) for q in (qa, qb)
                ) / ea["value"]
                separated = qa["q3"] < qb["q1"] or qb["q3"] < qa["q1"]
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "a": ea["value"], "b": eb["value"], "qa": qa, "qb": qb,
                "change": (eb["value"] - ea["value"]) / ea["value"],
                "bound": metric["bound"], "spread": spread,
                "verdict": verdict(ea["value"], eb["value"], metric["bound"],
                                   metric["better"], spread, separated),
            })
        share_a = wa["ops_failed"] / wa["ops_attempted"]
        share_b = wb["ops_failed"] / wb["ops_attempted"]
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "ratio",
            "a": share_a, "b": share_b, "qa": None, "qb": None,
            "change": share_b - share_a, "bound": FAILED_SHARE_BOUND,
            "spread": 0.0, "absolute": True,
            "verdict": verdict(share_a, share_b, FAILED_SHARE_BOUND, "lower",
                               absolute=True),
        })
    return rows


def _cell(value: float, quartiles: Optional[Dict]) -> str:
    if quartiles is None:
        return f"{value:,.4f}"
    return (f"{value:,.4f} [{quartiles['q1']:,.4f}..{quartiles['q3']:,.4f}"
            f" n={quartiles['n']}]")


def render(rows: List[Dict]) -> str:
    lines = []
    for row in rows:
        if row.get("absolute"):
            change = f"{row['change']:+.4f} abs (bound {row['bound']} abs)"
        else:
            change = (f"{row['change']:+.1%} of A's {row['a']:,.4f} "
                      f"(bound {row['bound']:.0%}, spread {row['spread']:.1%})")
        lines.append(
            f"{row['workload']:<18} {row['metric']:<15} {row['unit']:<5} "
            f"A {_cell(row['a'], row['qa'])}  B {_cell(row['b'], row['qb'])}  "
            f"{change}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    if a.get("quick") or b.get("quick"):
        print("compare: a --quick record is never comparable", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, declared)
    print(render(rows))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
