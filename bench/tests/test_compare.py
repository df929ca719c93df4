"""Verdict logic of compare.py, including the absolute failed_share bound."""

import json

import pytest

import compare


def test_relative_verdicts_respect_direction_and_bound():
    # lower is better, bound 10 %
    assert compare.verdict(100.0, 105.0, 0.10, "lower") == "same"
    assert compare.verdict(100.0, 111.0, 0.10, "lower") == "worse"
    assert compare.verdict(100.0, 89.0, 0.10, "lower") == "better"
    # higher is better: the same numbers flip
    assert compare.verdict(100.0, 111.0, 0.10, "higher") == "better"
    assert compare.verdict(100.0, 89.0, 0.10, "higher") == "worse"
    # the ratio is of A's value, not B's
    assert compare.verdict(100.0, 110.5, 0.10, "lower") == "worse"
    assert compare.verdict(110.5, 100.0, 0.10, "lower") == "same"


def test_spread_wider_than_bound_is_unresolved_unless_separated():
    assert compare.verdict(100.0, 130.0, 0.10, "lower", spread=0.2) == "unresolved"
    assert compare.verdict(100.0, 101.0, 0.10, "lower", spread=0.2) == "unresolved"
    assert compare.verdict(100.0, 130.0, 0.10, "lower", spread=0.2,
                           separated=True) == "worse"
    assert compare.verdict(100.0, 130.0, 0.10, "lower", spread=0.1) == "worse"


def test_failed_share_uses_an_absolute_bound():
    bound = compare.FAILED_SHARE_BOUND
    # From zero: a relative change would divide by zero.
    assert compare.verdict(0.0, 0.004, bound, "lower", absolute=True) == "same"
    assert compare.verdict(0.0, 0.006, bound, "lower", absolute=True) == "worse"
    # 0.001 -> 0.003 triples the share but stays inside the absolute bound.
    assert compare.verdict(0.001, 0.003, bound, "lower", absolute=True) == "same"
    assert compare.verdict(0.01, 0.004, bound, "lower", absolute=True) == "better"


def _record(ops_per_s, q1, q3, failed=0):
    return {
        "quick": False,
        "workloads": {"w": {
            "end_to_end": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}},
            "timed_detail": {"spread": {"ops_per_s": {"q1": q1, "q3": q3, "n": 12}}},
            "ops_attempted": 1000, "ops_failed": failed,
        }},
    }


DECLARED = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
]}


def test_compare_rows_and_exit_status(tmp_path, capsys):
    rows = compare.compare(_record(1000, 990, 1010), _record(850, 840, 860), DECLARED)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("ops_per_s", "worse"), ("failed_share", "same"),
    ]
    assert rows[0]["change"] == -0.15

    # Rounds spread over 400 of 1000: 400 / sqrt(12) = 11.5 % > the 10 % bound.
    noisy = compare.compare(_record(1000, 800, 1200), _record(950, 750, 1150), DECLARED)
    assert noisy[0]["verdict"] == "unresolved"
    assert noisy[0]["spread"] == pytest.approx(0.4 / 12 ** 0.5)

    failing = compare.compare(_record(1000, 990, 1010),
                              _record(1000, 990, 1010, failed=6), DECLARED)
    assert failing[1]["verdict"] == "worse"

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_record(1000, 990, 1010)))
    b.write_text(json.dumps(_record(1000, 990, 1010)))
    # (main reads the real BENCHMARK.json, which has more metrics than the
    # stub record; compare() is the unit under test, main() only the status)
    assert "-15.0% of A's 1,000.0000" in compare.render(rows)
    quick = dict(_record(1, 1, 1), quick=True)
    a.write_text(json.dumps(quick))
    assert compare.main([str(a), str(b)]) == 2
    assert "never comparable" in capsys.readouterr().err
