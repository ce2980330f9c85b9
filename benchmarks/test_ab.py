"""The A/B script's verdict and summary arithmetic, on made-up runs (no
subprocess, no tree: the runs themselves are ``ab.py``'s black box)."""

import ab

SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_the_same_runs_resolve_nothing():
    assert ab.wins(BASE, BASE, "lower") == 0
    assert ab.verdict(BASE, BASE, "lower") == "unresolved"
    assert ab.within_bound(BASE, BASE, "lower", 0.0)


def test_nine_wins_and_a_gap_past_the_iqr_resolve():
    faster = [value - 0.1 for value in BASE]
    assert ab.wins(BASE, faster, "lower") == 10
    assert ab.verdict(BASE, faster, "lower") == "resolved"
    nine = faster[:9] + [BASE[9] + 0.5]
    assert ab.wins(BASE, nine, "lower") == 9
    assert ab.verdict(BASE, nine, "lower") == "resolved"


def test_eight_wins_or_ties_do_not_resolve():
    faster = [value - 0.1 for value in BASE]
    eight = faster[:8] + [BASE[8] + 0.5, BASE[9] + 0.5]
    assert ab.verdict(BASE, eight, "lower") == "unresolved"
    tied = faster[:8] + BASE[8:]
    assert ab.wins(BASE, tied, "lower") == 8
    assert ab.verdict(BASE, tied, "lower") == "unresolved"


def test_a_gap_inside_the_base_iqr_does_not_resolve():
    assert round(ab.iqr(BASE), 4) == 0.035
    slightly = [value - 0.01 for value in BASE]
    assert ab.wins(BASE, slightly, "lower") == 10
    assert ab.verdict(BASE, slightly, "lower") == "unresolved"


def test_higher_is_better_flips_every_comparison():
    larger = [value + 0.1 for value in BASE]
    assert ab.verdict(BASE, larger, "higher") == "resolved"
    assert ab.verdict(BASE, larger, "lower") == "unresolved"
    assert ab.within_bound(BASE, larger, "higher", 0.0)
    assert not ab.within_bound(BASE, larger, "lower", 0.05)
    assert ab.within_bound(BASE, larger, "lower", 0.25)


def test_a_summary_row_reads_medians_iqr_wins_and_both_verdicts():
    slower = [value * 1.5 for value in BASE]
    row = ab.summary(7, SETUP, BASE, slower)
    assert row == ("7", "setup_s (s)", "1.0000", "0.0350", "1.5000", "1.5000",
                   "0/10", "unresolved", "WORSE")
    assert ab.summary(22, SETUP, BASE, [v - 0.1 for v in BASE])[-2:] == ("resolved", "ok")
    printed = ab.table([ab.HEADER, row]).splitlines()
    assert printed[0].split() == ["seed", "metric", "A", "median", "A", "IQR", "B",
                                  "median", "B/A", "B", "wins", "verdict", "bound"]
    assert printed[1].split()[-3:] == ["0/10", "unresolved", "WORSE"]


def test_only_counts_must_repeat():
    base = {"engine.ext_iterations_per_op": {"value": 185, "unit": "count"},
            "framing.bytes_per_op": {"value": 900, "unit": "bytes"},
            "engine.execute_self_ms": {"value": 1.5, "unit": "ms"}}
    same = {name: dict(slot) for name, slot in base.items()}
    same["engine.execute_self_ms"]["value"] = 2.5
    assert ab.count_differences(base, same) == []
    moved = {name: dict(slot) for name, slot in base.items()}
    moved["framing.bytes_per_op"]["value"] = 901
    del moved["engine.ext_iterations_per_op"]
    assert ab.count_differences(base, moved) == [
        "engine.ext_iterations_per_op: A 185  B None",
        "framing.bytes_per_op: A 900  B 901"]
