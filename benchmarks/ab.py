"""A/B two trees of this repository on one end-to-end workload.

    python3 benchmarks/ab.py A B --workload W [--seeds 22,7] [--pairs 10]

``A`` (the base) and ``B`` (the candidate) are git revisions; ``.`` names
the working tree.  Each becomes a fresh tree in a temporary directory
(``TMPDIR`` decides where): ``git archive`` of the revision, or a copy of
the working tree's tracked files.  Neither holds a ``__pycache__`` from
earlier runs; both are byte-compiled the same way before the first run, so
the two differ only in their sources.  (Two copies of one tree that
differed only in their ``__pycache__`` once read 0.27 MB apart on
``peak_rss_mb``.)

For each seed, ``PAIRS`` pairs of runs: each tree's ``BENCHMARK.json``
command with ``--workload W --seed N --trace 0``, run as a black box,
flipping which tree goes first in each pair.  For each end-to-end metric
of ``BENCHMARK.json`` one row: A's median and interquartile range, B's
median, B/A, B's wins and two verdicts.

* ``resolved``: B is better in at least nine tenths of the pairs (a tie
  counts for neither) and the medians differ by more than A's
  interquartile range, in B's favour.  Otherwise ``unresolved``.  Only a
  resolved row supports a claimed gain.
* ``bound ok``: B's median is no worse than A's by more than the metric's
  bound in ``BENCHMARK.json``; ``bound WORSE`` otherwise.

Then one ``--trace 1`` run per tree at the first seed, whose counts (the
per-layer metrics counted in ``count`` or ``bytes``) must be equal.  The
exit status is 1 on a failed operation, a failed run or a count that
differs, else 0.  The script uses the standard library and ``git`` only,
and imports nothing from ``src/``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
#: Per-layer units whose values a program counts, so they repeat exactly.
COUNT_UNITS = ("count", "bytes")


# ---------------------------------------------------------------------------
# Verdicts and summaries (no subprocess: tier-1 tests these)
# ---------------------------------------------------------------------------

def iqr(values: Sequence[float]) -> float:
    """The distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return third - first


def wins(base: Sequence[float], candidate: Sequence[float], better: str) -> int:
    """Pairs in which the candidate reads better; a tie counts for neither."""
    sign = 1 if better == "lower" else -1
    return sum(1 for a, b in zip(base, candidate) if sign * (a - b) > 0)


def verdict(base: Sequence[float], candidate: Sequence[float], better: str) -> str:
    """``resolved`` when the candidate wins at least nine tenths of the
    pairs and its median beats the base's by more than the base's IQR."""
    sign = 1 if better == "lower" else -1
    gap = sign * (statistics.median(base) - statistics.median(candidate))
    won = wins(base, candidate, better) * 10 >= 9 * len(base)
    return "resolved" if won and gap > iqr(base) else "unresolved"


def within_bound(base: Sequence[float], candidate: Sequence[float], better: str,
                 bound: float) -> bool:
    """Is the candidate's median no worse than the base's by more than
    ``bound`` (a share of the base's median)?"""
    sign = 1 if better == "lower" else -1
    a, b = statistics.median(base), statistics.median(candidate)
    return sign * (b - a) <= bound * abs(a)


HEADER = ("seed", "metric", "A median", "A IQR", "B median", "B/A", "B wins",
          "verdict", "bound")


def summary(seed: int, metric: dict, base: Sequence[float],
            candidate: Sequence[float]) -> Tuple[str, ...]:
    """One row of the table for one ``BENCHMARK.json`` end-to-end metric."""
    better, a, b = metric["better"], statistics.median(base), statistics.median(candidate)
    return (str(seed), f"{metric['name']} ({metric['unit']})", f"{a:.4f}",
            f"{iqr(base):.4f}", f"{b:.4f}", f"{b / a:.4f}" if a else "-",
            f"{wins(base, candidate, better)}/{len(base)}",
            verdict(base, candidate, better),
            "ok" if within_bound(base, candidate, better, metric["bound"]) else "WORSE")


def table(rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                     for row in rows)


def count_differences(base: dict, candidate: dict) -> List[str]:
    """The counted per-layer metrics two traced runs disagree on (or that
    only one of them has), one line each."""
    lines = []
    for name in sorted(set(base) | set(candidate)):
        a, b = base.get(name), candidate.get(name)
        unit = (a or b)["unit"]
        if unit in COUNT_UNITS and (a is None or b is None or a["value"] != b["value"]):
            lines.append(f"{name}: A {a and a['value']}  B {b and b['value']}")
    return lines


# ---------------------------------------------------------------------------
# Trees and runs
# ---------------------------------------------------------------------------

def fresh_tree(revision: str, directory: Path) -> Path:
    """A checkout of ``revision`` (``.``: the working tree's tracked files)."""
    directory.mkdir(parents=True)
    git = ["git", "-C", str(REPO)]
    if revision == ".":
        listed = subprocess.run(git + ["ls-files", "-z"], capture_output=True,
                                check=True).stdout.decode().split("\0")
        for name in filter(None, listed):
            if (REPO / name).is_file():
                (directory / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(REPO / name, directory / name)
    else:
        archive = subprocess.run(git + ["archive", "--format=zip", revision],
                                 capture_output=True, check=True).stdout
        with zipfile.ZipFile(io.BytesIO(archive)) as files:
            files.extractall(directory)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(directory)],
                   check=True, stdout=subprocess.DEVNULL)
    return directory


def run(tree: Path, workload: str, seed: int, trace: int) -> Optional[dict]:
    """One run of ``tree``'s benchmark command; its result, or ``None``
    when it failed (the reason goes to stderr)."""
    command = json.loads((tree / "BENCHMARK.json").read_text())["command"]
    command = [sys.executable if part.startswith("python") else part for part in command]
    command += ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or result["failed"]:
        print(f"ab.py: a run of {tree.name} failed (exit {done.returncode}):\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="A", help="git revision, or . for the working tree")
    parser.add_argument("candidate", metavar="B", help="git revision, or . for the working tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="22,7", help="comma-separated (default 22,7)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    failed = False
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {"A": fresh_tree(args.base, Path(scratch) / "A"),
                 "B": fresh_tree(args.candidate, Path(scratch) / "B")}
        rows: List[Tuple[str, ...]] = [HEADER]
        for seed in seeds:
            values: Dict[str, Dict[str, List[float]]] = {"A": {}, "B": {}}
            for pair in range(args.pairs):
                for side in ("AB" if pair % 2 == 0 else "BA"):
                    result = run(trees[side], args.workload, seed, 0)
                    failed |= result is None
                    for metric in metrics if result else ():
                        values[side].setdefault(metric["name"], []).append(
                            result["metrics"][metric["name"]]["value"])
                print(f"ab.py: seed {seed}, pair {pair + 1} of {args.pairs} done",
                      file=sys.stderr)
            for metric in metrics:
                base, candidate = (values[side].get(metric["name"], []) for side in "AB")
                if len(base) == len(candidate) == args.pairs:
                    rows.append(summary(seed, metric, base, candidate))
        print(f"{args.workload}: A = {args.base}, B = {args.candidate}, "
              f"{args.pairs} alternating pairs per seed")
        print(table(rows))
        traced = {side: run(trees[side], args.workload, seeds[0], 1)
                  for side in "AB"}
    if None in traced.values():
        return 1
    differences = count_differences(traced["A"]["metrics"], traced["B"]["metrics"])
    print(f"counts at seed {seeds[0]} (--trace 1): "
          + ("all equal" if not differences else "DIFFER"))
    for line in differences:
        print(f"  {line}")
    return 1 if failed or differences else 0


if __name__ == "__main__":
    sys.exit(main())
