"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate.  For every workload x end-to-end
metric it prints both medians, their ratio (with its base) and a verdict
against the metric's bound in ``BENCHMARK.json``:

``ok``
    B's median is not worse than A's by more than the bound.
``worse``
    it is.
``unresolved``
    the run-to-run spread (interquartile range over the median, known when
    a file holds several runs) is wider than the bound on either side, so
    the medians cannot tell — unless every run of B reads better than every
    run of A, which is ``ok`` whatever the spread.

The headline per-layer metrics (latency, throughput: what a client sees,
too noisy on a shared box to carry a bound) are printed the same way with
their spreads and no verdict.  Per-layer metrics whose unit is ``count``
must be identical for the same
seed, and the share of failed operations is printed per workload.  A
workload or metric that only one of the files has is reported.  The exit
code is 1 on any ``worse``, any count mismatch, anything present on one side
only or any failed operation in B, else 0: this is the tool for "two sets of runs of one commit agree" and
for every later before/after.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from run import HEADLINE, REPO, spread


def verdict(base: List[float], candidate: List[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1
    a, b = statistics.median(base), statistics.median(candidate)
    if max(sign * v for v in candidate) < min(sign * v for v in base):
        return "ok"  # every run of B better than every run of A
    spreads = [s for s in (spread(base), spread(candidate)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    return "worse" if sign * (b - a) > bound * abs(a) else "ok"


def one_sided(what: str, base, candidate) -> int:
    """Print the names present in only one of the two; how many there are."""
    missing = sorted(set(base) ^ set(candidate))
    for name in missing:
        side = "base" if name in base else "candidate"
        print(f"   {what} {name}: only in the {side} file")
    return len(missing)


def compare(base: dict, candidate: dict, benchmark: dict) -> int:
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    same_seed = (base.get("seed"), base.get("runs")) == \
        (candidate.get("seed"), candidate.get("runs"))
    bad = one_sided("workload", base["workloads"], candidate["workloads"])
    for name, entry in candidate["workloads"].items():
        reference = base["workloads"].get(name)
        if reference is None:
            continue
        print(f"== {name}")
        for section in ("end_to_end", "per_layer"):
            bad += one_sided("metric", reference[section], entry[section])
        for metric, slot in entry["end_to_end"].items():
            if metric not in reference["end_to_end"]:
                continue
            spec = metrics[metric]
            a, b = reference["end_to_end"][metric]["values"], slot["values"]
            outcome = verdict(a, b, spec["better"], spec["bound"])
            bad += outcome == "worse"
            print(f"   {metric:<18}{statistics.median(a):>14.4f} -> "
                  f"{statistics.median(b):>14.4f} {slot['unit']:<5}"
                  f" x{statistics.median(b) / statistics.median(a):.3f} of base"
                  f"  bound {spec['bound']:.2f} ({spec['better']} is better)"
                  f"  {outcome}")
        for metric in HEADLINE:
            if metric in entry["per_layer"] and metric in reference["per_layer"]:
                a = reference["per_layer"][metric]["values"]
                b = entry["per_layer"][metric]["values"]
                spreads = "/".join("-" if s is None else f"{s:.3f}"
                                   for s in (spread(a), spread(b)))
                print(f"   {metric:<18}{statistics.median(a):>14.4f} -> "
                      f"{statistics.median(b):>14.4f} "
                      f"{entry['per_layer'][metric]['unit']:<5}"
                      f" x{statistics.median(b) / statistics.median(a):.3f} of base"
                      f"  no bound (spreads {spreads})")
        if same_seed:
            for metric, slot in entry["per_layer"].items():
                if slot["unit"] != "count" or metric not in reference["per_layer"]:
                    continue
                a = reference["per_layer"][metric]["values"]
                if a != slot["values"]:
                    bad += 1
                    print(f"   {metric:<34} count differs: {a} -> {slot['values']}")
        attempted, failed = sum(entry["ops_attempted"]), sum(entry["ops_failed"])
        bad += failed > 0
        print(f"   ops failed {failed} of {attempted} "
              f"({failed / attempted:.2%}); base "
              f"{sum(reference['ops_failed'])} of {sum(reference['ops_attempted'])}")
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if len(arguments) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    loaded: List[Dict] = []
    for path in arguments:
        with open(path) as handle:
            loaded.append(json.load(handle))
    with open(REPO / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    return compare(loaded[0], loaded[1], benchmark)


if __name__ == "__main__":
    sys.exit(main())
