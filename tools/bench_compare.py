#!/usr/bin/env python3
"""Compare benchmark runs against a committed baseline; fail on regressions.

All files are flat JSON maps of "BM_Name[/arg].metric" -> number, as
emitted by the bench binaries' --json flag (and committed as
BENCH_micro_substrate.json).

Direction-aware: `.ns_per_op` regresses when it goes UP, `.items_per_sec`
when it goes DOWN. Improvements and unknown metrics never fail. A baseline
metric that no run produced fails the gate and is listed: a renamed or
deleted benchmark must leave the baseline with it, or it would drop out of
the gate unnoticed. A metric only the runs produce is reported but does not
fail (new benchmarks land with a baseline refresh).

Pass several current files (repeated runs) and each metric is aggregated
to its best observation — min for ns_per_op, max for items_per_sec. A
genuine regression is slow on EVERY run; scheduler noise is not, so
best-of-N is the noise-robust statistic for a one-sided gate.

Exit status: 0 when every baseline metric was produced and none regresses
past the threshold, 1 otherwise.
"""

import argparse
import json
import sys


def classify(name):
    """Return +1 if higher is worse, -1 if lower is worse, 0 if unknown."""
    if name.endswith(".ns_per_op"):
        return 1
    if name.endswith(".items_per_sec"):
        return -1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "current", nargs="+", help="freshly measured JSON (repeat for best-of-N)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed relative regression (default 0.30 = 30%%)",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    runs = []
    for path in args.current:
        with open(path) as f:
            runs.append(json.load(f))

    current = {}
    for run in runs:
        for name, value in run.items():
            # The "meta" provenance object (and any other non-numeric
            # entry) is informational, never gated.
            if not isinstance(value, (int, float)):
                continue
            value = float(value)
            if name not in current:
                current[name] = value
            elif classify(name) > 0:
                current[name] = min(current[name], value)
            else:
                current[name] = max(current[name], value)

    regressions = []
    absent = []
    compared = 0
    for name in sorted(baseline):
        if not isinstance(baseline[name], (int, float)):
            continue
        if name not in current:
            absent.append(name)
            continue
        direction = classify(name)
        if direction == 0:
            continue
        base, now = float(baseline[name]), float(current[name])
        if base <= 0:
            continue
        compared += 1
        # Signed relative change where positive always means "worse".
        delta = direction * (now - base) / base
        tag = "ok"
        if delta > args.threshold:
            tag = "REGRESSED"
            regressions.append(name)
        elif delta < -args.threshold:
            tag = "improved"
        if tag != "ok":
            print(f"  [{tag:9s}] {name}: {base:.4g} -> {now:.4g} ({delta:+.1%})")

    for name in sorted(set(current) - set(baseline)):
        print(f"  [new]      {name} (not in baseline)")

    print(
        f"bench_compare: {compared} metrics compared over {len(runs)} run(s), "
        f"{len(regressions)} regressed past {args.threshold:.0%}, "
        f"{len(absent)} absent"
    )
    if absent:
        print(
            "Baseline metrics produced by no run (a renamed or deleted "
            "benchmark must leave the baseline too):\n  " + "\n  ".join(absent)
        )
    if regressions:
        print(
            "If the slowdown is intended, refresh the baseline:\n"
            "  ./bench/bench_micro_substrate --benchmark_min_time=0.05 "
            "--json BENCH_micro_substrate.json"
        )
    return 1 if regressions or absent else 0


if __name__ == "__main__":
    sys.exit(main())
