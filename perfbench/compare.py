"""Compare the simulation digests of two benchmark records.

    python3 perfbench/compare.py .perfbench_out/record-A.json record-B.json

Two runs of one workload and seed simulate the same thing when their
discrete outputs (entry counts, table text, match flags, lookup results)
hash identically and every recorded voltage (bounds, match-line traces,
programmed thresholds) agrees within 1e-6 V.  Exits 0 when they do, 1 when
they do not.
"""

from __future__ import annotations

import json
import sys

VOLT_TOLERANCE = 1e-6


def same_simulation(a: dict, b: dict) -> list:
    """Differences between two digests; empty when they agree."""
    problems = []
    if a["discrete_sha256"] != b["discrete_sha256"]:
        problems.append("discrete outputs differ")
    if len(a["volts"]) != len(b["volts"]):
        problems.append(f"{len(a['volts'])} vs {len(b['volts'])} voltages")
    else:
        worst = max((abs(x - y) for x, y in zip(a["volts"], b["volts"])), default=0.0)
        if worst > VOLT_TOLERANCE:
            problems.append(f"voltages differ by up to {worst:.3g} V")
    return problems


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(open(path).read()) for path in argv]
    keys = [(r["workload"], r["seed"], r["size"]) for r in records]
    if keys[0] != keys[1]:
        print(f"not comparable: {keys[0]} vs {keys[1]}")
        return 1
    problems = same_simulation(records[0]["digest"], records[1]["digest"])
    print("; ".join(problems) if problems else "same simulation")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
