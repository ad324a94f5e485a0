#!/usr/bin/env python3
"""Self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for one pass in each mode against the
``tiny`` references and asserts that every metric the file names is emitted,
with its unit and a numeric value, and that the outputs check as correct.
Then it runs each workload against a deliberately wrong reference and
asserts that the failure ratio is above 0.  Exits 1 on any problem.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import run


def wrong_reference(ref: dict) -> dict:
    """One pinned value changed for each workload."""
    bad = copy.deepcopy(ref)
    bad["census_deep"]["omega_count"] += 1
    bad["density"]["rows"][-1] = bad["density"]["rows"][-1].replace(",0,0,1,", ",1,0,1,")
    bad["theta"]["max_stopping_time"] += 1
    return bad


def shape_problems(result: dict, listed: list[dict]) -> list[str]:
    problems = []
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics/units differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number: {value!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"outputs did not check: {result['failed']}/{result['attempted']} failed")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.use_source_tree()
    ref = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["tiny"]
    bad = wrong_reference(ref)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, _ = run.measure(name, 7, 0, trace, ref, setup_reps=1, import_reps=1)
            problems += [f"{name} trace={int(trace)}: {p}" for p in shape_problems(result, listed)]
        result, info = run.measure(name, 7, 0, False, bad, setup_reps=1)
        if not info["failed_ratio"] > 0:
            problems.append(f"{name}: a wrong reference gave failed_ratio {info['failed_ratio']}")
        print(f"{name}: checked", file=sys.stderr)
    for p in problems:
        print(p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
