"""Self-test of the benchmark at minimal size.

For every workload, untraced and traced, on a pass of two inputs with one
set-up probe, it checks that:

* every metric BENCHMARK.json names is emitted, with its unit, and no other;
* a deliberately corrupted result is counted as a failed input, raises
  the error rate by exactly one input, and makes the run incorrect.

It also checks that a directory holding only BENCHMARK.json and perfbench/
makes run.py exit non-zero without printing a result.

Usage, from the repository root:  python3 perfbench/selftest.py
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import checkout


def _corrupt_figure(output):
    rows, text = output
    *head, last = text.splitlines()
    x, name, value = last.split(",")
    return rows, "\n".join(head + [f"{x},{name},{float(value) + 1e-3:.11e}"]) + "\n"


def _corrupt_curve(curve):
    import cascadeg2

    return cascadeg2.CorrelationCurve(curve.tau_grid, curve.values + 1e-3)


def _corrupt_oracle(output):
    grid_num, grid_ana, avg_num, avg_ana = output
    return grid_num, grid_ana + 1e-3, avg_num, avg_ana


CORRUPT = {"figures": _corrupt_figure, "curves": _corrupt_curve, "oracle": _corrupt_oracle}


def corrupting_first(request, corrupt):
    """The request, with its first output corrupted."""
    calls = []

    def corrupted(arg):
        output = request(arg)
        calls.append(arg)
        return corrupt(output) if len(calls) == 1 else output

    return corrupted


def check_bare_directory(problems: list[str]) -> None:
    bare = checkout.ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(checkout.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    checkout.prepare()
    import run
    import workloads

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOAD_NAMES:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            args = run.parse_args(["--workload", name, "--seed", "0", "--seconds", "0.001",
                                   "--trace", str(trace)])
            request = corrupting_first(workloads.WORKLOADS[name].request, CORRUPT[name])
            result, details = run.run_workload(args, size=2, probes=1, request=request)
            tag = f"{name} trace={trace}"
            emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            if emitted != expected[trace]:
                missing = sorted(set(expected[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(expected[trace]))
                problems.append(f"{tag}: metrics differ; missing {missing}, extra {extra}")
            if not all(math.isfinite(entry["value"]) for entry in result["metrics"].values()):
                problems.append(f"{tag}: a metric is not a finite number")
            kinds = [f.kind for f in details["failures"]]
            if result["failed"] != 1 or kinds != ["wrong"] or result["correct"]:
                problems.append(f"{tag}: corrupted result not counted: failed "
                                f"{result['failed']} of {result['attempted']}, kinds {kinds}, "
                                f"correct {result['correct']}")
            print(f"{tag}: {len(emitted)} metrics; corrupted result counted, error_rate "
                  f"{result['failed']}/{result['attempted']}", flush=True)
            print("\n".join(run.report(result, details)[-1:]), flush=True)
    check_bare_directory(problems)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
