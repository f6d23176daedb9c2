"""Measure the baseline: two sets of seeded runs per workload, one traced run.

    python3 bench/sweep.py --seeds 1-10 > bench/baseline.json

Set 1 runs bench/run.py untraced on every seed for every workload in
BENCHMARK.json, for run_seconds each; set 2 then repeats set 1.  For each
set and end-to-end metric the summary gives the median, the quartiles
(statistics.quantiles with n=4) and the spread, (q3 - q1) / median.  It also
gives the change of the median from set 1 to set 2, as a share of the set-1
median, where a positive change is a worsening.  The bound of each metric in
BENCHMARK.json limits both figures; the spread of setup_s is not limited.
Last, one traced run per workload at the first seed gives the per-layer
baseline.  The summary is one JSON object on stdout; each run is also
reported on stderr as it ends.  The exit code is 1 when a figure is past
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"sweep: {workload} seed {seed} trace {trace} exited "
                 f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} " +
          " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                   if not trace),
          file=sys.stderr, flush=True)
    return result


def summarise(runs):
    def quartiles(values):
        q1, median, q3 = statistics.quantiles(values, n=4)
        return {"median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values}

    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: quartiles([r["metrics"][name]["value"] for r in runs])
                        for name in runs[0]["metrics"]}}


def compare(sets, declared):
    """Median change from the first set to the last, and the bound checks."""
    first, last = sets[0]["metrics"], sets[-1]["metrics"]
    change, ok = {}, all(s["correct"] for s in sets)
    for metric in declared:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        change[name] = sign * (last[name]["median"] - first[name]["median"]) \
            / first[name]["median"]
        ok &= change[name] <= bound
        if name != "setup_s":
            ok &= all(s["metrics"][name]["spread"] <= bound for s in sets)
    return change, ok


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return f"{platform.machine()}, {os.cpu_count()} CPUs, {model}, {platform.system()}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]
    seeds = parse_seeds(args.seeds)

    runs = {}
    for i in range(SETS):
        for workload in names:
            runs[workload, i] = [run(workload, seed, seconds, 0) for seed in seeds]
    end_to_end = {}
    for workload in names:
        sets = [summarise(runs[workload, i]) for i in range(SETS)]
        change, ok = compare(sets, declared["end_to_end"])
        end_to_end[workload] = {"sets": sets, "median_change": change,
                                "within_bounds": ok}
    per_layer = {}
    for workload in names:
        result = run(workload, seeds[0], seconds, 1)
        per_layer[workload] = {"seed": seeds[0], "correct": result["correct"],
                               "metrics": {k: m["value"]
                                           for k, m in result["metrics"].items()}}

    import numpy  # only to record its version; run.py never imports it
    summary = {
        "command": " ".join(["python3", "bench/sweep.py"] + (argv or sys.argv[1:])),
        "measured": time.strftime("%Y-%m-%d"),
        "machine": machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_seconds": seconds,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if all(e["within_bounds"] for e in end_to_end.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
