"""tropdiv benchmark: run one workload for a time budget and print its metrics.

    python3 bench/run.py --workload finite-gn --seed 0 --seconds 44 --trace 0

Closed loop, one client: every round is a fresh Python process (bench/round.py)
that imports tropdiv, writes the round's seeded inputs and runs the
workload's jobs through tropdiv.cli.main one after another, because a CLI
user pays the whole start-up on every invocation.  Round r of seed s always
gets the same inputs.  Rounds repeat while the next one is expected to end
within --seconds.  run_s, cpu_s and frontier_s are trimmed means over the
rounds; setup_s and peak_rss_mb are medians.  Set-up time is also sampled
by extra processes that only set up.

--trace 0 prints the end-to-end metrics.  --trace 1 runs an untraced and a
traced round on the same inputs in pairs, alternating which of the two runs
first, and prints the per-layer metrics:
work counters of the first traced round, self times as medians over traced
rounds, and the tracing overhead (median traced minus median untraced
run_s).  Spans are written to .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a summary goes to stderr.  fail_ratio is
failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# every round must have ended this long after the run started
DEADLINE_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "frontier_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def trimmed_mean(values):
    """Mean without the lowest and highest value once there are three or more.

    The noise on a shared box is a drift of machine speed over seconds to
    minutes rather than rare outliers, so a mean over the rounds is steadier
    from run to run than their median; dropping the extremes still keeps one
    disturbed round from moving it.
    """
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return statistics.fmean(values)


def spawn(workload, seed, round_index, workdir, deadline, trace=0, setup_only=False):
    """Run bench/round.py in a fresh interpreter and return its JSON line."""
    argv = [sys.executable, str(HERE / "round.py"), "--workload", workload,
            "--seed", str(seed), "--round", str(round_index),
            "--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        argv += ["--spans-out", str(out / f"spans-{workload}-seed{seed}-round{round_index}.json")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round {round_index} ran past the {DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round {round_index} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def round_totals(result, frontier):
    jobs = result["jobs"]
    return {"run_s": sum(j["wall_s"] for j in jobs),
            "cpu_s": sum(j["cpu_s"] for j in jobs),
            "frontier_s": next(j["wall_s"] for j in jobs if j["name"] == frontier),
            "peak_rss_mb": result["peak_rss_mb"]}


def round_problems(result, traced):
    """Harness-level faults of a round (not job failures)."""
    problems = []
    if result["wrappers_before"]:
        problems.append(f"wrappers visible before tracing: {result['wrappers_before']}")
    if result["wrappers_after"]:
        problems.append(f"wrappers left after restore: {result['wrappers_after']}")
    if traced and result["unreached"]:
        problems.append(f"predicted layers never called: {result['unreached']}")
    return problems


def measure(args, workdir):
    workload = workloads.WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + DEADLINE_S
    setups = [spawn(args.workload, args.seed, 0, workdir, deadline,
                    setup_only=True)["setup_s"]
              for _ in range(0 if args.trace else SETUP_PROBES)]
    plain, traced, walls = [], [], []
    while True:
        r = len(plain)
        pair_start = time.monotonic()
        # a traced pair alternates which round runs first, so that a drift
        # of machine speed does not bias trace.overhead_s
        for trace in ((0, 1) if r % 2 == 0 else (1, 0)) if args.trace else (0,):
            (traced if trace else plain).append(
                spawn(args.workload, args.seed, r, workdir, deadline, trace=trace))
        walls.append(time.monotonic() - pair_start)
        if time.monotonic() - start + max(walls) > args.seconds:
            break
    setups += [res["setup_s"] for res in plain]

    rounds = [("untraced", i, res) for i, res in enumerate(plain)]
    rounds += [("traced", i, res) for i, res in enumerate(traced)]
    attempted = sum(len(res["jobs"]) for _, _, res in rounds)
    failures = [(f"{kind} round {i}", j["name"], j["errors"])
                for kind, i, res in rounds for j in res["jobs"] if j["errors"]]
    problems = [p for res in plain for p in round_problems(res, False)]
    problems += [p for res in traced for p in round_problems(res, True)]

    totals = [round_totals(res, workload.frontier) for res in plain]
    if args.trace:
        traced_totals = [round_totals(res, workload.frontier) for res in traced]
        metrics = dict(traced[0]["layer"])
        for name in metrics:
            if name.endswith("self_s"):
                metrics[name] = statistics.median(res["layer"][name] for res in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(t["run_s"] for t in traced_totals)
            - statistics.median(t["run_s"] for t in totals))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: trimmed_mean([t[name] for t in totals])
                   for name in ("run_s", "cpu_s", "frontier_s")}
        metrics["peak_rss_mb"] = statistics.median(t["peak_rss_mb"] for t in totals)
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }, {"rounds": len(plain), "failures": failures, "problems": problems}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=44.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills the running round
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tropdiv" / "__init__.py").is_file():
        print(f"run: no tropdiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as workdir:
            result, info = measure(args, Path(workdir))
    except RoundError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':44s} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} jobs, {info['rounds']} rounds)",
          file=sys.stderr)
    for where, job, errors in info["failures"]:
        print(f"FAILED {where} {job}: {'; '.join(errors)}", file=sys.stderr)
    for problem in info["problems"]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
