"""One round of a workload in a fresh interpreter (started by run.py).

The round imports tropdiv from the checkout's src/, writes its seeded inputs
as JSON, then drives tropdiv.cli.main(argv) in-process for each job in
order on one thread, each job starting when the previous one has returned.
No job is repeated inside a round, so a cache in the program only helps
where jobs really share work.  Outputs are checked after each job, outside
the timed span.  The round prints one JSON line with its measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, required=True, dest="round_index")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_tropdiv():
    """Import tropdiv.cli from the checkout, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tropdiv.cli
    where = Path(tropdiv.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"tropdiv imported from {where}, not from {src}")
    return tropdiv.cli


def run_job(cli, argv):
    """(exit code, stdout, stderr, wall s, cpu s) of cli.main(argv).

    An exception escaping main() is reported as exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed job, not a failed round
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return code, out.getvalue(), err.getvalue(), wall, cpu


def main(argv=None):
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        cli = import_tropdiv()
    except ImportError as exc:
        print(f"round: cannot import tropdiv: {exc}", file=sys.stderr)
        return 3
    directory = Path(args.workdir) / f"round{args.round_index}"
    directory.mkdir(parents=True, exist_ok=True)
    inputs, paths = workloads.write_inputs(workload, args.seed, args.round_index,
                                           directory)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "wrappers_before": tracing.visible_wrappers()}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    pin = args.seed == workloads.DEFAULT_SEED and args.round_index == 0
    jobs = []
    try:
        for job in workload.jobs:
            if tracer is not None:
                tracer.job = job.name
            code, stdout, stderr, wall, cpu = run_job(cli, workloads.job_argv(job, paths))
            errors = workloads.check_job(workload, job, code, stdout, inputs, pin)
            if errors and stderr:
                errors.append(f"stderr: {stderr.strip()[-500:]}")
            jobs.append({"name": job.name, "wall_s": wall, "cpu_s": cpu,
                         "code": code, "errors": errors})
    finally:
        if tracer is not None:
            tracer.restore()
    result["jobs"] = jobs
    result["wrappers_after"] = tracing.visible_wrappers()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layer = tracer.metrics()
        result["layer"] = layer
        result["unreached"] = [name for name in workload.reaches
                               if tracer.stats.get(name, {}).get("calls", 0) == 0]
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "round": args.round_index,
                           "fields": ["id", "parent", "job", "name", "start", "end"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
