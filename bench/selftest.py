"""Self-tests of the benchmark harness.

    python3 bench/selftest.py                 # every workload, about 3 minutes
    python3 bench/selftest.py --workload hilbert

0. BENCHMARK.json declares exactly the metrics, with the units, that run.py
   prints.
1. Rebinding: with the tracer installed, no tropdiv module still binds an
   original traced function under any name (the ``from .x import f`` copies
   in cli, generators, metric and witness included), and restore() leaves
   no wrapper behind.
2. An untraced round in a fresh process sees none of the wrappers.
3. Two traced runs with the same seed report identical work counters.
4. Two traced runs with different seeds report identical seed-invariant
   counters: the seed only relabels the inputs.

Prints one PASS or FAIL line per check and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# bindings that are copies made by ``from .x import f`` in another module
COPIES = ("tropdiv.cli.hilbert_basis", "tropdiv.cli.rgd_enumerate",
          "tropdiv.cli.build_witness", "tropdiv.cli.dumps",
          "tropdiv.generators.linear_equiv", "tropdiv.generators.smith_normal_form",
          "tropdiv.generators.frac_rank", "tropdiv.generators.is_extremal",
          "tropdiv.metric.graph_linear_equiv", "tropdiv.witness.is_extremal_metric",
          "tropdiv.witness.linear_equiv_metric",
          "tropdiv.intlinalg.SmithSolver.solve", "tropdiv.metric.Refinement.__init__")

COUNTER_UNITS = ("count", "ratio")


def report(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    return ok


def check_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    ok = report(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches run.py")
    ok &= report(layer == {name: unit for name, unit, _ in tracing.PER_LAYER},
                 "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    ok &= report(sorted(w["name"] for w in declared["workloads"]) ==
                 sorted(workloads.WORKLOADS), "BENCHMARK.json workloads match")
    return ok


def check_rebinding():
    sys.path.insert(0, str(ROOT / "src"))
    import tropdiv.cli  # noqa: F401  (loads every tropdiv module)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = {id(orig) for _, _, orig in tracer._patches}
        leftovers = [f"{mod.__name__}.{key}" for mod in tracing.tropdiv_modules()
                     for key, value in vars(mod).items() if id(value) in originals]
        wrapped = set(tracing.visible_wrappers())
    finally:
        tracer.restore()
    ok = report(not leftovers, f"no original left bound while tracing {leftovers}")
    missing = [name for name in COPIES if name not in wrapped]
    ok &= report(not missing, f"imported copies are wrapped {missing}")
    after = tracing.visible_wrappers()
    ok &= report(not after, f"restore() leaves no wrapper {after}")
    return ok


def run_json(argv):
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counters(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNTER_UNITS}


def traced_run(workload, seed):
    return run_json([str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", "1"])


def check_workload(workload, workdir):
    plain = run_json([str(HERE / "round.py"), "--workload", workload, "--seed", "5",
                      "--round", "0", "--trace", "0", "--workdir", str(workdir),
                      "--t0", repr(time.monotonic())])
    ok = report(not plain["wrappers_before"] and not plain["wrappers_after"],
                f"{workload}: untraced fresh process sees no wrappers")
    first, again = traced_run(workload, 1), traced_run(workload, 1)
    ok &= report(first["correct"] and again["correct"], f"{workload}: traced runs correct")
    diff = {k: (v, counters(again)[k]) for k, v in counters(first).items()
            if counters(again)[k] != v}
    ok &= report(not diff, f"{workload}: same seed, identical counters {diff}")
    other = traced_run(workload, 2)
    diff = {k: (v, counters(other)[k]) for k, v in counters(first).items()
            if counters(other)[k] != v}
    ok &= report(not diff, f"{workload}: other seed, identical counters {diff}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    ok = check_declared() & check_rebinding()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as workdir:
        for workload in args.workload or sorted(workloads.WORKLOADS):
            ok &= check_workload(workload, Path(workdir))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
