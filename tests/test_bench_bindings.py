"""The benchmark's tracer names functions of this package by import path.

bench/tracing.py wraps its TARGETS and COUNTED entries, and
bench/selftest.py expects every COPIES binding to be one of them.  A
refactor that renames or drops one of those functions breaks `--trace 1`
without failing anything else, so these tests resolve every name against
the loaded package.  The replay test runs every benchmark job in process
under the tracer and checks its output with the harness's own checks, and
the last test replays two jobs with the dense Laplacian refused.  All of
them read bench/ and write nothing there.
"""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

import pytest

import tropdiv.cli  # noqa: F401  (loads every tropdiv module)
import tropdiv.intlinalg
from tropdiv.graphs import FiniteGraph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _selftest_copies():
    tree = ast.parse((BENCH / "selftest.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "COPIES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/selftest.py defines no COPIES")


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(owner, cls_name).__dict__[method]
    return getattr(owner, attr)


def test_traced_targets_resolve():
    missing = []
    for module_name, attr, *_ in tracing.TARGETS + tracing.COUNTED:
        try:
            _resolve(module_name, attr)
        except (AttributeError, KeyError):
            missing.append(f"{module_name}.{attr}")
    assert not missing


def test_imported_copies_are_traced_targets():
    # "tropdiv.cli.rgd_enumerate" or "tropdiv.metric.Refinement.__init__":
    # the longest loaded module prefix owns the rest of the path
    originals = {id(_resolve(m, a)) for m, a, _ in tracing.TARGETS}
    untraced = []
    for path in _selftest_copies():
        parts = path.split(".")
        cut = max(k for k in range(1, len(parts)) if ".".join(parts[:k]) in sys.modules)
        try:
            binding = _resolve(".".join(parts[:cut]), ".".join(parts[cut:]))
        except (AttributeError, KeyError):
            binding = None
        if id(binding) not in originals:
            untraced.append(path)
    assert not untraced


def test_budget_hooks_find_their_argument():
    # the tracer's budget-headroom hooks bind each call's `budget` argument
    for name in ("rgd_enumerate", "firing_subsets", "decompose"):
        fn = next(_resolve(m, a) for m, a, metric in tracing.TARGETS if metric == name)
        assert "budget" in inspect.signature(fn).parameters, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_jobs_replay_under_the_tracer(name, tmp_path):
    # round 0 of the default seed: the outputs must pass the harness's checks
    # and match the pinned sha256, and every layer the workload predicts must
    # be called
    workload = workloads.WORKLOADS[name]
    inputs, paths = workloads.write_inputs(workload, workloads.DEFAULT_SEED, 0, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job in workload.jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = tropdiv.cli.main(workloads.job_argv(job, paths))
            assert workloads.check_job(workload, job, code, out.getvalue(), inputs,
                                       pin=True) == [], job.name
    finally:
        tracer.restore()
    assert [layer for layer in workload.reaches
            if tracer.stats.get(layer, {}).get("calls", 0) == 0] == []


def test_laplacian_solves_build_no_dense_laplacian(tmp_path, monkeypatch):
    # the solver path feeds smith_normal_form the Laplacian's sparse rows:
    # with the dense matrix refused, the K_5 s=2 witness and rgd on G_4 still
    # print their pinned bytes, and U of the 385-vertex refined K_5 model is
    # a log of exactly 809 row operations
    def refuse(graph):
        raise AssertionError("the dense Laplacian was built on the solver path")

    monkeypatch.setattr(FiniteGraph, "laplacian", property(refuse))
    log_lengths = {}
    original = tropdiv.intlinalg.smith_normal_form

    def logged(a, *args, **kwargs):
        factors = original(a, *args, **kwargs)
        log_lengths[len(a)] = len(factors[0].ops)
        return factors

    monkeypatch.setattr(tropdiv.intlinalg, "smith_normal_form", logged)
    for name, job_name in (("metric-kn", "witness-K5-s2"), ("finite-gn", "rgd-G4-m3")):
        workload = workloads.WORKLOADS[name]
        (tmp_path / name).mkdir()
        _, paths = workloads.write_inputs(workload, workloads.DEFAULT_SEED, 0, tmp_path / name)
        job = next(job for job in workload.jobs if job.name == job_name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert tropdiv.cli.main(workloads.job_argv(job, paths)) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
            workloads.PINNED_SHA256[f"{name}/{job_name}"]
    assert log_lengths[385] == 809
