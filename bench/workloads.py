"""Workload definitions, seeded input generation and independent output checks.

Nothing here imports tropdiv: the graphs are built, relabelled and written
as JSON by this module, and every check recomputes what it needs (divisors of
vertex functions and of PL functions) from the edge lists it generated.  A
check that leaned on tropdiv could not catch a wrong answer from tropdiv.

A seed picks, for every input graph or instance, a random vertex
relabelling, edge order and edge orientation.  The mathematics (and hence
every work counter) does not depend on the seed; the bytes of the output do,
so the sha256 of each job's stdout is pinned only for DEFAULT_SEED.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0


# -- graphs ---------------------------------------------------------------------


def complete_graph(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def theta_graph():
    return 2, [(0, 1), (0, 1), (0, 1)]


def h_graph():
    """4-vertex genus-3 multigraph whose Hilbert basis reaches degree 13."""
    return 4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]


def gn_graph(n):
    """G_n: p = 0 and q = 1 joined by three chains of 2n - 1 edges each.

    Vertex numbering follows the construction documented for verify-gn:
    chain c holds vertices 2 + c(2n-2) ... in order from p, so the vertex
    at distance n from p on chain 0 is 2 + n - 1.
    """
    interior = 2 * n - 2
    edges = []
    next_id = 2
    for _ in range(3):
        prev = 0
        for _ in range(interior):
            edges.append((prev, next_id))
            prev = next_id
            next_id += 1
        edges.append((prev, 1))
    return 2 + 3 * interior, edges


def relabel(rng, vertex_count, edges):
    """Random vertex permutation, edge order and orientation.

    Returns the new edge list and edge_map with edge_map[old] = new index.
    """
    perm = list(range(vertex_count))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    new_edges = [None] * len(edges)
    edge_map = [None] * len(edges)
    for new_index, old_index in enumerate(order):
        u, v = edges[old_index]
        u, v = perm[u], perm[v]
        if rng.random() < 0.5:
            u, v = v, u
        new_edges[new_index] = (u, v)
        edge_map[old_index] = new_index
    return new_edges, edge_map


def relabel_graph(rng, vertex_count, edges):
    new_edges, _ = relabel(rng, vertex_count, edges)
    return vertex_count, new_edges


def graph_json(vertex_count, edges):
    return {"vertices": vertex_count, "edges": [[u, v] for u, v in edges]}


def complete_graph_instance_json(rng, n):
    """Witness instance on K_n with unit lengths and D = K.

    The instance edge is the image of the edge joining the first two
    vertices; n_param is 1 for odd n and 2 for even n, as for the
    complete-graph command.
    """
    vertex_count, edges = complete_graph(n)
    new_edges, edge_map = relabel(rng, vertex_count, edges)
    curve = {"model": graph_json(vertex_count, new_edges),
             "lengths": {str(e): "1" for e in range(len(new_edges))}}
    return {"curve": curve, "divisor": "K", "edge": edge_map[0],
            "n": 1 if n % 2 else 2}


# -- independent arithmetic -----------------------------------------------------


def canonical(vertex_count, edges):
    """val(x) - 2 at every vertex (a loop counts twice)."""
    k = [-2] * vertex_count
    for u, v in edges:
        k[u] += 1
        k[v] += 1
    return k


def vertex_div(vertex_count, edges, values):
    """Order of a vertex function: sum of f(y) - f(x) over edges at x."""
    out = [0] * vertex_count
    for u, v in edges:
        d = values[v] - values[u]
        out[u] += d
        out[v] -= d
    return out


def pl_div(vertex_count, edges, f_json):
    """Divisor of a PL function from its breakpoint lists.

    Edges are oriented from their smaller endpoint, as in the wire format.
    Returns ({vertex: order}, {(edge, offset): order}) without zero entries;
    raises ValueError on a discontinuity or a non-integer slope.
    """
    vertex_ord = [0] * vertex_count
    vertex_val = [None] * vertex_count
    interior = {}
    for row in f_json["edges"]:
        e = row["edge"]
        bps = [(Fraction(o), Fraction(v)) for o, v in row["breakpoints"]]
        slopes = []
        for (o1, v1), (o2, v2) in zip(bps, bps[1:]):
            s = (v2 - v1) / (o2 - o1)
            if s.denominator != 1:
                raise ValueError(f"edge {e}: non-integer slope {s}")
            slopes.append(s)
        lo, hi = sorted(edges[e])
        for x, val in ((lo, bps[0][1]), (hi, bps[-1][1])):
            if vertex_val[x] is None:
                vertex_val[x] = val
            elif vertex_val[x] != val:
                raise ValueError(f"discontinuous at vertex {x}")
        vertex_ord[lo] += slopes[0]
        vertex_ord[hi] -= slopes[-1]
        for i in range(1, len(bps) - 1):
            c = slopes[i] - slopes[i - 1]
            if c:
                interior[(e, bps[i][0])] = c
    return ({x: c for x, c in enumerate(vertex_ord) if c}, interior)


def _mismatch(what, got, want):
    return f"{what}: got {got!r}, expected {want!r}"


# -- jobs -----------------------------------------------------------------------


@dataclass
class Job:
    """One CLI invocation; argv names input files by key, filled in later."""

    name: str
    argv: list
    check: Callable
    expected: dict


def check_elements(job, payload, inputs):
    """rgd / extremals: replay div(f) + mK >= 0 for every element."""
    vertex_count, edges = inputs[job.expected["graph"]]
    m = job.expected["m"]
    k = canonical(vertex_count, edges)
    errors = []
    elements = payload["elements"]
    if payload["count"] != len(elements):
        errors.append(_mismatch("count field", payload["count"], len(elements)))
    if len(elements) != job.expected["count"]:
        errors.append(_mismatch("element count", len(elements), job.expected["count"]))
    seen = set()
    for el in elements:
        values = tuple(int(v) for v in el["values"])
        if el["degree"] != m or len(values) != vertex_count or min(values) != 0:
            errors.append(f"malformed element {el}")
            break
        if values in seen:
            errors.append(f"duplicate element {values}")
            break
        seen.add(values)
        div = vertex_div(vertex_count, edges, values)
        if any(a + m * b < 0 for a, b in zip(div, k)):
            errors.append(f"element {values} is not in R(G, {m}K)")
            break
    return errors


def check_verify_gn(job, payload, inputs):
    n = job.expected["n"]
    errors = []
    for key, want in (("verified", True), ("extremal", True),
                      ("generated_below", False), ("vacuous", False),
                      ("products_checked", job.expected["products_checked"])):
        if payload.get(key) != want:
            errors.append(_mismatch(key, payload.get(key), want))
    vertex_count, edges = gn_graph(n)
    p, r = 0, 2 + n - 1
    values = [int(v) for v in payload.get("witness", [])]
    if len(values) != vertex_count:
        return errors + ["witness has the wrong length"]
    # n*K + div(w) = [p] + (2n-1)[r]
    lhs = [n * a + b for a, b in zip(canonical(vertex_count, edges),
                                     vertex_div(vertex_count, edges, values))]
    want = [0] * vertex_count
    want[p] += 1
    want[r] += 2 * n - 1
    if lhs != want:
        errors.append("witness does not satisfy nK + div(w) = [p] + (2n-1)[r]")
    rows = payload.get("obstruction", {})
    if any(rows.get(str(k)) is not False for k in range(1, n)):
        errors.append(f"obstruction rows below {n} are not all false: {rows}")
    return errors


def check_witness(job, payload, inputs):
    """trop witness: claims, obstruction rows and a replay of the target divisor."""
    inst = inputs[job.expected["instance"]]
    s = job.expected["s"]
    vertex_count = inst["curve"]["model"]["vertices"]
    edges = [tuple(e) for e in inst["curve"]["model"]["edges"]]
    k = canonical(vertex_count, edges)
    d = sum(k)
    big_n = s * d
    denom = 2 * big_n - 1          # unit edge lengths: L = 1
    degree = 2 * s
    errors = []
    if payload.get("degree") != degree:
        errors.append(_mismatch("degree", payload.get("degree"), degree))
    claims = payload.get("claims", {})
    if not claims or not all(v is True for v in claims.values()):
        errors.append(f"claims not all true: {claims}")
    if payload.get("obstruction_holds") is not True:
        errors.append("obstruction_holds is not true")
    rows = payload.get("obstruction", {})
    if any(rows.get(str(j)) is not False for j in range(1, degree)):
        errors.append(f"obstruction rows below {degree} are not all false")
    e = inst["edge"]
    p, q = sorted(edges[e])
    r = payload.get("r", {})
    offset = Fraction(r.get("offset", "0"))
    if r.get("edge") != e or offset != Fraction(big_n, denom):
        errors.append(_mismatch("r", r, {"edge": e, "offset": f"{big_n}/{denom}"}))
    triple = payload.get("order_triple")
    if triple != [-(big_n - 1), -big_n, denom]:
        errors.append(_mismatch("order_triple", triple, [-(big_n - 1), -big_n, denom]))
    try:
        vertex_ord, interior = pl_div(vertex_count, edges, payload["f"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return errors + [f"f is not a valid PL function: {exc}"]
    # degree*K + div(f) = [p] + (2LN-1)[r]
    total = {x: degree * k[x] + vertex_ord.get(x, 0) for x in range(vertex_count)}
    if {x: c for x, c in total.items() if c} != {p: 1} or \
            interior != {(e, offset): denom}:
        errors.append("f does not satisfy 2sL*K + div(f) = [p] + (2LN-1)[r]")
    return errors


def check_generators(job, payload, inputs):
    """generators: every degree 1..bound certified, basis members replayed."""
    vertex_count, edges = inputs[job.expected["graph"]]
    bound = job.expected["certify_bound"]
    errors = []
    certified = payload.get("certified", {})
    want = {str(m): c for m, c in enumerate(job.expected["certified"], start=1)}
    if set(certified) != set(want) or len(want) != bound:
        errors.append(_mismatch("certified degrees", sorted(certified), sorted(want)))
    elif certified != want:
        errors.append(_mismatch("certified counts", certified, want))
    elements = payload.get("elements", [])
    if len(elements) != job.expected["basis_size"]:
        errors.append(_mismatch("basis size", len(elements), job.expected["basis_size"]))
    if payload.get("degrees") != job.expected["degrees"]:
        errors.append(_mismatch("degrees", payload.get("degrees"), job.expected["degrees"]))
    k = canonical(vertex_count, edges)
    for el in elements:
        m = el["degree"]
        values = [int(v) for v in el["values"]]
        div = vertex_div(vertex_count, edges, values)
        if m < 1 or any(a + m * b < 0 for a, b in zip(div, k)):
            errors.append(f"basis element {el} is not in R(G, mK)")
            break
    return errors


@dataclass
class Workload:
    """A job list; why each workload exists is recorded in BENCHMARK.json."""

    name: str
    jobs: list
    frontier: str
    # tropdiv entry points each traced run must reach at least once
    reaches: tuple
    make_inputs: Callable


def _finite_gn_inputs(rng):
    return {"G4": relabel_graph(rng, *gn_graph(4)),
            "K5": relabel_graph(rng, *complete_graph(5))}


def _metric_kn_inputs(rng):
    return {"K4": complete_graph_instance_json(rng, 4),
            "K5": complete_graph_instance_json(rng, 5)}


def _hilbert_inputs(rng):
    return {"theta": relabel_graph(rng, *theta_graph()),
            "K4": relabel_graph(rng, *complete_graph(4)),
            "H": relabel_graph(rng, *h_graph())}


def _elements_job(cmd, graph, m, count):
    return Job(f"{cmd}-{graph}-m{m}",
               [cmd, "--graph", "@" + graph, "--divisor", "K", "--m", str(m)],
               check_elements, {"graph": graph, "m": m, "count": count})


def _witness_job(instance, s):
    return Job(f"witness-{instance}-s{s}",
               ["trop", "witness", "--instance", "@" + instance, "--s", str(s)],
               check_witness, {"instance": instance, "s": s})


def _generators_job(graph, certified, degrees, basis_size):
    return Job(f"generators-{graph}",
               ["generators", "--graph", "@" + graph, "--divisor", "K",
                "--certify-bound", str(len(certified))],
               check_generators,
               {"graph": graph, "certify_bound": len(certified),
                "certified": certified, "degrees": degrees,
                "basis_size": basis_size})


WORKLOADS = {
    "finite-gn": Workload(
        name="finite-gn",
        jobs=[
            Job("verify-gn-4", ["verify-gn", "--n", "4"], check_verify_gn,
                {"n": 4, "products_checked": 24003}),
            _elements_job("extremals", "G4", 3, 23),
            _elements_job("rgd", "G4", 3, 1320),
            _elements_job("rgd", "K5", 3, 456),
        ],
        frontier="verify-gn-4",
        reaches=("main", "dumps", "linear_equiv", "smith_normal_form",
                 "SmithSolver.solve", "rgd_enumerate", "firing_subsets",
                 "is_extremal", "decompose"),
        make_inputs=_finite_gn_inputs,
    ),
    "metric-kn": Workload(
        name="metric-kn",
        jobs=[
            _witness_job("K4", 2),
            _witness_job("K4", 4),
            _witness_job("K5", 1),
            _witness_job("K5", 2),
        ],
        frontier="witness-K5-s2",
        reaches=("main", "dumps", "linear_equiv", "smith_normal_form",
                 "SmithSolver.solve", "Refinement", "linear_equiv_metric",
                 "metric_firing_subgraphs", "can_fire_metric", "cf_move",
                 "is_extremal_metric", "check_hypotheses", "build_witness",
                 "indecomposability_check"),
        make_inputs=_metric_kn_inputs,
    ),
    "hilbert": Workload(
        name="hilbert",
        jobs=[
            _generators_job("theta", [1, 1, 3, 3, 3, 5, 5, 5], [1, 3], 3),
            _generators_job("K4", [5, 15, 35, 69, 121, 195, 295, 425], [1], 5),
            _generators_job("H", [4, 13, 35, 76, 137, 225, 346, 504],
                            [1, 2, 3, 4, 5, 6, 7, 9, 10, 13], 31),
        ],
        frontier="generators-H",
        reaches=("main", "dumps", "smith_normal_form", "SmithSolver.solve",
                 "frac_elim", "rgd_enumerate", "extreme_rays", "hilbert_basis",
                 "certify_basis", "monoid_certificate"),
        make_inputs=_hilbert_inputs,
    ),
}


# sha256 of each job's stdout for DEFAULT_SEED, round 0
PINNED_SHA256 = {
    "finite-gn/verify-gn-4": "43c9a95c77f5b4cc2dd4cdbdf7006b82a380171be67f93a33bfec544d0c9d548",
    "finite-gn/extremals-G4-m3": "96c3d3fe749b48501699ff3f9f76e394c87f409e9d051b1312251e871030c93a",
    "finite-gn/rgd-G4-m3": "570fa2941cd6f89cc515f714b0e0b45d815403acec0f250459fa0295a4abbf9c",
    "finite-gn/rgd-K5-m3": "6c5ad5dc0879d1eb55c22588c79fb532424bcad9c5bad8e743f26f67460a0a72",
    "metric-kn/witness-K4-s2": "f8dbe27d8c9a66fdfa5063cd383eae28f072b7c6715b9952f60ddd84e6e50844",
    "metric-kn/witness-K4-s4": "c4793f5802730abb6d0a06d563a46be376b6ac12ea1239fd0a7cfa379d9bfadd",
    "metric-kn/witness-K5-s1": "0684dc44feec3c57c2704b36eabbc1b02295751d608e6c9686ab6f23c7fa24f9",
    "metric-kn/witness-K5-s2": "17263ac6071bf3e9530e2faf44f6d0cf3e0e78067e417cad90ef076bea7220cc",
    "hilbert/generators-theta": "cda49927ab5113cab61dab8f3d24df670bce866260eaff1768ed655c991efeff",
    "hilbert/generators-K4": "047b6dc9c63d0743508eb5a2b7bf216bee3497b5a20c6fe2fc11880f6172ef19",
    "hilbert/generators-H": "3a3d33fc11e7eab6ce17daa7f7fa2eaf91a80a69fd7efa4e3a7725bee54fada5",
}


def round_rng(seed, round_index):
    return random.Random(f"tropdiv-bench/{seed}/{round_index}")


def write_inputs(workload, seed, round_index, directory):
    """Generate the round's inputs, write them as JSON, return (inputs, argv map)."""
    inputs = workload.make_inputs(round_rng(seed, round_index))
    paths = {}
    for key, value in inputs.items():
        data = graph_json(*value) if isinstance(value, tuple) else value
        path = directory / f"{key}.json"
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        paths[key] = str(path)
    return inputs, paths


def job_argv(job, paths):
    return [paths[a[1:]] if a.startswith("@") else a for a in job.argv]


def check_job(workload, job, code, stdout, inputs, pin):
    """List of reasons the job's output is wrong; empty when it is right."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    try:
        errors = job.check(job, payload, inputs)
    except Exception as exc:  # JSON of the wrong shape is a failed check
        errors = [f"malformed output: {exc!r}"]
    if pin:
        want = PINNED_SHA256.get(f"{workload.name}/{job.name}")
        got = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if want != got:
            errors.append(_mismatch("stdout sha256", got, want))
    return errors
