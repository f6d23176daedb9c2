"""Non-finite-generation certificates for graded semi-rings on Z-metric graphs.

Pipeline: given a Z-divisor D of degree d >= 2, a non-bridge edge e = pq of
the canonical model, and n with n*D equivalent to (nd/2)([p]+[q]), each
multiple s of n produces an extremal element of R(Gamma, 2sL*D) that no
tropical polynomial in lower-degree elements reaches.  Since 2sL is
unbounded in s, no finite generating set exists.

The indecomposability leg is decided directly: a product decomposition of
the witness would force k*D ~ kd[r] for some 1 <= k <= 2sL-1, where r is a
non-integral point; every such equivalence is refuted by an exact solve on
one refined model shared by all rows.  Solvability of k*D ~ kd[r] also
forces an integrality constraint that makes k a multiple of 2LN-1 > 2sL-1,
which is checked whenever a solvable degree is encountered.  build_witness
proves every leg of one degree, obstruction table included; every failed
proof leg raises CertificateError, so no claim is recorded unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .budget import DEFAULT_BUDGET
from .errors import CertificateError, HypothesisFailure, InputError
from .graphs import build_graph
from .metric import (MetricDivisor, MetricGraph, PLFunction, Point,
                     Refinement, canonical_divisor_metric,
                     is_extremal_metric, linear_equiv_metric)


@dataclass(frozen=True)
class WitnessInstance:
    """Inputs for the pipeline, with derived quantities pinned at build time."""

    graph: MetricGraph
    divisor: MetricDivisor
    edge: int
    n: int
    p: int = field(init=False)
    q: int = field(init=False)
    d: int = field(init=False)
    length: Fraction = field(init=False)
    genus: int = field(init=False)

    def __post_init__(self):
        if not 0 <= self.edge < self.graph.model.edge_count:
            raise InputError(f"edge {self.edge} out of range")
        if self.n < 1:
            raise InputError("n must be a positive integer")
        u, v = self.graph.model.edges[self.edge]
        object.__setattr__(self, "p", u)
        object.__setattr__(self, "q", v)
        object.__setattr__(self, "d", self.divisor.degree())
        object.__setattr__(self, "length", self.graph.lengths[self.edge])
        object.__setattr__(self, "genus", self.graph.genus())

    def endpoints_divisor(self, coeff):
        """coeff*[p] + coeff*[q] (a single 2*coeff*[p] when e is a loop)."""
        entries = {}
        entries[Point.vertex(self.p)] = coeff
        entries[Point.vertex(self.q)] = entries.get(Point.vertex(self.q), 0) + coeff
        return MetricDivisor.of(self.graph, entries)

    @cached_property
    def hypotheses(self):
        """Each hypothesis, with the equivalence witness; decided once."""
        checks = {}
        checks["z_metric"] = self.graph.zflag
        checks["z_divisor"] = self.divisor.is_z_divisor()
        checks["genus_ge_2"] = self.genus >= 2
        checks["degree_ge_2"] = self.d >= 2
        checks["edge_not_bridge"] = self.edge not in self.graph.model.bridges
        checks["nd_even"] = (self.n * self.d) % 2 == 0
        witness = None
        if checks["nd_even"]:
            half = self.endpoints_divisor(self.n * self.d // 2)
            witness = linear_equiv_metric(self.graph, half, self.n * self.divisor)
        checks["endpoint_equivalence"] = witness is not None
        return {
            "checks": checks,
            "all_pass": all(checks.values()),
            "equivalence_witness": witness,
        }


def check_hypotheses(inst):
    """The instance's hypothesis report (computed on first use)."""
    return inst.hypotheses


def _geometry(inst, s):
    """(L, N, 2LN-1, r, 2sL) for multiplier s; r sits at L*LN/(2LN-1) on e."""
    if s < 1 or s % inst.n != 0:
        raise InputError("s must be a positive multiple of n")
    if inst.length.denominator != 1:
        raise HypothesisFailure("edge length must be an integer")
    big_l, big_n = int(inst.length), s * inst.d
    denom = 2 * big_l * big_n - 1
    r = inst.graph.point(inst.edge, Fraction(big_l * big_n * big_l, denom))
    return big_l, big_n, denom, r, 2 * s * big_l


def _prove(claims, leg, holds):
    """Record a proof leg; one that fails voids the whole certificate."""
    if not holds:
        raise CertificateError(f"proof leg failed: {leg}")
    claims[leg] = holds


@dataclass(frozen=True)
class WitnessResult:
    s: int
    big_n: int                      # N = s*d
    r: Point
    ftilde: PLFunction
    f: PLFunction
    degree: int                     # 2sL, the graded degree of f
    order_triple: tuple[int, int, int] | None
    claims: dict
    obstruction: dict               # indecomposability_check's report


def build_witness(inst, s, budget=DEFAULT_BUDGET):
    """Construct the extremal witness f with 2sL*D + div(f) = [p] + (2LN-1)[r].

    The tent function ftilde vanishes off e and dips to
    -L*LN(LN-1)/(2LN-1) at r, placed at offset L*LN/(2LN-1) from p; its two
    slopes are -(LN-1) and LN, so LN[p] + LN[q] + div(ftilde) collapses to
    [p] + (2LN-1)[r].  The endpoint-equivalence witness for n, raised to the
    tropical power s/n, solves s*D ~ (N/2)([p]+[q]); composing its 2L-th
    power with ftilde lands the target divisor exactly.  The obstruction
    table below degree 2sL is the last leg.  Every claim is the outcome of a
    check run here; a failed check raises CertificateError.
    """
    report = check_hypotheses(inst)
    if not report["all_pass"]:
        failed = [k for k, v in report["checks"].items() if not v]
        raise HypothesisFailure(f"hypotheses failed: {', '.join(failed)}")
    big_l, big_n, denom, r, degree = _geometry(inst, s)
    claims = {}
    _prove(claims, "r_not_z_point", not inst.graph.is_z_point(r))

    dip = -Fraction(big_l * big_n * (big_l * big_n - 1), denom) * big_l
    ftilde = PLFunction.from_vertex_values(
        inst.graph, [0] * inst.graph.model.vertex_count,
        interior={inst.edge: [(r.offset, dip)]})
    target = MetricDivisor.of(inst.graph, {Point.vertex(inst.p): 1, r: denom})
    tent = ftilde.div()
    _prove(claims, "target_divisor",
           inst.endpoints_divisor(big_l * big_n) + tent == target)

    order_triple = None
    p = Point.vertex(inst.p)
    if inst.p != inst.q:
        order_triple = (tent.coeff(p), tent.coeff(Point.vertex(inst.q)), tent.coeff(r))
        orders = order_triple == (-(big_l * big_n - 1), -big_l * big_n, denom)
    else:
        orders = (tent.coeff(p), tent.coeff(r)) == (-denom, denom)
    _prove(claims, "orders_match", orders)

    w = report["equivalence_witness"].power(s // inst.n)
    _prove(claims, "target_divisor",
           w.div() == inst.endpoints_divisor(big_n // 2) - s * inst.divisor)
    f = w.power(2 * big_l).odot(ftilde)
    _prove(claims, "target_divisor", degree * inst.divisor + f.div() == target)
    _prove(claims, "extremal",
           is_extremal_metric(inst.graph, degree * inst.divisor, f, budget))
    obstruction = indecomposability_check(inst, s)
    if not obstruction["obstruction_holds"]:
        raise CertificateError(f"obstruction fails below degree {degree}")
    return WitnessResult(s=s, big_n=big_n, r=r, ftilde=ftilde, f=f,
                         degree=degree, order_triple=order_triple, claims=claims,
                         obstruction=obstruction)


def indecomposability_check(inst, s):
    """Refute k*D ~ kd[r] for every k below the witness degree.

    A decomposition of the witness into lower-degree factors would hand one
    factor the divisor kd[r]; integrality of its slopes forces 2LN-1 | k,
    which is out of range.  The direct per-k solve is run anyway: all rows
    1..2sL-1 must be inequivalent.  The first admissible degree 2LN-1 is
    reported as an informational row (divisibility is necessary, not
    sufficient), and any solvable row must pass the divisibility check.
    Every row has support {r} and supp D, so one refined model (and one
    Smith form of its Laplacian) decides them all; the table is polynomial
    and needs no budget.
    """
    _, _, denom, r, degree = _geometry(inst, s)
    point_r = MetricDivisor.of(inst.graph, {r: 1})
    refinement = Refinement(inst.graph, [inst.divisor, point_r])
    rows = {}
    for k in list(range(1, degree)) + [denom]:
        w = refinement.linear_equiv(k * inst.divisor, (k * inst.d) * point_r)
        if w is not None and k % denom != 0:
            raise CertificateError(
                f"k*D ~ kd[r] solvable at k = {k}, not a multiple of 2LN-1 = {denom}")
        rows[k] = w is not None
    return {
        "s": s,
        "degree": degree,
        "first_admissible": denom,
        "rows": rows,
        "obstruction_holds": not any(rows[k] for k in range(1, degree)),
    }


def nonfinite_certificate(inst, s_list, budget=DEFAULT_BUDGET):
    """One verified witness per s: a family of indispensable generators.

    Each certificate pins an extremal element of degree 2sL that elements of
    lower degree cannot generate.  Any candidate finite generating set has a
    maximal generator degree M; choosing s with 2sL > M defeats it, so the
    family stands in for the unbounded induction.  The certificates are
    build_witness's results, one per s.
    """
    if not s_list:
        raise InputError("s_list must be nonempty")
    return {
        "hypotheses": check_hypotheses(inst),
        "certificates": [build_witness(inst, s, budget) for s in s_list],
        "conclusion": ("every degree bound M is exceeded by the witness with "
                       "2sL > M; the graded semi-ring has no finite "
                       "generating set"),
    }


def complete_graph_instance(n, edge_len=1):
    """Instance on the complete graph K_n (n >= 4) with unit-multiple lengths.

    D is the canonical divisor; e joins the first two vertices (no edge of
    K_n is a bridge); n_param is 1 for odd n and 2 for even n, matching the
    parity for which (n_param * deg K)/2 is reachable at the endpoints.
    """
    if n < 4:
        raise InputError("complete-graph instances need n >= 4")
    if int(edge_len) != edge_len or edge_len < 1:
        raise InputError("edge length must be a positive integer")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [f"v{i}" for i in range(n)]
    graph = MetricGraph(build_graph(n, edges, labels=labels),
                        tuple(Fraction(edge_len) for _ in edges))
    divisor = canonical_divisor_metric(graph)
    n_param = 1 if n % 2 == 1 else 2
    return WitnessInstance(graph, divisor, edge=0, n=n_param)
