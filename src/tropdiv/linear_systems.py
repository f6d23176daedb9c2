"""Linear systems R(G, D) on finite graphs and their tropical algebra.

R(G, D) is the set of integer vertex functions f with div(f) + D effective.
It is closed under pointwise max (tropical sum) and constant shifts, so the
interesting object is the finite set of representatives modulo shifts.
Representatives are enumerated through the divisor classes they cut out:
f -> D + div(f) is a bijection from R(G, D) modulo constants onto the
effective divisors linearly equivalent to D, and the latter are recognised
by an exact Smith-form lattice test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .budget import DEFAULT_BUDGET
from .errors import (CertificateError, EmptyOrFullSubset, InputError, NotMember,
                     SizeMismatch)
from .graphs import RationalFunction, ord_and_div


def oplus(f, g):
    """Tropical sum: pointwise max."""
    if len(f.values) != len(g.values):
        raise SizeMismatch("functions on different graphs")
    return RationalFunction(tuple(max(a, b) for a, b in zip(f.values, g.values)))


def odot(f, g):
    """Tropical product: pointwise sum."""
    if len(f.values) != len(g.values):
        raise SizeMismatch("functions on different graphs")
    return RationalFunction(tuple(a + b for a, b in zip(f.values, g.values)))


def scale(c, f):
    """Tropical action of the constant c: add c everywhere."""
    return f.shift(c)


@dataclass(frozen=True, order=True)
class RgdElement:
    """Orbit representative in R(G, m*D), tagged with its graded degree m."""

    degree: int
    function: RationalFunction

    def __post_init__(self):
        if self.function.values and min(self.function.values) != 0:
            raise InputError("representatives are stored min-0 normalized")

    @property
    def slice_values(self):
        """The same orbit pinned by f(v_0) = 0 (polyhedron slice coordinates)."""
        v0 = self.function.values[0]
        return tuple(v - v0 for v in self.function.values)


def rgd_member(graph, divisor, f):
    """Membership test div(f) + D >= 0, computed from scratch."""
    return (ord_and_div(graph, f) + divisor).is_effective()


def _effective_divisor_matrix(n, d):
    """All effective divisors of degree d on n vertices, each as the sorted
    tuple of the vertices carrying its d chips."""
    return list(itertools.combinations_with_replacement(range(n), d))


def rgd_enumerate(graph, divisor, degree=1, budget=DEFAULT_BUDGET):
    """All of R(G, D) modulo constant shifts, as min-0 representatives.

    Exhaustive: candidates are the effective divisors of degree deg(D); each
    is kept exactly when it is linearly equivalent to D, and the witness of
    the equivalence is the (unique modulo constants) member it comes from.
    Every returned element is re-checked for membership independently.
    """
    n = graph.vertex_count
    if len(divisor.coeffs) != n:
        raise SizeMismatch("divisor sized to a different graph")
    d = divisor.degree()
    if d < 0:
        return ()
    solver = graph.laplacian_solver
    # recession cone of {div(f) + D >= 0} modulo constants must be trivial,
    # which for a connected graph is exactly corank 1 of the Laplacian
    assert solver.rank == n - 1, "Laplacian corank != 1; graph not connected?"

    budget.check_count(comb(n + d - 1, d), budget.max_lattice_candidates,
                       "lattice candidates")

    # E ~ D iff E - D lies in the image of the Laplacian, which the solver's
    # cokernel rows decide; a row's value on E is the sum of its entries at
    # E's chips.  Larger moduli reject more candidates, so they go first; the
    # modulus-0 row of a connected graph's Laplacian only compares degrees.
    checks = []
    for row, mod in sorted(solver.cokernel_rows, key=lambda rm: (rm[1] == 0, -rm[1])):
        target = sum(a * c for a, c in zip(row, divisor.coeffs))
        checks.append((row, mod, target % mod if mod else target))
    out = []
    for combo in _effective_divisor_matrix(n, d):
        for row, mod, target in checks:
            value = sum(map(row.__getitem__, combo))
            if (value % mod if mod else value) != target:
                break
        else:
            coeffs = [0] * n
            for v in combo:
                coeffs[v] += 1
            x = solver.solve([a - b for a, b in zip(coeffs, divisor.coeffs)])
            if x is None:
                raise CertificateError("cokernel test accepted an unsolvable candidate")
            f = RationalFunction(tuple(x)).normalized()
            if not rgd_member(graph, divisor, f):
                raise CertificateError("enumerated element fails the membership replay")
            out.append(RgdElement(degree, f))
    return tuple(sorted(out))


def chip_firing_function(graph, subset):
    """Indicator drop: 0 on the subset, -1 outside."""
    return RationalFunction(tuple(0 if x in subset else -1
                                  for x in range(graph.vertex_count)))


def can_fire(graph, divisor, subset):
    """Whether the subset fires on the divisor: result stays effective."""
    s = frozenset(subset)
    if not s or len(s) >= graph.vertex_count:
        raise EmptyOrFullSubset("firing subset must be proper and nonempty")
    if not all(0 <= x < graph.vertex_count for x in s):
        raise InputError("subset contains out-of-range vertices")
    cf = chip_firing_function(graph, s)
    return (divisor + ord_and_div(graph, cf)).is_effective()


def firing_subsets(graph, divisor, budget=DEFAULT_BUDGET):
    """All proper nonempty subsets that fire on an effective divisor.

    A vertex carrying zero chips can only fire if none of its edges leave the
    subset, so the subset restricted to zero-chip vertices is a union of
    connected components of the zero region, and each chosen component drags
    its positively-charged neighbours in.  That cuts the search from 2^|V| to
    2^(supp) * 2^(components), and the budget caps supp + components.
    """
    n = graph.vertex_count
    if not divisor.is_effective():
        raise InputError("firing enumeration expects an effective divisor")

    positive = [x for x in range(n) if divisor.coeffs[x] > 0]
    zero = frozenset(x for x in range(n) if divisor.coeffs[x] == 0)

    # connected components of the zero region
    parent = {x: x for x in zero}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        if u != v and u in zero and v in zero:
            parent[find(u)] = find(v)
    comps = {}
    for x in zero:
        comps.setdefault(find(x), set()).add(x)
    comp_list = [frozenset(c) for c in comps.values()]
    comp_pos_nbrs = []
    for c in comp_list:
        nbrs = set()
        for u, v in graph.edges:
            if u != v:
                if u in c and v not in zero:
                    nbrs.add(v)
                if v in c and u not in zero:
                    nbrs.add(u)
        comp_pos_nbrs.append(frozenset(nbrs))

    budget.check_count(len(positive) + len(comp_list), budget.max_firing_vertices,
                       "firing search parts")

    out = []
    for srange in range(1 << len(positive)):
        s = frozenset(positive[i] for i in range(len(positive)) if srange >> i & 1)
        eligible = [i for i, c in enumerate(comp_list) if comp_pos_nbrs[i] <= s]
        for trange in range(1 << len(eligible)):
            vset = set(s)
            for j in range(len(eligible)):
                if trange >> j & 1:
                    vset |= comp_list[eligible[j]]
            if not vset or len(vset) >= n:
                continue
            ok = True
            for x in s:
                leaving = sum((u == x and v not in vset) + (v == x and u not in vset)
                              for u, v in graph.edges if u != v)
                if divisor.coeffs[x] < leaving:
                    ok = False
                    break
            if ok:
                out.append(frozenset(vset))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def is_extremal(graph, divisor, f, budget=DEFAULT_BUDGET):
    """Extremality: no two proper firing subsets cover all vertices."""
    if not rgd_member(graph, divisor, f):
        raise NotMember("f is not in R(G, D)")
    e = divisor + ord_and_div(graph, f)
    subsets = firing_subsets(graph, e, budget)
    everything = frozenset(range(graph.vertex_count))
    for i, a in enumerate(subsets):
        for b in subsets[i + 1:]:
            if a | b == everything:
                return False
    return True


def extremals(graph, divisor, degree=1, budget=DEFAULT_BUDGET):
    """Extremal orbit representatives of R(G, D)."""
    return tuple(el for el in rgd_enumerate(graph, divisor, degree, budget)
                 if is_extremal(graph, divisor, el.function, budget))


def oplus_cover(target_values, candidate_values):
    """Decide whether target = max over shifted candidates, constructively.

    Each candidate is shifted as high as it goes while staying <= target; it
    can then only match target on the argmin of (target - candidate).  The
    target is a tropical sum of shifted candidates iff those argmin sets
    cover every vertex.  Returns the list of (shift, candidate_index) terms
    actually needed, or None.
    """
    n = len(target_values)
    uncovered = set(range(n))
    terms = []
    for idx, cand in enumerate(candidate_values):
        diffs = [t - c for t, c in zip(target_values, cand)]
        shift = min(diffs)
        touched = {i for i, d in enumerate(diffs) if d == shift}
        if touched & uncovered:
            terms.append((shift, idx))
            uncovered -= touched
        if not uncovered:
            return terms
    return None
