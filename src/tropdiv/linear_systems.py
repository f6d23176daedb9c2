"""Linear systems R(G, D) on finite graphs and their tropical algebra.

R(G, D) is the set of integer vertex functions f with div(f) + D effective.
It is closed under pointwise max (tropical sum) and constant shifts, so the
interesting object is the finite set of representatives modulo shifts.
Representatives are enumerated through the divisor classes they cut out:
f -> D + div(f) is a bijection from R(G, D) modulo constants onto the
effective divisors linearly equivalent to D.  Those are listed by a walk
over the finite Jacobian (a class is one int packing its residues under the
Laplacian's Smith-form cokernel rows) that enters only branches ending in
D's class.  The walk carries each member's sum of per-vertex potentials,
solved once, down its stack, and the member's function is read off that
sum, so the enumeration costs about its output rather than the
C(n+d-1, d) effective divisors of degree d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from math import comb
from operator import add

from .budget import DEFAULT_BUDGET
from .errors import (CertificateError, EmptyOrFullSubset, InputError, NotMember,
                     SizeMismatch)
from .graphs import RationalFunction, _of_ints, ord_and_div


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


def _effective_divisor_matrix(solver, divisor, vectors, start):
    """The effective divisors E linearly equivalent to D, each as the list
    start + sum_v E_v vectors[v], in the lexicographic order of E's sorted
    chip tuples.  Rows may share one list object, so they are read-only.

    A divisor's class is its values under the solver's cokernel rows of
    non-zero modulus m_i, reduced mod m_i and packed into one int: field i
    has b = bit_length(2 max m_i) bits and a guard bit above them, and a class
    keeps each residue in [0, m_i) and each guard bit 0.  A sum s of two
    classes has s_i < 2 m_i < 2^b; adding lift (2^b - m_i per field) sets
    exactly the guards of the fields with s_i >= m_i and carries no further;
    shifted down b bits and times fill = 2^b - 1, those guards mask mods to
    the m_i to take off.  col[v] and back[v] are the classes of +-e_v.  The
    modulus-0 row of a connected graph's Laplacian is +-(1, ..., 1) and only
    compares degrees.  reach[v][r] holds the classes of the divisors with r
    chips on vertices v, ..., n-1, and a depth-first walk puts c chips on
    vertex v only when the rest of D's class stays in reach[v + 1][r - c],
    so every branch it enters ends in a member.  Each frame carries its
    running sum, so c > 0 chips cost one add of the precomputed c vectors[v]
    and c = 0 shares the parent's list.  reach[n-1][r] is the one class of r
    chips on n-1, so a frame reaching the last vertex is a member and is
    emitted at once.  The table has at most C(n+d, d+1) entries, that is
    (n+d)/(d+1) times the C(n+d-1, d) candidates a scan would test; nothing
    is sized by the Jacobian's order.
    """
    n = len(divisor.coeffs)
    d = divisor.degree()
    if d < 0:
        return []
    torsion = [(row, mod) for row, mod in solver.cokernel_rows if mod]
    moduli = [mod for _, mod in torsion]
    b = (2 * max(moduli, default=0)).bit_length()

    def pack(fields):
        return sum(x << i * (b + 1) for i, x in enumerate(fields))

    mods, lift = pack(moduli), pack((1 << b) - m for m in moduli)
    guards, fill = pack([1 << b] * len(moduli)), (1 << b) - 1
    col = [pack(row[v] % mod for row, mod in torsion) for v in range(n)]
    back = [pack(-row[v] % mod for row, mod in torsion) for v in range(n)]
    # reach[0] is never read: the walk starts there in D's own class
    reach = [None] * n + [[{0}] + [set()] * d]
    for v in range(n - 1, 0, -1):
        below = reach[v + 1]
        cells = [below[0]]
        for r in range(1, d + 1):
            cells.append(below[r] | {s - ((((s + lift) & guards) >> b) * fill & mods)
                                     for c in cells[r - 1] for s in (c + col[v],)})
        reach[v] = cells
    # times[v][c] is c vectors[v]
    times = [[[c * x for x in vec] for c in range(d + 1)] for vec in vectors]
    last = times[n - 1]

    target = pack(sum(a * c for a, c in zip(row, divisor.coeffs)) % mod
                  for row, mod in torsion)
    out = []
    stack = [(0, d, target, start)]
    while stack:
        v, r, need, h = stack.pop()
        if v == n - 1:
            out.append(list(map(add, h, last[r])) if r else h)
            continue
        below, step = reach[v + 1], times[v]
        # pushed from c = 0 up, so the walk pops members in lexicographic order
        if need in below[r]:
            stack.append((v + 1, r, need, h))
        for c in range(1, r + 1):
            s = need + back[v]
            need = s - ((((s + lift) & guards) >> b) * fill & mods)
            if need in below[r - c]:
                stack.append((v + 1, r - c, need, list(map(add, h, step[c]))))
    return out


def rgd_enumerate(graph, divisor, degree=1, budget=DEFAULT_BUDGET):
    """All of R(G, D) modulo constant shifts, as min-0 representatives.

    Exhaustive: f -> D + div(f) maps R(G, D) modulo constants onto the
    effective divisors in D's class, which _effective_divisor_matrix lists.
    With N the last non-zero invariant factor of the Laplacian, N times any
    degree-0 divisor is principal, so P_v with div(P_v) = N (e_v - e_0) is
    solved once per vertex.  A member E then has
    h = sum_v E_v P_v - sum_v D_v P_v = N f + const, which the walk carries
    down to each member, and f is (h - min h) / N, an exact division only
    when E ~ D.  Every returned element is re-checked for membership
    independently.
    """
    if degree < 0:
        raise InputError(f"graded degree {degree} is negative")
    n = graph.vertex_count
    if len(divisor.coeffs) != n:
        raise SizeMismatch("divisor sized to a different graph")
    d = divisor.degree()
    if d < 0:
        return ()
    solver = graph.laplacian_solver
    # recession cone of {div(f) + D >= 0} modulo constants must be trivial,
    # which for a connected graph is exactly corank 1 of the Laplacian
    if solver.rank != n - 1:
        raise CertificateError("Laplacian corank != 1; graph not connected?")

    # C(n+d-1, d) effective divisors have degree d; the walk's table is at
    # most (n+d)/(d+1) times that, so this cap bounds it
    budget.check_count(comb(n + d - 1, d), budget.max_lattice_candidates,
                       "lattice candidates")

    top = solver.diag[solver.rank - 1] if solver.rank else 1
    potentials = [[0] * n]
    for v in range(1, n):
        p = solver.solve([top * ((u == v) - (u == 0)) for u in range(n)])
        if p is None:
            raise CertificateError("a multiple of a degree-0 divisor is not principal")
        potentials.append(p)
    base = [0] * n
    for c, p in zip(divisor.coeffs, potentials):
        if c:
            base = [a - c * b for a, b in zip(base, p)]
    out = []
    for h in _effective_divisor_matrix(solver, divisor, potentials, base):
        low = min(h)
        if any((x - low) % top for x in h):
            raise CertificateError("potential sum is not a multiple of the exponent")
        f = _of_ints(RationalFunction, tuple((x - low) // top for x in h))
        if not rgd_member(graph, divisor, f):
            raise CertificateError("enumerated element fails the membership replay")
        out.append(RgdElement(degree, f))
    # every element has this degree, so their values alone fix the order
    return tuple(sorted(out, key=lambda el: el.function.values))


def can_fire(graph, divisor, subset):
    """Whether the subset fires on the divisor: result stays effective."""
    s = frozenset(subset)
    if not s or len(s) >= graph.vertex_count:
        raise EmptyOrFullSubset("firing subset must be proper and nonempty")
    if not all(0 <= x < graph.vertex_count for x in s):
        raise InputError("subset contains out-of-range vertices")
    # the indicator drop: 0 on the subset, -1 outside
    cf = RationalFunction(tuple(0 if x in s else -1 for x in range(graph.vertex_count)))
    return rgd_member(graph, divisor, cf)


def _firing_parts(graph, coeffs):
    """Yield the parts of V in order of their least vertex, that vertex
    first: a vertex holding chips is a part on its own, and a zero-chip
    component is one part."""
    nbrs = graph.neighbors
    done = bytearray(graph.vertex_count)
    for x in range(graph.vertex_count):
        if done[x]:
            continue
        done[x] = 1
        part = [x]
        if not coeffs[x]:
            for y in part:
                for z in nbrs[y]:
                    if not coeffs[z] and not done[z]:
                        done[z] = 1
                        part.append(z)
        yield part


def firing_subsets(graph, divisor, budget=DEFAULT_BUDGET):
    """All proper nonempty subsets that fire on an effective divisor.

    A subset fires exactly when each of its vertices holds at least as many
    chips as it has neighbours (with multiplicity) outside it.  A zero-chip
    vertex then fires only with all its neighbours, so a firing subset is a
    union of parts (_firing_parts), and the search walks the 2^parts unions
    as bitmasks over the parts; budget.max_firing_vertices caps the parts.
    A union holding a zero-chip part but not the parts of its charged
    neighbours cannot fire and is skipped; otherwise only the charged
    vertices need the chip test.
    """
    if not divisor.is_effective():
        raise InputError("firing enumeration expects an effective divisor")
    if len(divisor.coeffs) != graph.vertex_count:
        raise SizeMismatch("divisor sized to a different graph")
    coeffs, nbrs = divisor.coeffs, graph.neighbors
    parts = list(_firing_parts(graph, coeffs))
    budget.check_count(len(parts), budget.max_firing_vertices, "firing search parts")
    bit = {x: 1 << i for i, part in enumerate(parts) for x in part}
    # (part, parts of its charged neighbours) per zero-chip part;
    # (part, chips, neighbours' parts) per charged vertex
    zero = [(bit[p[0]], sum({bit[z] for y in p for z in nbrs[y] if coeffs[z]}))
            for p in parts if not coeffs[p[0]]]
    charged = [(bit[x], coeffs[x], [bit[y] for y in nbrs[x]]) for x in bit if coeffs[x]]
    out = []
    # the parts partition V, so only mask 0 is empty and only the full mask is V
    for mask in range(1, (1 << len(parts)) - 1):
        if (all(mask & need == need for own, need in zero if mask & own)
                and all(chips >= sum(not mask & b for b in around)
                        for own, chips, around in charged if mask & own)):
            out.append(frozenset(x for x, own in bit.items() if mask & own))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _largest_firing_sets(graph, coeffs):
    """Yield W_x for the first vertex x of each part, as a bitmask: the
    largest subset avoiding x that fires on the effective divisor coeffs.

    Firing subsets are closed under union, so W_x exists, and Dhar's burning
    finds it: fire starts at x and crosses every edge; a vertex burns once
    more burnt edges reach it than it has chips, and the unburnt vertices
    are W_x.  A firing subset avoiding x never burns: its first vertex to
    burn would hold fewer chips than its edges leaving the subset.  A
    zero-chip start burns its whole part, so one burn per part stands for
    all of it.
    """
    n = graph.vertex_count
    nbrs = graph.neighbors
    for part in _firing_parts(graph, coeffs):
        x = part[0]
        hits = [0] * n
        unburnt = ((1 << n) - 1) ^ (1 << x)
        stack = [x]
        while stack:
            for y in nbrs[stack.pop()]:
                if unburnt >> y & 1:
                    hits[y] += 1
                    if hits[y] > coeffs[y]:
                        unburnt ^= 1 << y
                        stack.append(y)
        yield unburnt


def is_extremal(graph, divisor, f, budget=DEFAULT_BUDGET):
    """Extremality: no two proper firing subsets cover all vertices.

    Every proper firing subset avoids some vertex x and so lies in W_x
    (_largest_firing_sets), so two of them cover V exactly when two W's do:
    a polynomial test.  A covering pair is replayed by firing both sets; a
    no-cover answer is replayed by the exhaustive firing_subsets family,
    whose size budget.max_firing_vertices caps.
    """
    e = divisor + ord_and_div(graph, f)
    if not e.is_effective():
        raise NotMember("f is not in R(G, D)")
    n = graph.vertex_count
    full = (1 << n) - 1
    masks = []
    for a in _largest_firing_sets(graph, e.coeffs):
        for b in masks:
            if a | b == full:
                # fire each set: its indicator drop is 0 on it and -1 off it
                for m in (a, b):
                    drop = _of_ints(RationalFunction, tuple((m >> x & 1) - 1 for x in range(n)))
                    if not 0 < m < full or not rgd_member(graph, e, drop):
                        raise CertificateError("covering pair fails the firing replay")
                return False
        masks.append(a)
    subsets = firing_subsets(graph, e, budget)
    everything = frozenset(range(n))
    for i, a in enumerate(subsets):
        for b in subsets[i + 1:]:
            if a | b == everything:
                raise CertificateError("exhaustive firing family covers the vertices")
    return True


def extremals(graph, divisor, degree=1, budget=DEFAULT_BUDGET):
    """Extremal orbit representatives of R(G, D)."""
    return tuple(el for el in rgd_enumerate(graph, divisor, degree, budget)
                 if is_extremal(graph, divisor, el.function, budget))


def _lane_width(bound):
    """Bits per lane for values in [0, bound]: whole bytes, the top bit of
    each lane left clear as its guard."""
    return 8 * (bound.bit_length() // 8 + 1)


def _pack_lanes(columns, width):
    """One int per vertex whose lane k, width bits wide, holds columns[v][k];
    entries are non-negative and below the guard bit."""
    size = width // 8
    if size == 1:
        return [int.from_bytes(bytes(column), "little") for column in columns]
    return [int.from_bytes(b"".join(map(int.to_bytes, column, repeat(size), repeat("little"))),
                           "little")
            for column in columns]


def _cover_lanes(diffs, columns, start, count, bias, width, uncovered):
    """Cover steps for the candidates in lanes start .. start + count - 1.

    Lane j of columns[v] holds candidate j's value at v, and lane j of X_v
    is diffs[v] + bias minus that value, which the caller keeps in
    [0, 2**(width - 1)) so that every lane's top (guard) bit stays clear.
    The lanewise min over the X_v is each candidate's optimal shift plus
    bias, and the lanes where X_v equals it mark the vertices the shifted
    candidate matches.  Candidates are taken lowest lane first, as a scan of
    one at a time would: one that matches an uncovered vertex drops those
    vertices from the list uncovered.  Returns (j - start, shift) for each such candidate,
    stopping once uncovered is empty.
    """
    keep = (1 << width * count) - 1
    ones = keep // ((1 << width) - 1)
    guards = ones << width - 1
    skip = width * start
    xs = [(d + bias) * ones - (c >> skip & keep) for d, c in zip(diffs, columns)]
    low = xs[0]
    for x in xs[1:]:
        # the guard bit survives (low | guards) - x where low >= x
        ge = ((low | guards) - x) & guards
        low ^= (low ^ x) & (ge - (ge >> width - 1))
    top = low | guards
    # lanes of X_v equal to the min carry their guard bit in (top - X_v)
    marks = [(v, (top - xs[v]) & guards) for v in uncovered]
    hit = reduce(int.__or__, (mark for _, mark in marks), 0)
    lane = (1 << width) - 1
    steps = []
    while hit:
        bit = hit & -hit
        k = bit.bit_length() // width - 1
        steps.append((k, (low >> width * k & lane) - bias))
        marks = [(v, mark) for v, mark in marks if not mark & bit]
        hit = reduce(int.__or__, (mark for _, mark in marks), 0) & -(bit << 1)
    uncovered[:] = [v for v, _ in marks]
    return steps


def oplus_cover(target_values, candidate_values):
    """Decide whether target = max over shifted candidates, constructively.

    Each candidate is shifted as high as it goes while staying <= target; it
    can then only match target on the argmin of (target - candidate).  The
    target is a tropical sum of shifted candidates iff those argmin sets
    cover every vertex.  Returns the list of (shift, candidate_index) terms
    actually needed, or None.  All candidates are one run of lanes for
    _cover_lanes.
    """
    if not candidate_values:
        return None
    low = min(map(min, candidate_values))
    high = max(map(max, candidate_values))
    floor = min(target_values)
    width = _lane_width(max(target_values) - floor + high - low)
    columns = _pack_lanes([[c - low for c in column] for column in zip(*candidate_values)],
                          width)
    uncovered = list(range(len(target_values)))
    steps = _cover_lanes([t - low for t in target_values], columns, 0,
                         len(candidate_values), high - floor, width, uncovered)
    return None if uncovered else [(shift, k) for k, shift in steps]
