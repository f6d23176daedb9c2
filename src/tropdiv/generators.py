"""Finite generation machinery for the graded semi-rings oplus_m R(G, mD).

The degree-m component embeds as the height-m lattice points of the cone
{(x, m) : Lx + mD >= 0, m >= 0}; modulo the constant-shift lineality the
cone is pointed, and Gordan's construction (lattice points of fundamental
parallelepipeds spanned by extreme rays, reduced to irreducibles) yields a
finite generating set for the lattice-point monoid, hence for the semi-ring.

Monoid generation only sees tropical products.  The tropical sum can shrink
the minimal generating set further, so indecomposability queries use the
full covering criterion: a target is generated iff every vertex is touched
by some degree-exact product shifted as high as it goes while staying below
the target.  decompose() implements that test and produces replayable
certificates either way.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, prod
from operator import ge, mul, sub

from .budget import DEFAULT_BUDGET
from .errors import (CertificateError, DegenerateCone, InputError,
                     SizeMismatch)
from .graphs import (Divisor, FiniteGraph, RationalFunction, build_graph,
                     canonical_divisor, linear_equiv)
from .intlinalg import frac_nullspace, frac_rank, smith_normal_form
from .linear_systems import RgdElement, _cover_step, is_extremal, rgd_enumerate


@dataclass(frozen=True)
class MonoidCone:
    """Slice model of the graded cone: coordinates (x_1..x_{n-1}, m).

    The all-ones lineality direction is removed by pinning x_0 = 0; rows are
    the vertex constraints (Lx + mD >= 0) plus m >= 0.
    """

    graph: FiniteGraph
    divisor: Divisor
    rows: tuple[tuple[int, ...], ...]
    dim: int

    def slack(self, y):
        """The row values of y; y lies in the cone iff none is negative."""
        return tuple(sum(map(mul, row, y)) for row in self.rows)

    def contains(self, y):
        return all(s >= 0 for s in self.slack(y))

    def element_to_slice(self, el):
        v = el.slice_values
        return tuple(v[1:]) + (el.degree,)

    def slice_to_element(self, y):
        values = (0,) + tuple(y[:-1])
        return RgdElement(int(y[-1]), RationalFunction(values).normalized())


def graded_cone(graph, divisor):
    """Cone whose height-m lattice points are R(G, mD) modulo constants."""
    n = graph.vertex_count
    if len(divisor.coeffs) != n:
        raise SizeMismatch("divisor sized to a different graph")
    if graph.laplacian_solver.rank != n - 1:
        raise DegenerateCone("Laplacian corank != 1")
    lap = graph.laplacian
    rows = []
    for i in range(n):
        rows.append(tuple(lap[i][1:]) + (divisor.coeffs[i],))
    rows.append((0,) * (n - 1) + (1,))
    return MonoidCone(graph, divisor, tuple(rows), n)


def extreme_rays(cone):
    """Primitive generators of the extreme rays, brute-force over facets."""
    d = cone.dim
    rays = set()
    for subset in itertools.combinations(range(len(cone.rows)), d - 1):
        rows = [cone.rows[i] for i in subset]
        null = frac_nullspace(rows, d)
        if len(null) != 1:
            continue
        # the chosen rows have rank d - 1 and vanish on the primitive kernel
        # vector v, so a feasible one of +-v spans an extreme ray
        v = null[0]
        for cand in (tuple(v), tuple(-a for a in v)):
            if cone.contains(cand):
                rays.add(cand)
                break
    return sorted(rays)


def _parallelepiped_points(rays, budget):
    """Non-zero integer points of {sum t_j r_j : t_j in [0,1)}; [] for dependent rays.

    With U R V = S the Smith form of the ray matrix R and s_1 | ... | s_k its
    invariant factors, the integer points of the rays' span are R V (z / s)
    for integer z, so the residue classes modulo the ray lattice are
    z in prod range(s_i) with ray coordinates t = V (z / s).  Reducing t into
    [0, 1) over the common denominator s_k keeps everything in integers.
    """
    k = len(rays)
    d = len(rays[0])
    _, S, V = smith_normal_form([[rays[j][i] for j in range(k)] for i in range(d)])
    if k > d or S[k - 1][k - 1] == 0:
        return []
    diag = [S[i][i] for i in range(k)]
    budget.check_count(prod(diag), budget.max_lattice_candidates, "parallelepiped classes")
    top = diag[-1]
    # only the non-unit factors carry a non-zero z_i.  Stepping z_i, a wrap
    # included (s_i times column i of V scaled to s_k is 0 mod s_k), adds that
    # column to t mod s_k; the point R t / s_k then moves by the integer
    # vector R (column mod s_k) / s_k, less r_j for each t_j that wraps
    factors = []
    steps = []
    for i, s in enumerate(diag):
        if s > 1:
            col = [V[j][i] * (top // s) % top for j in range(k)]
            shift = [sum(cj * r[c] for cj, r in zip(col, rays)) // top for c in range(d)]
            factors.append(s)
            steps.append(([(j, cj) for j, cj in enumerate(col) if cj], shift))
    t = [0] * k
    x = [0] * d
    z = [0] * len(factors)
    points = []
    # an odometer over z, last digit fastest, from the class of 0 (not a point)
    for _ in range(prod(factors) - 1):
        i = len(factors) - 1
        while True:
            moves, shift = steps[i]
            x = [a + b for a, b in zip(x, shift)]
            for j, cj in moves:
                tj = t[j] + cj
                if tj >= top:
                    tj -= top
                    x = [a - b for a, b in zip(x, rays[j])]
                t[j] = tj
            z[i] += 1
            if z[i] < factors[i]:
                break
            z[i] = 0
            i -= 1
        points.append(tuple(x))
    return points


@dataclass(frozen=True)
class GeneratorSet:
    """Hilbert-basis representatives of degrees >= 1, modulo constant shifts.

    Degree-0 constants are the units and are never listed; they act through
    the shifts that every decomposition query optimises over anyway.
    """

    graph: FiniteGraph
    divisor: Divisor
    elements: tuple[RgdElement, ...]

    def degrees(self):
        return sorted({el.degree for el in self.elements})


def hilbert_basis(cone, budget=DEFAULT_BUDGET):
    """Irreducible generators of the lattice-point monoid of the cone.

    Candidates are the primitive extreme rays together with the fundamental
    parallelepiped points of every independent ray subset; by the conic
    version of Caratheodory plus division with remainder along rays, those
    candidates generate, so filtering to irreducibles yields the full
    Hilbert basis.  Only subsets of the span's rank are walked (dependent
    ones give no points): every independent subset extends to one of them,
    whose parallelepiped holds its own (the extra coefficients set to 0).
    Candidates are walked by height and kept unless they exceed a kept one
    by a cone point: in a pointed cone a reducible candidate is a
    lower-height irreducible plus a cone point, and two points of equal
    height differ by a non-zero height-0 vector, which the cone lacks.
    Since the rows are linear, c - a lies in the cone exactly when the
    slack of c is at least that of a in every row, so each candidate's
    slack is computed once and compared componentwise.
    A cone that is just the height axis has only constant sections at every
    degree and returns an empty generator list.
    """
    d = cone.dim
    rays = extreme_rays(cone)
    height_axis = (0,) * (d - 1) + (1,)
    if not rays or rays == [height_axis]:
        return GeneratorSet(cone.graph, cone.divisor, ())

    candidates = set(rays)
    span_rank = frac_rank(rays)
    budget.check_count(comb(len(rays), span_rank), budget.max_products, "ray subsets")
    for subset in itertools.combinations(rays, span_rank):
        candidates.update(_parallelepiped_points(subset, budget))

    # exact for a pointed cone (graded_cone's corank-1 check): no height-0 point
    basis = []
    kept_slacks = []
    for c in sorted(candidates, key=lambda y: (y[-1], y)):
        sc = cone.slack(c)
        if not any(all(map(ge, sc, sa)) for sa in kept_slacks):
            basis.append(c)
            kept_slacks.append(sc)

    elements = []
    for y in basis:
        el = cone.slice_to_element(y)
        if el.degree < 1:
            raise CertificateError("a Hilbert basis element has degree below 1")
        elements.append(el)
    return GeneratorSet(cone.graph, cone.divisor, tuple(sorted(elements)))


def monoid_certificate(target_slice, basis_slices, certified):
    """Nonnegative-integer combination of basis vectors equal to the target.

    Pure tropical-product certificate (no tropical sums): the target is b_i
    itself, or b_i plus a point of the table certified, which maps
    lower-height cone points to their certificates.  Returns the tuple of
    basis indices with multiplicity, or None.  Exact when the table holds
    every certifiable cone point below the target's height, since a product
    minus any of its factors is a smaller product.
    """
    for i, b in enumerate(basis_slices):
        rest = tuple(map(sub, target_slice, b))
        if not any(rest):
            return (i,)
        cert = certified.get(rest)
        if cert is not None:
            return (i,) + cert
    return None


def certify_basis(basis, m_max, budget=DEFAULT_BUDGET):
    """Check every element of R(G, mD) for m <= m_max against the basis.

    Degrees are certified in increasing order into the one table that
    monoid_certificate reads.  The table is complete below each target:
    rgd_enumerate lists every cone point of each height, and basis elements
    have degree at least 1.  Every certificate is replayed.
    Returns {m: number of elements certified}; raises CertificateError if
    any element fails, since that would disprove completeness of the basis.
    """
    if m_max < 0:
        raise InputError(f"certify bound {m_max} is negative")
    budget.check_degree(m_max)
    cone = graded_cone(basis.graph, basis.divisor)
    slices = [cone.element_to_slice(el) for el in basis.elements]
    certified = {}
    report = {}
    for m in range(1, m_max + 1):
        elements = rgd_enumerate(basis.graph, m * basis.divisor, degree=m, budget=budget)
        for el in elements:
            y = cone.element_to_slice(el)
            cert = monoid_certificate(y, slices, certified)
            replay = cert and tuple(map(sum, zip(*(slices[i] for i in cert))))
            if replay != y:
                raise CertificateError(
                    f"element {el} of degree {m} has no product certificate")
            certified[y] = cert
        report[m] = len(elements)
    return report


@dataclass(frozen=True)
class GenerationCertificate:
    """Replayable outcome of a generation query.

    When generated, terms are (shift, product) pairs whose tropical sum
    re-evaluates exactly to the target; products are multisets of generator
    indices.  When not generated, the search bound documents exhaustiveness.
    """

    target: RgdElement
    generated: bool
    terms: tuple[tuple[int, tuple[int, ...]], ...]
    products_checked: int
    search_description: str

    def evaluate(self, gens):
        if not self.generated:
            return None
        values = None
        for shift, product in self.terms:
            p = [shift] * len(self.target.function.values)
            for i in product:
                p = [a + b for a, b in zip(p, gens[i].function.values)]
            values = p if values is None else [max(a, b) for a, b in zip(values, p)]
        return RationalFunction(tuple(values))


def _gen_elements(gens):
    if isinstance(gens, GeneratorSet):
        return list(gens.elements)
    return list(gens)


def _count_products(degrees, total):
    """Number of multisets of generator indices with degree sum exactly
    total: the coefficient of x^total in the product of 1 / (1 - x^d) over
    the degrees d in [1, total]."""
    ways = [1] + [0] * total
    for d in degrees:
        if 0 < d <= total:
            for t in range(d, total + 1):
                ways[t] += ways[t - d]
    return ways[total]


def decompose(target, gens, budget=DEFAULT_BUDGET):
    """Decide whether the target lies in the sub-semi-ring generated by gens.

    A degree-exact product p can contribute to the target f only after the
    optimal shift min(f - p); it then matches f precisely on the argmin.
    The target is generated iff those touch sets cover every vertex; the
    certificate is the corresponding tropical sum.  The search over products
    is exhaustive, so a negative answer is a proof of absence below the
    stated bound.

    Products are the multisets of generator indices, walked depth first as
    non-decreasing index tuples in lexicographic order.  The walk carries
    f minus the product of the factors chosen so far, so each product costs
    one subtraction of its last factor, and only the still-uncovered
    vertices are tested for a match.  fits[i][r] says whether generators of
    index >= i have degrees summing to exactly r, so every branch the walk
    enters ends in a product; a negative answer still counts the products
    against _count_products.
    """
    elements = _gen_elements(gens)
    m = target.degree
    budget.check_degree(m)
    if m == 0:
        return GenerationCertificate(target, True, ((0, ()),), 0,
                                     "degree 0: constants are units")
    usable = [el for el in elements if 0 < el.degree <= m]
    degrees = [el.degree for el in usable]
    n_products = _count_products(degrees, m)
    budget.check_count(n_products, budget.max_products, "degree-exact products")

    fits = [[r == 0 for r in range(m + 1)]]
    for d in reversed(degrees):
        row = list(fits[-1])
        for r in range(d, m + 1):
            row[r] = row[r] or row[r - d]
        fits.append(row)
    fits.reverse()
    # options[r]: the indices that can come next with r degrees left, some
    # index at least as large completing the product
    options = [[i for i, d in enumerate(degrees) if d <= r and fits[i][r - d]]
               for r in range(m + 1)]
    values = [el.function.values for el in usable]
    uncovered = list(range(len(target.function.values)))
    terms = []
    checked = 0
    # each frame: the indices left to try, the degree left, f minus the
    # frame's product, and that product
    stack = [(iter(options[m]), m, target.function.values, ())]
    while stack and uncovered:
        it, r, diff, product = stack[-1]
        for i in it:
            rest = list(map(sub, diff, values[i]))
            if degrees[i] < r:
                left = r - degrees[i]
                opts = options[left]
                stack.append((iter(opts[bisect_left(opts, i):]), left, rest, product + (i,)))
                break
            checked += 1
            shift = _cover_step(rest, uncovered)
            if shift is not None:
                terms.append((shift, product + (i,)))
                if not uncovered:
                    break
        else:
            stack.pop()

    bound = f"all {n_products} products of degree exactly {m} over {len(usable)} generators"
    if uncovered:
        if checked != n_products:
            raise CertificateError(
                f"the product walk checked {checked} of {n_products} products")
        return GenerationCertificate(target, False, (), checked, bound)
    cert = GenerationCertificate(target, True, tuple(terms), checked, bound)
    if cert.evaluate(usable).values != target.function.values:
        raise CertificateError("generation certificate does not replay")
    return cert


def elements_below(graph, divisor, top, budget=DEFAULT_BUDGET):
    """Every element of R(G, m*D) for m = 1..top, degree by degree."""
    elements = []
    for m in range(1, top + 1):
        elements.extend(rgd_enumerate(graph, m * divisor, degree=m, budget=budget))
    return elements


def min_generator_degrees(graph, divisor, m_max, budget=DEFAULT_BUDGET):
    """Degrees m <= m_max carrying an element no lower-degree products reach."""
    budget.check_degree(m_max)
    gens_below = []
    out = []
    for m in range(1, m_max + 1):
        elements = rgd_enumerate(graph, m * divisor, degree=m, budget=budget)
        needed = False
        for el in elements:
            cert = decompose(el, gens_below, budget)
            if not cert.generated:
                needed = True
                break
        if needed:
            out.append(m)
        gens_below.extend(elements)
    return out


def build_gn(n):
    """Two vertices joined by three chains of 2n-1 edges each.

    Returns the graph and the distinguished vertices: the chain endpoints p
    and q, the vertex r at distance n from p on chain 0, and the vertices
    u, w at distance 1 from p on chains 1 and 2.
    """
    if n < 1:
        raise InputError("n must be positive")
    interior = 2 * n - 2
    labels = ["p", "q"]
    edges = []
    chain_vertices = []
    next_id = 2
    for chain in range(3):
        ids = []
        for j in range(interior):
            labels.append(f"s{chain}_{j}")
            ids.append(next_id)
            next_id += 1
        chain_vertices.append(ids)
        prev = 0
        for v in ids:
            edges.append((prev, v))
            prev = v
        edges.append((prev, 1))
    graph = build_graph(2 + 3 * interior, edges, labels=labels)
    roles = {
        "p": 0,
        "q": 1,
        "r": chain_vertices[0][n - 1] if n >= 2 else 1,
        "u": chain_vertices[1][0] if n >= 2 else 1,
        "w": chain_vertices[2][0] if n >= 2 else 1,
    }
    return graph, roles


def verify_gn(n, budget=DEFAULT_BUDGET):
    """Certificate that R(G_n) needs a generator in degree n.

    Three legs: (i) n*K is equivalent to [p] + (2n-1)[r] with an explicit
    witness, (ii) the witness is extremal, (iii) no tropical polynomial in
    elements of degrees < n reaches it (exhaustive degree-exact search).
    A cross-check scans degrees k < n for functions h with
    k*K + div(h) = 2k[r]; none may exist unless (2n-1) divides k, and any
    that appear must satisfy k = (2n-1)(3h(p) - 2h(u) - h(w)).
    """
    if n == 1:
        return {"n": 1, "vacuous": True}
    graph, roles = build_gn(n)
    k_div = canonical_divisor(graph)
    p, q, r = roles["p"], roles["q"], roles["r"]
    if k_div != Divisor.of(graph.vertex_count, {p: 1, q: 1}):
        raise CertificateError("canonical divisor of G_n is not [p] + [q]")

    target = Divisor.of(graph.vertex_count, {p: 1, r: 2 * n - 1})
    witness = linear_equiv(graph, target, n * k_div)
    if witness is None:
        raise CertificateError("witness equivalence failed")

    extremal = is_extremal(graph, n * k_div, witness, budget)
    if not extremal:
        raise CertificateError("witness is not extremal")

    gens = elements_below(graph, k_div, n - 1, budget)
    cert = decompose(RgdElement(n, witness.normalized()), gens, budget)
    if cert.generated:
        raise CertificateError("witness unexpectedly generated below degree n")

    obstruction = _gn_obstruction_cross_check(graph, roles, k_div, n, budget)

    return {
        "n": n,
        "vacuous": False,
        "witness": list(witness.values),
        "witness_found": witness is not None,
        "extremal": extremal,
        "generated_below": cert.generated,
        "search_bound": n - 1,
        "products_checked": cert.products_checked,
        "generators_below": len(gens),
        "obstruction": obstruction,
    }


def _gn_obstruction_cross_check(graph, roles, k_div, n, budget):
    """Per-degree solvability of k*K ~ 2k[r], with the integrality identity.

    Any h with k*K + div(h) = 2k[r] has constant slope along the two chains
    missing r, which forces k = (2n-1)(3h(p) - 2h(u) - h(w)); so such h can
    only exist when 2n-1 divides k.  Degrees 1..n-1 must therefore all be
    unsolvable; the first admissible degree 2n-1 is reported as a sanity
    row.
    """
    p, q, u, w, r = roles["p"], roles["q"], roles["u"], roles["w"], roles["r"]
    rows = {}
    for k in list(range(1, n)) + [2 * n - 1]:
        target = Divisor.of(graph.vertex_count, {r: 2 * k})
        h = linear_equiv(graph, target, k * k_div)
        if h is not None:
            hv = h.values
            lhs1 = hv[p] - hv[q]
            rhs1 = k + (2 * n - 1) * (hv[u] + hv[w] - 2 * hv[p])
            rhs2 = (2 * n - 1) * (hv[p] - hv[u])
            if not (lhs1 == rhs1 == rhs2
                    and k == (2 * n - 1) * (3 * hv[p] - 2 * hv[u] - hv[w])):
                raise CertificateError(f"integrality identity fails at k = {k}")
        rows[k] = h is not None
    if any(rows[k] for k in range(1, n)):
        raise CertificateError("k*K ~ 2k[r] is solvable below degree n")
    return rows
