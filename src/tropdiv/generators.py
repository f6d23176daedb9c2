"""Finite generation machinery for the graded semi-rings oplus_m R(G, mD).

The degree-m component embeds as the height-m lattice points of the cone
{(x, m) : Lx + mD >= 0, m >= 0}; modulo the constant-shift lineality the
cone is pointed.  It is simplicial, one extreme ray per vertex, so Gordan's
construction (lattice points of the one parallelepiped spanned by the rays,
reduced to irreducibles) yields a finite generating set for the
lattice-point monoid, hence for the semi-ring.  The parallelepiped is walked
and reduced in the rays' own coordinates, where lying in the cone is
componentwise nonnegativity; only the irreducibles become points.

Monoid generation only sees tropical products.  The tropical sum can shrink
the minimal generating set further, so indecomposability queries use the
full covering criterion: a target is generated iff every vertex is touched
by some degree-exact product shifted as high as it goes while staying below
the target.  decompose() implements that test and produces replayable
certificates either way.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import ge, itemgetter, mul, sub

from .budget import DEFAULT_BUDGET
from .errors import (CertificateError, DegenerateCone, InputError,
                     SizeMismatch)
from .graphs import (Divisor, FiniteGraph, RationalFunction, build_graph,
                     canonical_divisor, linear_equiv)
from .intlinalg import frac_nullspace, frac_rank, smith_normal_form
from .linear_systems import (RgdElement, _cover_lanes, _lane_width, _pack_lanes,
                             is_extremal, odot, oplus, rgd_enumerate)


@dataclass(frozen=True)
class MonoidCone:
    """The graded cone in slice coordinates (x_1..x_{n-1}, m).

    x_0 = 0 removes the all-ones lineality direction.  rows are the n vertex
    rows of Lx + mD >= 0 in vertex order, then m >= 0, as extreme_rays reads.
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
    """Primitive generators of the extreme rays, at most one per vertex.

    The ray of vertex v is the kernel of the other vertex rows, on which
    Lx + mD = m*deg(D)*[v]; its height N_v is the least m with
    m*(D - deg(D)*[v]) principal.  For deg(D) > 0 all n rays lie in the cone;
    for deg(D) = 0 each is the one where mD is principal; for deg(D) < 0 none.
    """
    rows = cone.rows
    rays = set()
    for v in range(cone.dim):
        null = frac_nullspace(rows[:v] + rows[v + 1:-1], cone.dim)
        if len(null) != 1:
            raise CertificateError(f"the cone's kernel at vertex {v} is not a line")
        ray = tuple(null[0])
        for cand in (ray, tuple(-a for a in ray)):
            if cone.contains(cand):
                rays.add(cand)
                break
    return sorted(rays)


def _parallelepiped_points(rays, budget):
    """Non-zero classes of {sum t_j r_j : t_j in [0,1)} in ray coordinates.

    Returns (top, classes): each class is (h, t_1, ..., t_k) with t_j the
    numerator of the j-th ray coordinate over top = s_k and h = sum t_j
    height(r_j), top times the point's height (its last coordinate).
    Dependent rays give (0, []).  With U R V = S the Smith form of the ray
    matrix R and s_1 | ... | s_k its invariant factors, the integer points of
    the rays' span are R V (z / s) for integer z, so the residue classes
    modulo the ray lattice are z in prod range(s_i) with ray coordinates
    t = V (z / s), reduced into [0, 1).  No point is built: the caller
    rebuilds the ones it keeps as R t / top.
    """
    k = len(rays)
    d = len(rays[0])
    _, diag, V = smith_normal_form([[rays[j][i] for j in range(k)] for i in range(d)])
    if k > d or diag[k - 1] == 0:
        return 0, []
    budget.check_count(prod(diag), budget.max_lattice_candidates, "parallelepiped classes")
    top = diag[-1]
    heights = [r[-1] for r in rays]
    # only the non-unit factors carry a non-zero z_i.  Stepping z_i, a wrap
    # included (s_i times column i of V scaled to s_k is 0 mod s_k), adds that
    # column to t mod s_k and its height to h, less top * height(r_j) for
    # each t_j that wraps
    factors = []
    steps = []
    for i, s in enumerate(diag):
        if s > 1:
            col = [V[i].get(j, 0) * (top // s) % top for j in range(k)]
            factors.append(s)
            steps.append([(j, cj, cj * heights[j], top * heights[j])
                          for j, cj in enumerate(col) if cj])
    t = [0] * k
    h = 0
    z = [0] * len(factors)
    classes = []
    # an odometer over z, last digit fastest, from the class of 0 (not a point)
    for _ in range(prod(factors) - 1):
        i = len(factors) - 1
        while True:
            for j, cj, up, wrap in steps[i]:
                tj = t[j] + cj
                h += up
                if tj >= top:
                    tj -= top
                    h -= wrap
                t[j] = tj
            z[i] += 1
            if z[i] < factors[i]:
                break
            z[i] = 0
            i -= 1
        classes.append((h, *t))
    return top, classes


@dataclass(frozen=True)
class GeneratorSet:
    """Hilbert-basis representatives of degrees >= 1, modulo constant shifts.

    Degree-0 constants are the units and are never listed; they act through
    the shifts that every decomposition query optimises over anyway.  The
    degree-1 constant is listed whenever D >= 0.
    """

    graph: FiniteGraph
    divisor: Divisor
    elements: tuple[RgdElement, ...]

    def degrees(self):
        return sorted({el.degree for el in self.elements})


def hilbert_basis(cone, budget=DEFAULT_BUDGET):
    """Irreducible generators of the lattice-point monoid of the cone.

    The cone is simplicial, so the candidates are its primitive extreme rays
    and the lattice points of their one fundamental parallelepiped: division
    with remainder along the rays writes every cone point as one of those
    plus rays, so the irreducible candidates are the full Hilbert basis.
    Dependent rays would leave points uncovered and raise CertificateError.
    The candidates stay in ray coordinates t (over the common denominator
    top, a ray being top times a unit vector), where c - a lies in the cone
    exactly when t_c >= t_a componentwise.  They are walked by height and
    kept unless they dominate a kept one: in a pointed cone a reducible
    candidate is a lower-height irreducible plus a cone point, and two
    distinct points of equal height never dominate each other, since every
    ray has positive height.  Only the kept t are rebuilt as points R t / top.
    """
    rays = extreme_rays(cone)
    if frac_rank(rays) != len(rays):
        raise CertificateError("the cone's extreme rays are linearly dependent")
    if not rays:  # a cone of negative degree is the origin alone
        return GeneratorSet(cone.graph, cone.divisor, ())
    top, candidates = _parallelepiped_points(rays, budget)
    k = len(rays)
    candidates += [(top * r[-1],) + (0,) * j + (top,) + (0,) * (k - 1 - j)
                   for j, r in enumerate(rays)]
    # sorted on h alone, since equal heights never dominate each other; a kept
    # candidate's h is at most the current one's, so comparing h too is harmless
    candidates.sort(key=itemgetter(0))
    kept = []
    for c in candidates:
        for a in kept:
            if all(map(ge, c, a)):
                break
        else:
            kept.append(c)

    R = list(zip(*rays))  # the rays as columns
    elements = []
    for _, *t in kept:
        y = []
        for row in R:
            x, rem = divmod(sum(map(mul, row, t)), top)
            if rem:
                raise CertificateError("a parallelepiped class is not a lattice point")
            y.append(x)
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
        one = RationalFunction((0,) * len(self.target.function.values))
        return reduce(oplus, (reduce(odot, (gens[i].function for i in product), one).shift(s)
                              for s, product in self.terms))


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
    f minus the product of the factors chosen so far.  A factor of degree
    below the degree left is taken only when generators of index at least
    its own complete the product, so every branch the walk enters ends in a
    product.  The generators of
    degree exactly r are packed, in index order, as the byte-aligned lanes
    of one int per vertex, so the last factors that follow a prefix with r
    degrees left, up to its next prefix factor, are one run of lanes:
    _cover_lanes tests the whole run in a few integer operations per
    vertex, taking hits lowest lane first exactly as one product at a time
    would.  A negative answer still counts the products against
    _count_products.
    """
    elements = _gen_elements(gens)
    if any(len(el.function.values) != len(target.function.values) for el in elements):
        raise SizeMismatch("generator sized to a different graph")
    m = target.degree
    if m < 0:
        raise InputError(f"target degree {m} is negative")
    budget.check_degree(m)
    if m == 0:
        return _replayed(GenerationCertificate(target, True, ((0, ()),), 0,
                                               "degree 0: constants are units"), [])
    # a degree outside 1..m is in no product; as m + 1 it stays out of every
    # table below, while terms still index the caller's list
    degrees = [el.degree if 0 < el.degree <= m else m + 1 for el in elements]
    n_products = _count_products(degrees, m)
    budget.check_count(n_products, budget.max_products, "degree-exact products")

    # with r degrees left, the next factor is a last one of degree exactly r
    # (leaves[r], the lanes of columns[r]) or a prefix factor that some index
    # at least as large completes (prefixes[r], closed by the sentinel len);
    # a reverse pass keeps fits[r]: some generators of index >= i have
    # degrees summing to exactly r
    fits = [r == 0 for r in range(m + 1)]
    leaves = [[] for _ in range(m + 1)]
    prefixes = [[] for _ in range(m + 1)]
    for i in reversed(range(len(degrees))):
        d = degrees[i]
        if d <= m:
            leaves[d].append(i)
        for r in range(d, m + 1):
            fits[r] = fits[r] or fits[r - d]
            if r > d and fits[r - d]:
                prefixes[r].append(i)
    for row in leaves + prefixes:
        row.reverse()
    for row in prefixes:
        row.append(len(degrees))
    values = [el.function.values for el in elements]
    # every value lies in [0, top], so a lane's f - product + bias lies in
    # [0, max f + bias]
    bias = m * max(map(max, values), default=0)
    width = _lane_width(max(target.function.values) + bias)
    columns = [_pack_lanes(zip(*map(values.__getitem__, row)), width) for row in leaves]
    uncovered = list(range(len(target.function.values)))
    terms = []
    checked = 0
    # each frame: the degree left, the next positions in prefixes[r] and
    # leaves[r], f minus the frame's product, and that product
    stack = [[m, 0, 0, target.function.values, ()]]
    while stack and uncovered:
        frame = stack[-1]
        r, a, b, diff, product = frame
        nxt = prefixes[r][a]
        lanes = leaves[r]
        if b < len(lanes) and lanes[b] < nxt:
            end = frame[2] = bisect_left(lanes, nxt, b)
            for k, shift in _cover_lanes(diff, columns[r], b, end - b, bias, width, uncovered):
                terms.append((shift, product + (lanes[b + k],)))
            checked += end - b if uncovered else k + 1
        elif nxt < len(degrees):
            frame[1] = a + 1
            left = r - degrees[nxt]
            stack.append([left, bisect_left(prefixes[left], nxt), bisect_left(leaves[left], nxt),
                          list(map(sub, diff, values[nxt])), product + (nxt,)])
        else:
            stack.pop()

    usable = sum(d <= m for d in degrees)
    bound = f"all {n_products} products of degree exactly {m} over {usable} generators"
    if uncovered:
        if checked != n_products:
            raise CertificateError(
                f"the product walk checked {checked} of {n_products} products")
        return GenerationCertificate(target, False, (), checked, bound)
    return _replayed(GenerationCertificate(target, True, tuple(terms), checked, bound), elements)


def _replayed(cert, gens):
    """The generated certificate, once its tropical sum re-evaluates over
    gens exactly to its target."""
    if cert.evaluate(gens).values != cert.target.function.values:
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

    obstruction = _gn_obstruction_cross_check(graph, roles, k_div, n)

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


def _gn_obstruction_cross_check(graph, roles, k_div, n):
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
