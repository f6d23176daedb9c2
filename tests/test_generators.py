import itertools
import random
import re
import tracemalloc
from math import prod

import pytest

from tropdiv import generators
from tropdiv.budget import Budget
from tropdiv.errors import BudgetExceeded, CertificateError, DegreeOverflow, SizeMismatch
from tropdiv.graphs import (Divisor, RationalFunction, build_graph, canonical_divisor,
                            linear_equiv)
from tropdiv.intlinalg import frac_rank, smith_normal_form
from tropdiv.linear_systems import RgdElement, is_extremal, rgd_enumerate
from tropdiv.generators import (
    GeneratorSet, MonoidCone, _parallelepiped_points,
    build_gn, certify_basis, decompose, extreme_rays, graded_cone, hilbert_basis,
    min_generator_degrees, monoid_certificate, verify_gn)

from conftest import random_multigraph, run_optimized
from oracles import (brute_force_hilbert_basis, degree_exact_products,
                     extreme_rays_by_facets, hilbert_basis_by_slack, in_image,
                     monoid_certificate_by_search, oplus_cover_by_argmin,
                     parallelepiped_point_walk, parallelepiped_points, rank_by_minors,
                     sufficient_box)


def basis_slices(gs):
    cone = graded_cone(gs.graph, gs.divisor)
    return {cone.element_to_slice(el) for el in gs.elements}


def certificate_table(cone, slices, m_max):
    """Every cone point up to height m_max, degree by degree, with its
    monoid_certificate read off the certified lower heights (None if none)."""
    certified = {}
    found = {}
    for m in range(1, m_max + 1):
        for el in rgd_enumerate(cone.graph, m * cone.divisor, degree=m):
            y = cone.element_to_slice(el)
            found[y] = monoid_certificate(y, slices, certified)
            if found[y] is not None:
                certified[y] = found[y]
    return found


def test_graded_cone_theta(theta):
    cone = graded_cone(theta, canonical_divisor(theta))
    # slice coords (a, m) with a = f(q): constraints 3a + m >= 0, -3a + m >= 0
    assert set(cone.rows) == {(3, 1), (-3, 1), (0, 1)}
    assert cone.contains((1, 3))
    assert not cone.contains((1, 2))


def test_graded_cone_single_edge(single_edge):
    cone = graded_cone(single_edge, Divisor((1, 0)))
    assert sorted(extreme_rays(cone)) == [(-1, 1), (0, 1)]


def test_extreme_rays_are_the_vertex_kernels(rng):
    # one kernel per vertex finds every ray the search over all row subsets
    # does, and the rays are independent: the cone is simplicial.  With
    # deg D > 0 each vertex v has its own ray, on which Lx + mD is supported
    # at v, at the least height m for which m(D - deg(D)[v]) is principal
    signs = set()
    for _ in range(60):
        graph = random_multigraph(rng)
        n = graph.vertex_count
        divisors = [canonical_divisor(graph)]
        for degree in (-1, 0, rng.randint(1, 3)):
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            coeffs[0] += degree - sum(coeffs)
            divisors.append(Divisor(tuple(coeffs)))
        for divisor in divisors:
            cone = graded_cone(graph, divisor)
            rays = extreme_rays(cone)
            assert rays == extreme_rays_by_facets(cone)
            assert frac_rank(rays) == len(rays)
            degree = divisor.degree()
            signs.add((degree > 0) - (degree < 0))
            if degree <= 0:
                continue
            assert len(rays) == n
            supports = set()
            for ray in rays:
                slack = cone.slack(ray)[:-1]
                (v,) = [u for u, s in enumerate(slack) if s]
                assert slack[v] == ray[-1] * degree
                shifted = divisor - Divisor.of(n, {v: degree})
                height = next(m for m in itertools.count(1)
                              if in_image(graph.laplacian_solver, (m * shifted).coeffs))
                assert ray[-1] == height
                supports.add(v)
            assert supports == set(range(n))
    assert signs == {-1, 0, 1}


def test_cone_height_slices_match_enumeration(theta, path3, k4):
    # lattice points at height m <-> R(G, mD), via an independent box scan
    for g in (theta, path3, k4):
        d = canonical_divisor(g)
        cone = graded_cone(g, d)
        for m in range(1, 5):
            spread = sufficient_box(g, m * d)
            pts = set()
            for y in itertools.product(range(-spread, spread + 1), repeat=g.vertex_count - 1):
                if cone.contains(y + (m,)):
                    pts.add(y + (m,))
            via_rgd = {cone.element_to_slice(el)
                       for el in rgd_enumerate(g, m * d, degree=m)}
            assert pts == via_rgd


def test_hilbert_basis_single_edge(single_edge):
    gs = hilbert_basis(graded_cone(single_edge, Divisor((1, 0))))
    assert basis_slices(gs) == {(0, 1), (-1, 1)}
    assert gs.degrees() == [1]


def test_hilbert_basis_theta(theta):
    gs = hilbert_basis(graded_cone(theta, canonical_divisor(theta)))
    assert basis_slices(gs) == {(0, 1), (1, 3), (-1, 3)}
    assert gs.degrees() == [1, 3]


def test_hilbert_basis_zero_divisor(theta):
    # the cone is the height axis, spanned by the degree-1 constant
    gs = hilbert_basis(graded_cone(theta, Divisor((0, 0))))
    assert basis_slices(gs) == {(0, 1)}
    assert certify_basis(gs, 3) == {1: 1, 2: 1, 3: 1}


def test_hilbert_basis_negative_degree(theta):
    # the cone is the origin alone: no vertex kernel points into it
    cone = graded_cone(theta, Divisor((-1, 0)))
    assert extreme_rays(cone) == []
    assert hilbert_basis(cone).elements == ()


def test_extreme_rays_refuse_a_kernel_that_is_not_a_line():
    # zero vertex rows, as a Laplacian of corank 2 would give, leave a plane
    cone = MonoidCone(None, None, ((0, 0), (0, 0), (0, 1)), 2)
    with pytest.raises(CertificateError, match="kernel at vertex 0 is not a line"):
        extreme_rays(cone)


def test_hilbert_basis_degree_zero_class(theta):
    # D = [p] - [q]: only degree multiples of 3 carry sections
    gs = hilbert_basis(graded_cone(theta, Divisor((1, -1))))
    assert basis_slices(gs) == {(-1, 3)}


def test_hilbert_basis_with_three_non_unit_invariant_factors(k4):
    # K_4 with D = [1] + [2]: the ray matrix has invariant factors 1, 2, 8, 8,
    # and the basis reaches degree 4.  Every basis element lies in the closed
    # parallelepiped, so the scan up to the rays' summed heights and
    # coordinates finds them all
    cone = graded_cone(k4, Divisor((0, 1, 1, 0)))
    rays = extreme_rays(cone)
    _, diag, _ = smith_normal_form([[r[c] for r in rays] for c in range(4)])
    assert diag == [1, 2, 8, 8]
    gs = hilbert_basis(cone)
    assert len(gs.elements) == 14 and gs.degrees() == [1, 2, 3, 4]
    height = sum(r[-1] for r in rays)
    box = max(sum(abs(r[c]) for r in rays) for c in range(3))
    assert basis_slices(gs) == brute_force_hilbert_basis(cone, height, box)


@pytest.mark.parametrize("name", ["theta", "k4", "h"])
def test_hilbert_basis_factors_one_kernel_per_vertex(theta, k4, name, smith_calls):
    # the Laplacian, one kernel of n - 1 rows per vertex, the rank check of
    # the n rays and their one parallelepiped
    graph = {"theta": theta, "k4": k4,
             "h": build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])}[name]
    hilbert_basis(graded_cone(graph, canonical_divisor(graph)))
    n = graph.vertex_count
    assert smith_calls == [n] + [n - 1] * n + [n, n]


def test_parallelepiped_points_match_oracle(rng):
    # random ray sets up to 5 x 5 whose bounding box (the oracle's scan, at
    # one rational solve per point) has at most 2,000 points.  Each class t
    # rebuilds to the point R t / s_k
    seen = {"k < d": 0, "5 x 5": 0, "non-unit": 0, "two non-unit": 0, "dependent": 0}
    handmade = [[(2, 0), (0, 2)], [(2, 0, 0), (0, 2, 0)], [(1, 2), (3, 4)],
                [(2, 0, 0), (0, 4, 0), (0, 0, 6)], [(1, 1, 0), (1, -1, 0), (0, 0, 3)],
                [(1, 2), (2, 4)], [(3, 3, 3)]]
    shapes = [(k, d) for d in range(1, 6) for k in range(1, d + 1)]
    random_sets = []
    while len(random_sets) < 150:
        k, d = rng.choice(shapes)
        rays = [tuple(rng.choice((0,) * k + (-1, 1, -2, 2)) for _ in range(d))
                for _ in range(k)]
        if k >= 2 and rng.random() < 0.15:
            a = rng.choice((-1, 1, 2))
            rays[-1] = tuple(a * x + y for x, y in zip(rays[0], rays[1]))
        box = prod(sum(abs(r[c]) for r in rays) + 1 for c in range(d))
        if all(any(r) for r in rays) and box <= 2000:
            random_sets.append(rays)
    for rays in handmade + random_sets:
        k, d = len(rays), len(rays[0])
        top, classes = _parallelepiped_points(rays, Budget())
        if rank_by_minors(rays) < k:
            assert top == 0 and list(classes) == []
            assert parallelepiped_point_walk(rays) == []
            seen["dependent"] += 1
            continue
        _, diag, _ = smith_normal_form([[r[c] for r in rays] for c in range(d)])
        assert top == diag[k - 1]
        points = []
        for t in classes:
            assert len(t) == k and all(0 <= tj < top for tj in t)
            sums = [sum(tj * r[c] for tj, r in zip(t, rays)) for c in range(d)]
            assert all(v % top == 0 for v in sums)
            points.append(tuple(v // top for v in sums))
        assert len(points) == len(set(points)) == prod(diag[:k]) - 1
        assert set(points) == parallelepiped_points(rays)
        assert sorted(parallelepiped_point_walk(rays)) == sorted(points)
        seen["k < d"] += k < d
        seen["5 x 5"] += k == d == 5
        non_unit = sum(diag[i] > 1 for i in range(k))
        seen["non-unit"] += non_unit >= 1
        seen["two non-unit"] += non_unit >= 2
    assert all(seen.values()), seen


def test_parallelepiped_budget_counts_classes():
    rays = [(2, 0, 0), (0, 2, 0), (0, 0, 3)]
    assert len(list(_parallelepiped_points(rays, Budget(max_lattice_candidates=12))[1])) == 11
    # the cap raises in the call itself, before any class is drawn
    with pytest.raises(BudgetExceeded):
        _parallelepiped_points(rays, Budget(max_lattice_candidates=11))


def random_cones(rng):
    """The cones of 100 random multigraphs, each with K, 2K and divisors of
    negative, zero and positive degree."""
    for _ in range(100):
        graph = random_multigraph(rng)
        n = graph.vertex_count
        divisors = [canonical_divisor(graph), 2 * canonical_divisor(graph)]
        for degree in (-1, 0, rng.randint(1, 3)):
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            coeffs[0] += degree - sum(coeffs)
            divisors.append(Divisor(tuple(coeffs)))
        for divisor in divisors:
            yield graded_cone(graph, divisor)


def test_hilbert_basis_matches_the_slack_oracle(rng):
    # the same elements, or the same exception (a cone past the class cap
    # raises BudgetExceeded on both sides)
    budget = Budget(max_lattice_candidates=3000)
    outcomes = {"basis": 0, "BudgetExceeded": 0}
    signs = set()
    for cone in random_cones(rng):
        try:
            expected = hilbert_basis_by_slack(cone, budget)
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded, match=str(exc)):
                hilbert_basis(cone, budget)
            outcomes["BudgetExceeded"] += 1
            continue
        assert hilbert_basis(cone, budget) == expected
        outcomes["basis"] += 1
        degree = cone.divisor.degree()
        signs.add((degree > 0) - (degree < 0))
    assert signs == {-1, 0, 1}
    assert all(outcomes.values()), outcomes


def test_hilbert_basis_is_independent_of_the_class_order(rng, monkeypatch):
    # the kept classes are the minimal ones under componentwise order, which
    # no order of the stream changes: a shuffled and a reversed walk each
    # give the oracle's basis on H, K_{3,3} and the random cones
    walk = generators._parallelepiped_points
    reorders = (random.Random(5).shuffle, list.reverse)

    def reordered(rays, budget):
        top, classes = walk(rays, budget)
        classes = list(classes)
        reorder(classes)
        return top, iter(classes)

    monkeypatch.setattr(generators, "_parallelepiped_points", reordered)
    h = build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    cases = [(graded_cone(g, canonical_divisor(g)), Budget()) for g in (h, k33)]
    cases += [(cone, Budget(max_lattice_candidates=3000)) for cone in random_cones(rng)]
    compared = 0
    for cone, budget in cases:
        try:
            expected = hilbert_basis_by_slack(cone, budget)
        except BudgetExceeded:
            continue
        for reorder in reorders:
            assert hilbert_basis(cone, budget) == expected
        compared += 1
    assert compared > 400


def test_hilbert_basis_memory_grows_with_the_antichain():
    # K_{3,3}'s 69,983 classes stream through the filter, which holds at
    # most a few hundred of them; the cone (and so the Laplacian solver) is
    # built before tracing starts
    graph = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    cone = graded_cone(graph, canonical_divisor(graph))
    tracemalloc.start()
    try:
        hilbert_basis(cone)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("name, classes, size", [
    ("theta", 5, 3), ("k4", 3, 5), ("h", 10_815, 31), ("k33", 69_983, 106)])
def test_hilbert_basis_reduces_in_ray_coordinates(theta, k4, monkeypatch, name, classes,
                                                  size):
    # no row slack is taken and only the kept classes become points.  H's
    # ray matrix has invariant factors 1, 4, 52, 52: 10,815 non-zero classes
    graph = {"theta": theta, "k4": k4,
             "h": build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
             "k33": build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])}[name]
    cone = graded_cone(graph, canonical_divisor(graph))
    expected = hilbert_basis_by_slack(cone)
    rays = extreme_rays(cone)
    walked = []
    rebuilt = []
    walk = generators._parallelepiped_points
    lift = MonoidCone.slice_to_element

    def counted_walk(rays, budget):
        top, found = walk(rays, budget)
        walked.append(0)

        def counted():
            for t in found:
                walked[-1] += 1
                yield t
        return top, counted()

    def counted_lift(cone, y):
        rebuilt.append(tuple(y))
        return lift(cone, y)

    def refuse(cone, y):
        raise AssertionError("hilbert_basis took a row slack")

    monkeypatch.setattr(generators, "extreme_rays", lambda cone: rays)
    monkeypatch.setattr(generators, "_parallelepiped_points", counted_walk)
    monkeypatch.setattr(MonoidCone, "slice_to_element", counted_lift)
    monkeypatch.setattr(MonoidCone, "slack", refuse)
    assert hilbert_basis(cone) == expected
    assert walked == [classes]
    assert len(rebuilt) == len(set(rebuilt)) == len(expected.elements) == size


def test_hilbert_basis_k33_frontier():
    # 106 irreducibles, each candidate tested only against the basis so far
    graph = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    gs = hilbert_basis(graded_cone(graph, canonical_divisor(graph)))
    assert len(gs.elements) == 106
    assert gs.degrees() == [1, 3]
    assert certify_basis(gs, 6) == {1: 16, 2: 100, 3: 489, 4: 1641, 5: 4296, 6: 9734}


def test_certify_basis_theta(theta):
    gs = hilbert_basis(graded_cone(theta, canonical_divisor(theta)))
    report = certify_basis(gs, 6)
    assert report[3] == 3
    assert report[6] == 5


def test_monoid_certificate_absent(theta):
    d = canonical_divisor(theta)
    cone = graded_cone(theta, d)
    gs = hilbert_basis(cone)
    slices = [cone.element_to_slice(el) for el in gs.elements]
    certified = {y: c for y, c in certificate_table(cone, slices, 1).items() if c}
    # (1, 2) is not a cone point: 2 - 3 < 0
    assert monoid_certificate((1, 2), slices, certified) is None
    assert monoid_certificate_by_search(cone, (1, 2), slices) is None


@pytest.mark.parametrize("name", ["theta", "k4", "h"])
@pytest.mark.parametrize("drop_top", [False, True], ids=["full", "minus-top"])
def test_certificate_table_matches_the_search(theta, k4, name, drop_top):
    # the table certifies exactly the cone points the recursive search does,
    # with the full basis and with its highest-degree element left out
    graph = {"theta": theta, "k4": k4,
             "h": build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])}[name]
    cone = graded_cone(graph, canonical_divisor(graph))
    slices = [cone.element_to_slice(el) for el in hilbert_basis(cone).elements]
    if drop_top:
        slices.remove(max(slices, key=lambda y: (y[-1], y)))
    table = certificate_table(cone, slices, 6)
    for y, cert in table.items():
        assert (cert is None) == (monoid_certificate_by_search(cone, y, slices) is None), y
        if cert is not None:
            assert tuple(map(sum, zip(*(slices[i] for i in cert)))) == y
    # H's highest degree is 13, so only theta and K_4 lose points below 7
    assert (None in table.values()) == (drop_top and name != "h")


def test_certify_basis_rejects_a_basis_missing_a_generator(theta):
    gs = hilbert_basis(graded_cone(theta, canonical_divisor(theta)))
    kept = tuple(el for el in gs.elements if el.function.values != (0, 1))
    assert len(kept) == len(gs.elements) - 1
    short = GeneratorSet(gs.graph, gs.divisor, kept)
    assert certify_basis(short, 2) == {1: 1, 2: 1}
    with pytest.raises(CertificateError, match="of degree 3 has no product certificate"):
        certify_basis(short, 3)


def test_decompose_product_of_generators(theta):
    d = canonical_divisor(theta)
    gs = hilbert_basis(graded_cone(theta, d))
    target = RgdElement(4, RationalFunction((0, 1)))
    cert = decompose(target, gs)
    assert cert.generated
    assert cert.evaluate(list(gs.elements)).values == (0, 1)


def test_decompose_absence_below_degree_three(theta):
    d = canonical_divisor(theta)
    gens = []
    for m in (1, 2):
        gens.extend(rgd_enumerate(theta, m * d, degree=m))
    target = RgdElement(3, RationalFunction((0, 1)))
    cert = decompose(target, gens)
    assert not cert.generated
    assert cert.terms == ()


def test_decompose_generator_is_itself_generated(theta):
    d = canonical_divisor(theta)
    gs = hilbert_basis(graded_cone(theta, d))
    for el in gs.elements:
        cert = decompose(el, gs)
        assert cert.generated


def test_decompose_degree_budget(theta):
    d = canonical_divisor(theta)
    gs = hilbert_basis(graded_cone(theta, d))
    target = RgdElement(99, RationalFunction((0, 0)))
    with pytest.raises(DegreeOverflow):
        decompose(target, gs, Budget(max_degree=10))


def test_decompose_replays_its_degree_zero_answer(theta):
    const = decompose(RgdElement(0, RationalFunction((0, 0))), [])
    assert const.generated and const.terms == ((0, ()),) and const.products_checked == 0
    # (0, 1) lies outside R(theta, 0), and the constant certificate evaluates to (0, 0)
    with pytest.raises(CertificateError, match="does not replay"):
        decompose(RgdElement(0, RationalFunction((0, 1))), [])


def test_decompose_shift_invariance(theta):
    d = canonical_divisor(theta)
    gens = list(rgd_enumerate(theta, d, degree=1))
    for values in ((0, 0), (0, 1), (1, 0)):
        target = RgdElement(3, RationalFunction(values))
        base = decompose(target, gens).generated
        # shifting the target is invisible to the criterion because products
        # are shifted optimally; representatives are min-0 by construction,
        # so emulate the shift by re-normalizing a shifted copy
        shifted = RgdElement(3, RationalFunction(values).shift(7).normalized())
        assert decompose(shifted, gens).generated == base


def product_count(target, gens):
    """decompose's count of the products of the target's degree over gens,
    read from the budget detail it refuses them with."""
    with pytest.raises(BudgetExceeded) as exc:
        decompose(target, gens, Budget(max_products=-1))
    return int(re.fullmatch(r"degree-exact products: (\d+) exceeds budget -1",
                            str(exc.value))[1])


def test_product_count_matches_enumeration(rng):
    for _ in range(60):
        degrees = [rng.randint(-1, 5) for _ in range(rng.randint(0, 7))]
        total = rng.randint(0, 9)
        expected = len(list(degree_exact_products(degrees, total)))
        gens = [RgdElement(d, RationalFunction((0,))) for d in degrees]
        target = RgdElement(total, RationalFunction((0,)))
        if total == 0:
            # the one empty product, which decompose answers before counting
            assert expected == 1 and decompose(target, gens).terms == ((0, ()),)
        else:
            assert product_count(target, gens) == expected


def summed_products(gens, total):
    """The oracle's products of degree exactly total over the usable
    generators, as indices into gens, each with its values summed factor by
    factor."""
    positions = [i for i, el in enumerate(gens) if 0 < el.degree <= total]
    products = [tuple(positions[i] for i in p) for p in degree_exact_products(
        [gens[i].degree for i in positions], total)]
    n = len(gens[positions[0]].function.values) if positions else 0
    return products, [[sum(gens[i].function.values[x] for i in p) for x in range(n)]
                      for p in products]


def assert_decompose_matches_oracle(target, gens, products, values):
    """decompose against the per-candidate cover over summed_products(gens,
    degree)."""
    cover = oplus_cover_by_argmin(target.function.values, values)
    cert = decompose(target, gens)
    assert cert.generated == (cover is not None)
    if cover is None:
        assert cert.terms == ()
        assert cert.products_checked == len(products)
    else:
        assert cert.terms == tuple((shift, products[i]) for shift, i in cover)
        assert cert.products_checked == cover[-1][1] + 1
        assert cert.evaluate(gens).values == target.function.values
    return cert.generated


def test_product_walk_matches_recursion(rng):
    # the order fixes which products a certificate names and how many
    # products decompose reports as checked; random generators of mixed,
    # unsorted degrees (some unusable) give both answers
    answers = set()
    for _ in range(150):
        n = rng.randint(1, 4)
        total = rng.randint(1, 6)
        gens = []
        for _ in range(rng.randint(0, 6)):
            values = [rng.randint(0, 3) for _ in range(n)]
            low = min(values)
            gens.append(RgdElement(rng.randint(-1, total + 1),
                                   RationalFunction(tuple(v - low for v in values))))
        values = [rng.randint(0, 6) for _ in range(n)]
        low = min(values)
        target = RgdElement(total, RationalFunction(tuple(v - low for v in values)))
        answers.add(assert_decompose_matches_oracle(
            target, gens, *summed_products(gens, total)))
    assert answers == {True, False}


def test_decompose_terms_index_the_generators_passed_in(k4):
    # the degree-3 generator is in no degree-2 product, yet it keeps its
    # index, so the certificate replays on the caller's list
    d = canonical_divisor(k4)
    gens = [rgd_enumerate(k4, 3 * d, degree=3)[-1]] + list(rgd_enumerate(k4, d))
    target = rgd_enumerate(k4, 2 * d, degree=2)[-1]
    cert = decompose(target, gens)
    assert cert.generated and cert.terms == ((0, (1, 1)), (0, (5, 5)))
    assert cert.evaluate(gens) == target.function
    assert cert.search_description == \
        "all 15 products of degree exactly 2 over 5 generators"
    with pytest.raises(SizeMismatch, match="generator sized to a different graph"):
        decompose(target, [RgdElement(1, RationalFunction((0, 0, 0)))] + gens[1:])


def test_decompose_matches_products_summed_afresh(k4, rng):
    # decompose carries the target minus each prefix product down its walk;
    # its certificate must be the one the cover finds on products summed
    # factor by factor, also when the generators' degrees are interleaved
    answers = set()
    for graph in (k4, build_gn(2)[0], build_gn(3)[0]):
        d = canonical_divisor(graph)
        # a zero generator would hide a stale difference, so leave it out
        gens = [el for m in (1, 2) for el in rgd_enumerate(graph, m * d, degree=m)
                if any(el.function.values)]
        shuffled = list(gens)
        rng.shuffle(shuffled)
        # alternating degrees split every run of last factors into one lane
        ones, twos = ([el for el in gens if el.degree == m] for m in (1, 2))
        alternating = [el for pair in itertools.zip_longest(ones, twos) for el in pair if el]
        for order in (gens, shuffled, alternating):
            products, values = summed_products(order, 3)
            for target in rgd_enumerate(graph, 3 * d, degree=3):
                answers.add(assert_decompose_matches_oracle(target, order, products, values))
    assert answers == {True, False}


def random_element(rng, degree, n, top):
    """A min-0 element on n vertices with values in 0..top."""
    values = [rng.choice((0, top, rng.randint(0, top))) for _ in range(n)]
    low = min(values)
    return RgdElement(degree, RationalFunction(tuple(v - low for v in values)))


@pytest.mark.parametrize("bound", [127, 128, 32767, 32768, 2 ** 66 + 5])
def test_decompose_lanes_at_their_width_boundaries(rng, bound):
    # decompose packs lanes for values up to max f + m*top, here exactly
    # bound: the zero generator's m-th power reaches it at the peak of f, and
    # the m-th power of top at one vertex reaches 0 at a zero of f.  A
    # generated target spans at most m*top, so top is rounded up.
    answers = set()
    for m in (1, 2, 3):
        top = -(-bound // (2 * m))
        peak = bound - m * top
        for _ in range(25):
            n = rng.randint(2, 4)
            low, high = rng.sample(range(n), 2)
            gens = [RgdElement(1, RationalFunction((0,) * n))]
            gens += [RgdElement(1, RationalFunction(tuple(top * (x == v) for x in range(n))))
                     for v in (low, high)]
            gens += [random_element(rng, rng.randint(1, m), n, top) for _ in range(3)]
            rng.shuffle(gens)
            products, sums = summed_products(gens, m)
            if rng.random() < 0.5:
                values = [rng.choice((0, peak, top // 2, rng.randint(0, peak)))
                          for _ in range(n)]
                values[low], values[high] = 0, peak
            else:
                # the zero product, top^m at high lowered to peak there, and
                # more products shifted to stay within 0 at low and peak
                values = [peak * (v == high) for v in range(n)]
                for p in rng.sample(sums, 2):
                    lift = min(-p[low], peak - max(p)) - rng.randint(0, 2)
                    values = [max(a, b + lift) for a, b in zip(values, p)]
            target = RgdElement(m, RationalFunction(tuple(values)))
            assert max(values) + m * max(max(el.function.values) for el in gens) == bound
            answers.add(assert_decompose_matches_oracle(target, gens, products, sums))
    assert answers == {True, False}


def test_decompose_edge_shapes(rng):
    # m = 1 (one run over every generator), a degree with no lanes (degree 2
    # among products of degree 4 over degrees 1 and 3), and one vertex
    answers = set()
    for m, degrees in ((1, (1, 2)), (4, (1, 3))):
        for _ in range(60):
            n = rng.randint(1, 4)
            gens = [random_element(rng, rng.choice(degrees), n, 3)
                    for _ in range(rng.randint(0, 6))]
            target = random_element(rng, m, n, 6)
            answers.add(assert_decompose_matches_oracle(target, gens,
                                                        *summed_products(gens, m)))
    assert answers == {True, False}
    point = [RgdElement(1, RationalFunction((0,))), RgdElement(2, RationalFunction((0,)))]
    cert = decompose(RgdElement(3, RationalFunction((0,))), point)
    assert cert.terms == ((0, (0, 0, 0)),) and cert.products_checked == 1


def test_decompose_stops_inside_a_run_of_last_factors(k4):
    # the cover completes at (1, 1, 2): its last factor is lane 2 of the run
    # of degree-1 generators 1..4 after the prefix (1, 1), so the walk
    # reports 32 of the 110 products checked
    d = canonical_divisor(k4)
    gens = generators.elements_below(k4, d, 2)
    assert [el.degree for el in gens] == [1] * 5 + [2] * 15
    target = RgdElement(3, RationalFunction((0, 1, 2, 2)))
    cert = assert_decompose_matches_oracle(target, gens, *summed_products(gens, 3))
    cert = decompose(target, gens)
    assert cert.terms == ((0, (0, 0, 0)), (0, (0, 0, 1)), (-1, (1, 1, 2)))
    assert cert.products_checked == 32 and product_count(target, gens) == 110


def test_decompose_checks_its_product_count():
    # a negative answer must have walked every product it counted: here
    # every frame the walk pushes skips its first last factor
    proc = run_optimized(
        "import inspect\n"
        "import tropdiv.generators as gen\n"
        "from tropdiv.errors import CertificateError\n"
        "source = inspect.getsource(gen.decompose)\n"
        "push = 'bisect_left(leaves[left], nxt),'\n"
        "if push not in source:\n"
        "    raise SystemExit('the walk no longer pushes its leaf position')\n"
        "exec(source.replace(push, 'bisect_left(leaves[left], nxt) + 1,'), vars(gen))\n"
        "try:\n"
        "    gen.verify_gn(3)\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the product walk checked 371 of 406 products\n", proc.stdout


def test_min_generator_degrees_theta(theta):
    assert min_generator_degrees(theta, canonical_divisor(theta), 6) == [1, 3]


def test_min_generator_degrees_single_edge(single_edge):
    assert min_generator_degrees(single_edge, Divisor((1, 0)), 4) == [1]


def test_min_generator_degrees_g2():
    graph, _ = build_gn(2)
    degrees = min_generator_degrees(graph, canonical_divisor(graph), 2)
    assert 2 in degrees


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_build_gn_counts(n):
    graph, roles = build_gn(n)
    assert graph.vertex_count == 6 * n - 4
    assert graph.edge_count == 6 * n - 3
    assert graph.genus() == 2


def test_build_gn_roles():
    graph, roles = build_gn(2)
    assert graph.labels[roles["p"]] == "p"
    assert graph.labels[roles["r"]] == "s0_1"
    # r is at distance 2 from p along chain 0
    k = canonical_divisor(graph)
    assert k == Divisor.of(graph.vertex_count, {roles["p"]: 1, roles["q"]: 1})


def test_build_gn_n1_is_theta():
    graph, roles = build_gn(1)
    assert graph.vertex_count == 2
    assert graph.edge_count == 3


def test_gn_witness_matches_hand_solution():
    graph, roles = build_gn(2)
    k = canonical_divisor(graph)
    target = Divisor.of(graph.vertex_count, {roles["p"]: 1, roles["r"]: 3})
    w = linear_equiv(graph, target, 2 * k)
    # hand solution: 0 at p, q and chains 1-2; -1, -2 along chain 0; min-0 shift
    expect = [2] * graph.vertex_count
    expect[2] = 1
    expect[3] = 0
    assert w == RationalFunction(tuple(expect))


def test_gn_witness_extremal_past_24_vertices():
    # G_5 has 26 vertices, but its witness divisor [p] + 9[r] has two support
    # points and two zero-chip components: the firing search has 4 parts
    graph, roles = build_gn(5)
    k = canonical_divisor(graph)
    target = Divisor.of(graph.vertex_count, {roles["p"]: 1, roles["r"]: 9})
    w = linear_equiv(graph, target, 5 * k)
    assert w is not None
    assert is_extremal(graph, 5 * k, w)
    assert is_extremal(graph, 5 * k, w, Budget(max_firing_vertices=4))
    with pytest.raises(BudgetExceeded):
        is_extremal(graph, 5 * k, w, Budget(max_firing_vertices=3))


def test_verify_gn_vacuous():
    assert verify_gn(1)["vacuous"] is True


@pytest.mark.parametrize("n", [2, 3])
def test_verify_gn(n):
    report = verify_gn(n)
    assert report["witness_found"] is True
    assert report["extremal"] is True
    assert report["generated_below"] is False
    assert report["search_bound"] == n - 1
    assert all(report["obstruction"][k] is False for k in range(1, n))
    # solvability beyond the range is informational; divisibility by 2n-1 is
    # necessary but not sufficient, so no truth is asserted for the last row
    assert report["obstruction"][2 * n - 1] in (True, False)


def test_gn_slope_identity_on_first_solvable_degree():
    # on G_2 the divisor class 2k[r] - k*K first becomes principal at k = 9;
    # the recovered function must satisfy k = (2n-1)(3h(p) - 2h(u) - h(w))
    graph, roles = build_gn(2)
    k_div = canonical_divisor(graph)
    for k in range(1, 9):
        assert linear_equiv(
            graph, Divisor.of(graph.vertex_count, {roles["r"]: 2 * k}),
            k * k_div) is None
    h = linear_equiv(graph, Divisor.of(graph.vertex_count, {roles["r"]: 18}),
                     9 * k_div)
    assert h is not None
    hv = h.values
    p, q, u, w = roles["p"], roles["q"], roles["u"], roles["w"]
    assert hv[p] - hv[q] == 9 + 3 * (hv[u] + hv[w] - 2 * hv[p])
    assert hv[p] - hv[q] == 3 * (hv[p] - hv[u])
    assert 9 == 3 * (3 * hv[p] - 2 * hv[u] - hv[w])


def test_gn_canonical_divisor_check_survives_optimized_mode():
    proc = run_optimized(
        "import tropdiv.generators as gen\n"
        "from tropdiv.errors import CertificateError\n"
        "from tropdiv.graphs import Divisor\n"
        "gen.canonical_divisor = lambda graph: Divisor.zero(graph.vertex_count)\n"
        "try:\n"
        "    gen.verify_gn(2)\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "canonical divisor of G_n is not [p] + [q]\n"


def test_hilbert_basis_degree_check_survives_optimized_mode():
    proc = run_optimized(
        "import tropdiv.generators as gen\n"
        "from tropdiv.errors import CertificateError\n"
        "from tropdiv.graphs import build_graph, canonical_divisor\n"
        "from tropdiv.linear_systems import RgdElement\n"
        "lift = gen.MonoidCone.slice_to_element\n"
        "gen.MonoidCone.slice_to_element = "
        "lambda cone, y: RgdElement(0, lift(cone, y).function)\n"
        "theta = build_graph(2, [(0, 1)] * 3)\n"
        "try:\n"
        "    gen.hilbert_basis(gen.graded_cone(theta, canonical_divisor(theta)))\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a Hilbert basis element has degree below 1\n"


def test_hilbert_basis_rank_check_survives_optimized_mode():
    # a dependent ray set has no parallelepiped points, so without the rank
    # check the basis would lack the degree-1 constant
    proc = run_optimized(
        "import tropdiv.generators as gen\n"
        "from tropdiv.errors import CertificateError\n"
        "from tropdiv.graphs import build_graph, canonical_divisor\n"
        "rays = gen.extreme_rays\n"
        "gen.extreme_rays = lambda cone: rays(cone) + [tuple(map(sum, zip(*rays(cone))))]\n"
        "theta = build_graph(2, [(0, 1)] * 3)\n"
        "try:\n"
        "    gen.hilbert_basis(gen.graded_cone(theta, canonical_divisor(theta)))\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the cone's extreme rays are linearly dependent\n", proc.stdout


def test_hilbert_basis_rebuild_check_survives_optimized_mode():
    # a class 1/6 of theta's first ray is not a lattice point
    proc = run_optimized(
        "import tropdiv.generators as gen\n"
        "from tropdiv.errors import CertificateError\n"
        "from tropdiv.graphs import build_graph, canonical_divisor\n"
        "import itertools\n"
        "walk = gen._parallelepiped_points\n"
        "def patched(rays, budget):\n"
        "    top, classes = walk(rays, budget)\n"
        "    return top, itertools.chain(classes, [(1,) + (0,) * (len(rays) - 1)])\n"
        "gen._parallelepiped_points = patched\n"
        "theta = build_graph(2, [(0, 1)] * 3)\n"
        "try:\n"
        "    gen.hilbert_basis(gen.graded_cone(theta, canonical_divisor(theta)))\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a parallelepiped class is not a lattice point\n", proc.stdout


def test_certify_basis_check_survives_optimized_mode():
    proc = run_optimized(
        "import tropdiv.generators as gen\n"
        "from tropdiv.errors import CertificateError\n"
        "from tropdiv.graphs import build_graph, canonical_divisor\n"
        "theta = build_graph(2, [(0, 1)] * 3)\n"
        "gs = gen.hilbert_basis(gen.graded_cone(theta, canonical_divisor(theta)))\n"
        "kept = tuple(el for el in gs.elements if el.function.values != (0, 1))\n"
        "short = gen.GeneratorSet(gs.graph, gs.divisor, kept)\n"
        "try:\n"
        "    gen.certify_basis(short, 3)\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("of degree 3 has no product certificate\n"), proc.stdout
