import random
from math import comb

import pytest

import tropdiv.linear_systems

from tropdiv.budget import Budget
from tropdiv.errors import (BudgetExceeded, CertificateError, EmptyOrFullSubset, NotMember,
                            SizeMismatch)
from tropdiv.generators import build_gn
from tropdiv.graphs import Divisor, RationalFunction, build_graph, canonical_divisor, ord_and_div
from tropdiv.linear_systems import (
    RgdElement, _effective_divisor_matrix, _largest_firing_sets, can_fire, extremals,
    _lane_width, firing_subsets, is_extremal, odot, oplus, oplus_cover, rgd_enumerate, rgd_member,
    scale)

from conftest import random_multigraph, run_optimized
from oracles import (all_firing_subsets, divisor_class_scan, oplus_cover_by_argmin,
                     rgd_box_enumerate, rgd_box_enumerate_fast, two_cover)


def reps(elements):
    return {el.function.values for el in elements}


def test_rgd_theta_canonical(theta):
    k = canonical_divisor(theta)
    assert reps(rgd_enumerate(theta, k)) == {(0, 0)}


def test_rgd_theta_3k(theta):
    k = canonical_divisor(theta)
    assert reps(rgd_enumerate(theta, 3 * k, degree=3)) == {(0, 0), (0, 1), (1, 0)}


def test_rgd_negative_degree_empty(theta):
    assert rgd_enumerate(theta, Divisor((-1, 0))) == ()


def test_rgd_degree_labels(theta):
    k = canonical_divisor(theta)
    for el in rgd_enumerate(theta, 3 * k, degree=3):
        assert el.degree == 3
        assert min(el.function.values) == 0
        assert el.slice_values[0] == 0


def test_rgd_matches_box_oracle_on_fixtures(theta, path3, k4):
    for g in (theta, path3, k4):
        k = canonical_divisor(g)
        for m in range(0, 4):
            got = reps(rgd_enumerate(g, m * k, degree=max(m, 1)))
            assert got == set(rgd_box_enumerate(g, m * k))


def test_rgd_matches_box_oracle_random(rng):
    for _ in range(30):
        g = random_multigraph(rng, max_vertices=4, max_extra=3)
        d = Divisor(tuple(rng.randint(-1, 2) for _ in range(g.vertex_count)))
        assert reps(rgd_enumerate(g, d)) == set(rgd_box_enumerate(g, d))


def test_rgd_translates_by_huge_principal_divisor(rng, k4):
    # R(G, D + div(h)) = R(G, D) - h; with h near 2**70 the coefficients of
    # D + div(h) and their images under the Smith transform exceed 64 bits
    for g in (k4, build_gn(2)[0]):
        d = 2 * canonical_divisor(g)
        h = RationalFunction(tuple(rng.randint(-2 ** 70, 2 ** 70)
                                   for _ in range(g.vertex_count)))
        shifted = d + ord_and_div(g, h)
        assert max(abs(c) for c in shifted.coeffs) > 2 ** 63
        expected = {RationalFunction(tuple(a - b for a, b in zip(el.function.values, h.values)))
                    .normalized().values for el in rgd_enumerate(g, d, degree=2)}
        assert len(expected) > 1
        assert reps(rgd_enumerate(g, shifted, degree=2)) == expected


def _walk_counts(g, d):
    """The class walk's rows under unit vectors and a zero start: the chip
    counts of the members."""
    n = g.vertex_count
    units = [[int(u == v) for u in range(n)] for v in range(n)]
    return _effective_divisor_matrix(g.laplacian_solver, d, units, [0] * n)


def _scan_counts(g, d):
    return [[combo.count(v) for v in range(g.vertex_count)]
            for combo in divisor_class_scan(g, d)]


def test_class_walk_matches_candidate_scan(rng, k4):
    # loops, parallel edges, negative coefficients and degrees 0..6, plus
    # Jacobians (Z/4)^2, (Z/5)^3 and Z/3 x Z/9 of K_4, K_5 and G_2
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    systems = [(g, m * canonical_divisor(g)) for g in (k4, k5, build_gn(2)[0])
               for m in (1, 2)]
    for _ in range(80):
        g = random_multigraph(rng, max_vertices=5, max_extra=4)
        coeffs = [rng.randint(-2, 3) for _ in range(g.vertex_count)]
        coeffs[rng.randrange(g.vertex_count)] += rng.randint(0, 6) - sum(coeffs)
        systems.append((g, Divisor(tuple(coeffs))))
    assert {d.degree() for _, d in systems} >= set(range(7))
    for g, d in systems:
        counts = _scan_counts(g, d)
        assert _walk_counts(g, d) == counts
        # any vectors and start: each row is start + sum_v E_v vectors[v]
        n = g.vertex_count
        vectors = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(n)]
        start = [rng.randint(-9, 9) for _ in range(3)]
        assert _effective_divisor_matrix(g.laplacian_solver, d, vectors, start) == [
            [s + sum(e * vec[i] for e, vec in zip(row, vectors)) for i, s in enumerate(start)]
            for row in counts]


@pytest.mark.parametrize("name, counts", [
    ("k4", [5, 15, 35, 69, 121, 195, 295, 425]),
    ("h", [4, 13, 35, 76, 137, 225, 346, 504]),
    ("k33", [16, 100, 489, 1641, 4296, 9734])])
def test_class_walk_member_counts_per_degree(name, counts):
    g = {"k4": build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
         "h": build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
         "k33": build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])}[name]
    k = canonical_divisor(g)
    assert [len(_walk_counts(g, m * k)) for m in range(1, len(counts) + 1)] == counts


def test_class_walk_emits_at_the_last_vertex():
    # a one-vertex graph starts the walk on its last vertex; a tree has no
    # torsion row, so every effective divisor of the degree is a member
    point = build_graph(1, [(0, 0)])
    tree = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    for d in range(5):
        assert _walk_counts(point, Divisor((d,))) == _scan_counts(point, Divisor((d,))) == [[d]]
        divisor = Divisor((d + 2, -3, 0, 1))
        rows = _walk_counts(tree, divisor)
        assert rows == _scan_counts(tree, divisor)
        assert len(rows) == comb(d + 3, 3)
    assert _walk_counts(point, Divisor((-1,))) == []


def _torsion(g):
    return [mod for _, mod in g.laplacian_solver.cokernel_rows if mod]


def test_packed_classes_at_field_width_edges(rng):
    # bananas have Jacobian Z/k, and 2k crosses a power of two around
    # k = 32 and k = 64; the chains of bananas have invariant factors of
    # different bit widths, and a tree has no torsion row at all
    def chain(*ks):
        return build_graph(len(ks) + 1, [(i, i + 1) for i, k in enumerate(ks) for _ in range(k)])

    cases = []
    for k in (2, 3, 31, 32, 33, 63, 64, 65):
        g = chain(k)
        assert _torsion(g) == [k]
        cases += [(g, Divisor((d + j, -j))) for d in range(4) for j in range(-k - 1, k + 2)]
    mixed = [chain(2, 64), chain(3, 6, 60)]
    assert [_torsion(g) for g in mixed] == [[2, 64], [3, 6, 60]]
    tree = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert _torsion(tree) == []
    for g in mixed + [tree]:
        for d in range(4):
            for _ in range(40):
                coeffs = [rng.randint(-70, 70) for _ in range(g.vertex_count - 1)]
                cases.append((g, Divisor((d - sum(coeffs), *coeffs))))
    for g, d in cases:
        assert _walk_counts(g, d) == _scan_counts(g, d)


def test_walk_is_not_sized_by_the_jacobian():
    # K_10's Jacobian (Z/10)^8 has 10^8 classes; a lone chip is its own class
    k10 = build_graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
    assert _torsion(k10) == [10] * 8
    assert rgd_enumerate(k10, Divisor.of(10, {3: 1})) == (
        RgdElement(1, RationalFunction((0,) * 10)),)


def test_class_walk_lists_only_members():
    g, _ = build_gn(4)
    d = 3 * canonical_divisor(g)
    rows = _walk_counts(g, d)
    assert len(rows) == 1320
    assert rows == sorted(rows, reverse=True)
    solver = g.laplacian_solver
    assert all(min(row) >= 0 and solver.in_image([a - b for a, b in zip(row, d.coeffs)])
               for row in rows)


def test_rgd_g5_past_the_default_budget():
    g, _ = build_gn(5)
    elements = rgd_enumerate(g, 4 * canonical_divisor(g), degree=4,
                             budget=Budget(max_lattice_candidates=14_000_000))
    assert len(elements) == 58360


def test_potential_remainder_voids_the_enumeration(k4, monkeypatch):
    # a potential off by one chip's indicator leaves h - min h outside N Z^n
    solver = k4.laplacian_solver
    solve = solver.solve
    monkeypatch.setattr(solver, "solve",
                        lambda b: [x + (c > 0) for x, c in zip(solve(b), b)])
    with pytest.raises(CertificateError, match="multiple of the exponent"):
        rgd_enumerate(k4, canonical_divisor(k4))


def test_box_oracles_agree(theta, path3, k4, rng):
    systems = [(g, m * canonical_divisor(g)) for g in (theta, path3, k4) for m in (0, 1, 2)]
    for _ in range(10):
        g = random_multigraph(rng, max_vertices=3, max_extra=2)
        systems.append((g, Divisor(tuple(rng.randint(-1, 2) for _ in range(g.vertex_count)))))
    for g, d in systems:
        assert rgd_box_enumerate_fast(g, d) == rgd_box_enumerate(g, d)


def test_can_fire_theta():
    theta = build_graph(2, [(0, 1)] * 3)
    e = Divisor((1, 3))
    assert can_fire(theta, e, frozenset({1}))
    assert not can_fire(theta, canonical_divisor(theta), frozenset({1}))


def test_can_fire_rejects_improper(theta):
    with pytest.raises(EmptyOrFullSubset):
        can_fire(theta, Divisor((1, 1)), frozenset())
    with pytest.raises(EmptyOrFullSubset):
        can_fire(theta, Divisor((1, 1)), frozenset({0, 1}))


def test_can_fire_forced_rule(rng):
    # on V' = V minus one vertex, firing needs exactly E(x) >= edges to the
    # removed vertex for each member; cross-check against the definition
    for _ in range(50):
        g = random_multigraph(rng, max_vertices=5)
        if g.vertex_count < 2:
            continue
        out = rng.randrange(g.vertex_count)
        vprime = frozenset(range(g.vertex_count)) - {out}
        e = Divisor(tuple(rng.randint(0, g.valence(x)) for x in range(g.vertex_count)))
        by_rule = all(
            e.coeffs[x] >= sum((u == x and v == out) + (v == x and u == out)
                               for u, v in g.edges if u != v)
            for x in vprime)
        assert can_fire(g, e, vprime) == by_rule


def test_firing_subsets_match_bruteforce(rng):
    for _ in range(40):
        g = random_multigraph(rng, max_vertices=4, max_extra=3)
        if g.vertex_count < 2:
            continue
        e = Divisor(tuple(rng.randint(0, 3) for _ in range(g.vertex_count)))
        assert firing_subsets(g, e) == all_firing_subsets(g, e)


def test_firing_subsets_rejects_a_divisor_sized_to_another_graph(theta):
    for coeffs in ((3, 0, 5), (3,)):
        with pytest.raises(SizeMismatch):
            firing_subsets(theta, Divisor(coeffs))


def test_is_extremal_theta_constant(theta):
    k = canonical_divisor(theta)
    assert is_extremal(theta, k, RationalFunction((0, 0)))


def test_is_extremal_rejects_nonmember(theta):
    with pytest.raises(NotMember):
        is_extremal(theta, canonical_divisor(theta), RationalFunction((0, 5)))


def test_oplus_of_shifted_representatives_not_extremal(theta):
    # max of the two nonconstant representatives, shifted so neither wins
    k3 = 3 * canonical_divisor(theta)
    f = oplus(RationalFunction((0, 1)), RationalFunction((1, 0)))
    assert f == RationalFunction((1, 1))
    assert rgd_member(theta, k3, f)
    assert not is_extremal(theta, k3, f)


def test_extremals_theta(theta):
    k = canonical_divisor(theta)
    assert reps(extremals(theta, k)) == {(0, 0)}
    assert reps(extremals(theta, 3 * k, degree=3)) == {(0, 1), (1, 0)}
    assert extremals(theta, Divisor((-2, 0))) == ()


def test_extremals_nonempty_when_system_nonempty(rng):
    for _ in range(20):
        g = random_multigraph(rng, max_vertices=4, max_extra=3)
        d = Divisor(tuple(rng.randint(0, 1) for _ in range(g.vertex_count)))
        elements = rgd_enumerate(g, d)
        if elements:
            assert extremals(g, d)


def test_oplus_idempotent(rng):
    for _ in range(100):
        g = random_multigraph(rng)
        f = RationalFunction(tuple(rng.randint(-4, 4) for _ in range(g.vertex_count)))
        assert oplus(f, f) == f


def test_lane_width_keeps_the_guard_bit_clear():
    # a lane holds values up to its bound below a clear top bit, in whole bytes
    for bound, width in ((0, 8), (127, 8), (128, 16), (32767, 16), (32768, 24),
                         (2 ** 64, 72)):
        assert _lane_width(bound) == width
        assert bound < 1 << width - 1


@pytest.mark.parametrize("scale_by", [1, 40, 2 ** 65 + 3])
def test_oplus_cover_matches_the_argmin_oracle(rng, scale_by):
    # every candidate is one lane of a single run; unnormalized, negative and
    # wider-than-64-bit values shift and widen the lanes
    answers = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        offset = rng.randint(-9, 9) * scale_by
        cands = [[rng.randint(0, 3) * scale_by + offset for _ in range(n)]
                 for _ in range(rng.randint(0, 7))]
        target = [rng.randint(0, 4) * scale_by for _ in range(n)]
        if cands and rng.random() < 0.5:
            # a shifted tropical sum of some candidates is always covered
            picked = [(c, rng.randint(-2, 2) * scale_by)
                      for c in rng.sample(cands, rng.randint(1, len(cands)))]
            target = [max(c[v] + shift for c, shift in picked) for v in range(n)]
        expected = oplus_cover_by_argmin(target, cands)
        assert oplus_cover(target, cands) == expected
        answers.add(expected is None)
    assert answers == {True, False}


def test_scale_preserves_representative(theta):
    f = RationalFunction((0, 2))
    assert scale(5, f).normalized() == f


def test_product_divisor_additivity(rng):
    for _ in range(200):
        g = random_multigraph(rng)
        n = g.vertex_count
        f = RationalFunction(tuple(rng.randint(-5, 5) for _ in range(n)))
        h = RationalFunction(tuple(rng.randint(-5, 5) for _ in range(n)))
        assert ord_and_div(g, odot(f, h)) == ord_and_div(g, f) + ord_and_div(g, h)


def test_closure_under_oplus_and_odot(theta, rng):
    k = canonical_divisor(theta)
    pool2 = [el.function for el in rgd_enumerate(theta, 2 * k, degree=2)]
    pool3 = [el.function for el in rgd_enumerate(theta, 3 * k, degree=3)]
    for _ in range(300):
        f = scale(rng.randint(-5, 5), rng.choice(pool2))
        h = scale(rng.randint(-5, 5), rng.choice(pool3))
        f2 = scale(rng.randint(-5, 5), rng.choice(pool2))
        assert rgd_member(theta, 2 * k, oplus(f, f2))
        assert rgd_member(theta, 5 * k, odot(f, h))


def test_every_element_is_oplus_of_extremals(theta, path3, k4):
    for g in (theta, path3, k4):
        k = canonical_divisor(g)
        for m in (1, 2, 3):
            d = m * k
            elements = rgd_enumerate(g, d, degree=m)
            exts = [el.function.values for el in extremals(g, d, degree=m)]
            for el in elements:
                cover = oplus_cover(el.function.values, exts)
                assert cover is not None
                # re-evaluate the certificate
                best = [None] * g.vertex_count
                for shift, idx in cover:
                    for i, v in enumerate(exts[idx]):
                        cand = v + shift
                        if best[i] is None or cand > best[i]:
                            best[i] = cand
                assert all(b <= t for b, t in zip(best, el.function.values))
                covered = set()
                for shift, idx in cover:
                    for i, v in enumerate(exts[idx]):
                        if v + shift == el.function.values[i]:
                            covered.add(i)
                assert covered == set(range(g.vertex_count))


def test_is_extremal_invariant_under_scale(theta, rng):
    k3 = 3 * canonical_divisor(theta)
    for el in rgd_enumerate(theta, k3, degree=3):
        base = is_extremal(theta, k3, el.function)
        for c in (-7, 1, 12):
            assert is_extremal(theta, k3, scale(c, el.function)) == base


def zero_components(graph, coeffs):
    comps, seen = 0, set()
    for x in range(graph.vertex_count):
        if coeffs[x] or x in seen:
            continue
        comps += 1
        stack = [x]
        seen.add(x)
        while stack:
            for y in graph.neighbors[stack.pop()]:
                if not coeffs[y] and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return comps


def check_burning(graph, e, family):
    """Each burn's W_x is the union of the family's sets avoiding x, and the
    burning answer of is_extremal is the pair loop's."""
    n = graph.vertex_count
    masks = _largest_firing_sets(graph, e.coeffs)
    got = {frozenset(x for x in range(n) if m >> x & 1) for m in masks}
    expect = {frozenset().union(*(s for s in family if x not in s)) for x in range(n)}
    assert got == expect
    assert is_extremal(graph, e, RationalFunction((0,) * n)) == (not two_cover(family, n))


def test_burning_matches_the_exhaustive_family_on_random_multigraphs():
    rng = random.Random(20261018)
    seen = {"loops": 0, "parallel": 0, "zero components >= 2": 0}
    for _ in range(400):
        g = random_multigraph(rng, max_vertices=7, max_extra=6)
        e = Divisor(tuple(rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(g.vertex_count)))
        seen["loops"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(g.edges)) < len(g.edges)
        seen["zero components >= 2"] += zero_components(g, e.coeffs) >= 2
        check_burning(g, e, all_firing_subsets(g, e))
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("name, m_max", [("G_2", 3), ("G_3", 3), ("G_4", 3),
                                         ("theta", 3), ("K_4", 2)])
def test_burning_matches_the_exhaustive_family_on_linear_systems(name, m_max, theta, k4):
    # the graphs have up to 20 vertices, so the family is firing_subsets',
    # which test_firing_subsets_match_bruteforce ties to all_firing_subsets
    g = {"theta": theta, "K_4": k4}.get(name) or build_gn(int(name[2:]))[0]
    k = canonical_divisor(g)
    for m in range(1, m_max + 1):
        for el in rgd_enumerate(g, m * k, degree=m):
            e = m * k + ord_and_div(g, el.function)
            check_burning(g, e, firing_subsets(g, e))


def test_firing_subsets_are_closed_under_union(rng):
    for _ in range(150):
        g = random_multigraph(rng, max_vertices=6, max_extra=5)
        e = Divisor(tuple(rng.randint(0, 2) for _ in range(g.vertex_count)))
        family = set(all_firing_subsets(g, e))
        for a in family:
            for b in family:
                assert a | b in family or len(a | b) == g.vertex_count


def test_non_extremal_answers_need_no_firing_budget(theta):
    k3 = 3 * canonical_divisor(theta)
    assert not is_extremal(theta, k3, RationalFunction((1, 1)), Budget(max_firing_vertices=0))
    with pytest.raises(BudgetExceeded):
        is_extremal(theta, k3, RationalFunction((0, 1)), Budget(max_firing_vertices=0))


def test_covering_pair_replay_rejects_a_wrong_family(theta, monkeypatch):
    # on K = [p] + [q] neither vertex fires alone, yet the family claims both do
    monkeypatch.setattr(tropdiv.linear_systems, "_largest_firing_sets",
                        lambda graph, coeffs: [0b01, 0b10])
    with pytest.raises(CertificateError, match="firing replay"):
        is_extremal(theta, canonical_divisor(theta), RationalFunction((0, 0)))


def test_no_cover_replay_rejects_a_wrong_family(theta, monkeypatch):
    # (1, 1) in R(theta, 3K) is covered by {p} and {q}; the family hides them
    k3 = 3 * canonical_divisor(theta)
    assert not is_extremal(theta, k3, RationalFunction((1, 1)))
    monkeypatch.setattr(tropdiv.linear_systems, "_largest_firing_sets",
                        lambda graph, coeffs: [])
    with pytest.raises(CertificateError, match="exhaustive firing family"):
        is_extremal(theta, k3, RationalFunction((1, 1)))


def test_only_extremal_answers_run_the_exhaustive_family(monkeypatch):
    g = build_gn(4)[0]
    calls = []
    masks = []
    original = tropdiv.linear_systems.firing_subsets
    burn = tropdiv.linear_systems._largest_firing_sets

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    def counted_burn(*args):
        for mask in burn(*args):
            masks.append(mask)
            yield mask

    monkeypatch.setattr(tropdiv.linear_systems, "firing_subsets", counted)
    monkeypatch.setattr(tropdiv.linear_systems, "_largest_firing_sets", counted_burn)
    assert len(extremals(g, 3 * canonical_divisor(g), degree=3)) == 23
    # the firing work as deterministic counts: 23 exhaustive families
    # listing 125 subsets, and 3,811 burns over the 1,320 members
    assert len(calls) == 23
    assert sum(map(len, calls)) == 125
    assert len(masks) == 3811


def test_corank_check_survives_optimized_mode():
    proc = run_optimized(
        "from tropdiv.errors import CertificateError\n"
        "from tropdiv.graphs import Divisor, build_graph\n"
        "from tropdiv.intlinalg import SmithSolver\n"
        "g = build_graph(2, [(0, 1)] * 3)\n"
        "g.__dict__['laplacian_solver'] = SmithSolver([[0, 0], [0, 0]])\n"
        "from tropdiv.linear_systems import rgd_enumerate\n"
        "try:\n"
        "    rgd_enumerate(g, Divisor((1, 1)))\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Laplacian corank != 1; graph not connected?\n"
