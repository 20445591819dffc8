"""Presented rings: Groebner, units, tensors, differentials, modules."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loggeom import rings
from loggeom.errors import IncompleteComputation
from loggeom.polys import DEGREVLEX, LEX, QQ, groebner, is_prime, nf
from loggeom.rings import (
    INT, RAT, ModulePresentation, RingMap, RingPresentation, coefficient_map,
    fitting_chain_equal, fitting_ideal, fp, groebner_basis, hom_count,
    ideal_equal, identity_ring_map, int_inv, is_unit, is_zero_module,
    kahler_differentials, module_base_change, poly_str, prime_factors, prune, tensor_over,
)


def test_groebner_examples():
    # vars ordered (y, x): the reduced lex basis of (x^2 - y, y^2) is
    # {y - x^2, x^4}
    x2y = {(0, 2): Fraction(1), (1, 0): Fraction(-1)}
    y2 = {(2, 0): Fraction(1)}
    basis = groebner([x2y, y2], LEX, QQ)
    assert sorted(sorted(g.items()) for g in basis) == [
        [((0, 2), Fraction(-1)), ((1, 0), Fraction(1))],
        [((0, 4), Fraction(1))],
    ]
    assert not nf({(0, 4): Fraction(1)}, basis, LEX, QQ)
    assert not nf({(2, 0): Fraction(1)}, basis, LEX, QQ)
    assert groebner([{(): Fraction(1)}], DEGREVLEX, QQ) == [{(): Fraction(1)}]
    assert groebner([], DEGREVLEX, QQ) == []
    ring = RingPresentation.make(RAT, ["y", "x"],
                                 [{(0, 2): Fraction(1), (1, 0): Fraction(-1)},
                                  {(2, 0): Fraction(1)}])
    assert groebner_basis(ring, LEX) == groebner(
        [{(0, 2): Fraction(1), (1, 0): Fraction(-1)}, {(2, 0): Fraction(1)}],
        LEX, QQ)


def test_unit_examples():
    zhalf = RingPresentation.make(int_inv(2), [], [])
    ok, wit = is_unit(zhalf.const(2), zhalf)
    assert ok and wit == {(): Fraction(1, 2)}
    ku = RingPresentation.make(RAT, ["u"], [{(2,): Fraction(1)}])
    assert not is_unit(ku.var("u"), ku)[0]
    f5 = RingPresentation.make(fp(5), [], [])
    ok, wit = is_unit(f5.const(3), f5)
    assert ok and wit == {(): 2}


def test_unit_witness_verifies():
    cases = [
        (RingPresentation.make(INT, ["t"], [{(2,): 1, (0,): -1}]), {(1,): 1}),
        (RingPresentation.make(int_inv(6), [], []), {(): Fraction(4)}),
        (RingPresentation.make(fp(7), ["t"], [{(3,): 1}]), {(0,): 3, (1,): 1}),
    ]
    for ring, elem in cases:
        ok, wit = is_unit(elem, ring)
        assert ok
        assert ring.elements_equal(ring.mul(elem, wit), ring.one())


def test_unit_negative_over_int():
    z = RingPresentation.make(INT, [], [])
    assert not is_unit(z.const(2), z)[0]
    a = RingPresentation.make(INT, ["t"], [{(2,): 1, (0,): -3}])
    assert not is_unit(a.const(2), a)[0]
    zh = RingPresentation.make(int_inv(2), ["t"], [{(2,): Fraction(1), (0,): Fraction(-3)}])
    assert is_unit(zh.const(2), zh)[0]
    assert not is_unit(zh.const(3), zh)[0]


def test_tensor_examples():
    zx = RingPresentation.make(INT, ["x"], [])
    z = RingPresentation.make(INT, [], [])
    zu = RingPresentation.make(INT, ["u"], [])
    f = RingMap.make(zx, z, [z.zero()])
    g = RingMap.make(zx, zu, [{(2,): 1}])
    t, _, _ = tensor_over(f, g)
    assert t.is_zero_elem({(2,): 1})
    assert not t.is_zero_elem({(1,): 1})
    # A tensor_B B = A
    t2, _, _ = tensor_over(RingMap.make(zx, zx, [zx.var("x")]), identity_ring_map(zx))
    assert t2.is_zero_elem(t2.sub(t2.var(t2.vars[0]), t2.var(t2.vars[1])))
    # free case: k[s] (x)_k k[t] = k[s,t]
    k = RingPresentation.make(RAT, [], [])
    ks = RingPresentation.make(RAT, ["s"], [])
    kt = RingPresentation.make(RAT, ["t"], [])
    t3, _, _ = tensor_over(coefficient_map(k, ks), coefficient_map(k, kt))
    assert t3.vars == ("s", "t") and not t3.ideal


def test_kahler_examples():
    k = RingPresentation.make(RAT, [], [])
    kx = RingPresentation.make(RAT, ["x"], [])
    om = kahler_differentials(kx, coefficient_map(k, kx))
    assert om.ngens == 1 and not om.relations
    ku2 = RingPresentation.make(RAT, ["u"], [{(2,): Fraction(1)}])
    om2 = kahler_differentials(ku2, coefficient_map(k, ku2))
    assert len(om2.relations) == 1
    assert poly_str(dict(om2.relations[0][0]), ["u"]) == "2*u"
    om3 = kahler_differentials(kx, identity_ring_map(kx))
    assert is_zero_module(om3)


def test_zero_module_examples():
    z = RingPresentation.make(INT, [], [])
    assert is_zero_module(ModulePresentation.make(z, ["g"], [[z.one()]]))
    ku2 = RingPresentation.make(RAT, ["u"], [{(2,): Fraction(1)}])
    assert not is_zero_module(ModulePresentation.make(ku2, ["g"], [[ku2.var("u")]]))
    assert is_zero_module(ModulePresentation.make(z, [], []))


def test_fitting_examples():
    z = RingPresentation.make(INT, [], [])
    m = ModulePresentation.make(z, ["g"], [[z.const(4)]])
    assert [poly_str(g, []) for g in fitting_ideal(m, 0)] == ["4"]
    free = ModulePresentation.make(z, ["g"], [])
    assert fitting_ideal(free, 0) == []
    assert [poly_str(g, []) for g in fitting_ideal(free, 1)] == ["1"]


def test_fitting_invariance_redundant_generator():
    ku2 = RingPresentation.make(RAT, ["u"], [{(2,): Fraction(1)}])
    base = ModulePresentation.make(
        ku2, ["g", "h"], [[ku2.var("u"), ku2.one()], [ku2.zero(), ku2.var("u")]])
    # adjoin r := u*g + h with its defining relation
    padded = [list(row) + [ku2.zero()] for row in base.relation_matrix()]
    padded.append([ku2.var("u"), ku2.one(), ku2.neg(ku2.one())])
    bigger = ModulePresentation.make(ku2, ["g", "h", "r"], padded)
    assert fitting_chain_equal(base, bigger)


# (ring, constant units to plant); entries are drawn in the ring's one variable
PRUNE_RINGS = {
    "Z": (RingPresentation.make(INT, ["x"], []), [1, -1]),
    "Q": (RingPresentation.make(RAT, ["x"], []), [Fraction(1), Fraction(-2, 3)]),
    "GF(5)": (RingPresentation.make(fp(5), ["x"], []), [1, 3]),
    "F3[x]/(x^3)": (RingPresentation.make(fp(3), ["x"], [{(3,): 1}]), [1, 2]),
    "F2[x]/(x^2)": (RingPresentation.make(fp(2), ["x"], [{(2,): 1}]), [1]),
    "Z[1/6]": (RingPresentation.make(int_inv(6), [], []), [Fraction(-3), Fraction(2, 3)]),
}


@st.composite
def planted_presentations(draw):
    ring, units = PRUNE_RINGS[draw(st.sampled_from(sorted(PRUNE_RINGS)))]
    nrows, ngens = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def entry():
        p = {}
        for _ in range(draw(st.integers(0, 2))):
            e = (draw(st.integers(0, 2)),) * ring.nvars
            p[e] = p.get(e, 0) + draw(st.integers(-3, 3))
        return {e: c for e, c in p.items() if c}

    rows = [[entry() for _ in range(ngens)] for _ in range(nrows)]
    for _ in range(draw(st.integers(1, 2))):  # at least one unit pivot
        r, c = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ngens - 1))
        rows[r][c] = ring.const(draw(st.sampled_from(units)))
    return ModulePresentation.make(ring, [f"g{j}" for j in range(ngens)], rows)


def _unpruned_fitting(m, k):
    size = m.ngens - k
    minors = [m.ring.one()] if size <= 0 else \
        [p for p in rings._minor_dets(m.relation_matrix(), size, m.ring) if p]
    return m.ring.extend_ideal(minors).working_basis()


@settings(max_examples=120, deadline=None)
@given(planted_presentations())
def test_pruned_fitting_ideals_equal_unpruned(m):
    pruned = prune(m)
    assert pruned.ngens < m.ngens
    for k in range(m.ngens + 2):
        assert fitting_ideal(m, k) == _unpruned_fitting(m, k), k
    assert is_zero_module(m) == m.ring.extend_ideal(_unpruned_fitting(m, 0)).is_zero_ring()
    assert fitting_chain_equal(m, pruned)


def test_prune_examples():
    z = RingPresentation.make(INT, [], [])
    # Z^2 / (g + 2h, 3h): the unit pivot leaves Z / (3)
    m = ModulePresentation.make(z, ["g", "h"], [[z.one(), z.const(2)], [z.zero(), z.const(3)]])
    pruned = prune(m)
    assert pruned.gens == ("h",)
    assert [[poly_str(dict(p), []) for p in row] for row in pruned.relations] == [["3"]]
    # 2 is no unit over Z, but it is over Z[1/6] and over Q
    two = ModulePresentation.make(z, ["g"], [[z.const(2)]])
    assert prune(two) is two
    zh = RingPresentation.make(int_inv(6), [], [])
    assert prune(ModulePresentation.make(zh, ["g"], [[zh.const(2)]])).ngens == 0
    assert prune(ModulePresentation.make(zh, ["g"], [[zh.const(10)]])).ngens == 1
    q = RingPresentation.make(RAT, [], [])
    assert is_zero_module(ModulePresentation.make(q, ["g"], [[q.const(2)]]))


def test_hom_count_examples():
    a = RingPresentation.make(fp(2), ["u"], [{(2,): 1}])
    free = ModulePresentation.make(a, ["e"], [])
    assert hom_count(free, free) == 4
    quot = ModulePresentation.make(a, ["e"], [[a.var("u")]])
    assert hom_count(quot, free) == 2
    nothing = ModulePresentation.make(a, [], [])
    assert hom_count(nothing, free) == 1


def test_hom_count_needs_finite_dimension():
    poly = RingPresentation.make(fp(2), ["u"], [])
    free = ModulePresentation.make(poly, ["e"], [])
    with pytest.raises(ValueError):
        hom_count(free, free)


@st.composite
def small_polys(draw):
    terms = draw(st.integers(0, 3))
    p = {}
    for _ in range(terms):
        e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        c = Fraction(draw(st.integers(-4, 4)))
        if c:
            p[e] = p.get(e, Fraction(0)) + c
    return {e: c for e, c in p.items() if c}


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_nf_is_ring_congruence(f, g):
    ring = RingPresentation.make(
        RAT, ["x", "y"], [{(2, 0): Fraction(1), (0, 1): Fraction(-1)}])
    s_direct = ring.nf(ring.add(f, g))
    s_nfd = ring.nf(ring.add(ring.nf(f), ring.nf(g)))
    assert s_direct == s_nfd
    p_direct = ring.nf(ring.mul(f, g))
    p_nfd = ring.nf(ring.mul(ring.nf(f), ring.nf(g)))
    assert p_direct == p_nfd
    assert ring.nf(s_direct) == s_direct


def test_nf_idempotent_over_int():
    ring = RingPresentation.make(INT, ["t"], [{(2,): 1, (0,): -3}, {(0,): 6}])
    for f in [{(3,): 5, (0,): 2}, {(1,): 7}, {(2,): -1}]:
        r = ring.nf(f)
        assert ring.nf(r) == r
        assert ring.is_zero_elem(ring.sub(f, r))


def test_conormal_spot_check():
    # relative differentials base-changed along the identity are unchanged
    k = RingPresentation.make(RAT, [], [])
    ku2 = RingPresentation.make(RAT, ["u"], [{(2,): Fraction(1)}])
    om = kahler_differentials(ku2, coefficient_map(k, ku2))
    again = module_base_change(om, identity_ring_map(ku2))
    assert fitting_chain_equal(om, again)
    # composite k -> k[x] -> k[x]: relative over the middle ring vanishes
    kx = RingPresentation.make(RAT, ["x"], [])
    assert is_zero_module(kahler_differentials(kx, identity_ring_map(kx)))


def test_ideal_equal_in_quotients():
    a = RingPresentation.make(fp(3), ["u"], [{(3,): 1}])
    # (3) = (0) in characteristic 3
    assert ideal_equal(a, [a.const(3)], [])
    assert not ideal_equal(a, [a.var("u")], [])
    zh = RingPresentation.make(int_inv(2), [], [])
    assert ideal_equal(zh, [zh.const(2)], [zh.one()])


def test_prime_factors_match_trial_division():
    primes = [p for p in range(2, 448) if all(p % q for q in range(2, p))]
    for n in range(200000):
        expected, m = [], n
        for p in primes:
            if p * p > m:
                break
            if m % p == 0:
                expected.append(p)
                while m % p == 0:
                    m //= p
        if m > 1:
            expected.append(m)
        assert prime_factors(n) == tuple(expected), n
    assert prime_factors(-12) == (2, 3)


def test_prime_factors_and_primality_of_large_numbers():
    assert prime_factors(998244359987710471) == (998244353, 1000000007)
    assert prime_factors(2 ** 64 + 1) == (274177, 67280421310721)
    assert prime_factors(101 ** 3 * 103 ** 2) == (101, 103)
    assert is_prime(2 ** 61 - 1) and is_prime(998244353)
    # strong pseudoprimes to every base up to 7, 23 and 37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    fp(1000000007)
    with pytest.raises(ValueError):
        fp(561)  # a Carmichael number
    with pytest.raises(IncompleteComputation, match="deterministic only below"):
        is_prime(2 ** 89 - 1)  # prime, but past the deterministic range


def test_prime_factors_raises_past_its_budget(monkeypatch):
    monkeypatch.setattr(rings, "_RHO_STEPS", 100)
    with pytest.raises(IncompleteComputation, match="in 100 Pollard rho steps"):
        prime_factors(1000000000039 * 1000000000061)
