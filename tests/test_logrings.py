"""Pre-log rings: unit pullback, logification, the log condition, strictness."""

import hashlib
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from loggeom.intlin import FgAbelianGroup
from loggeom.language import parse
from loggeom.logrings import (
    ENUMERATION_BOUND, PreLogMap, PreLogRing, builtin_units, identity_prelog_map,
    inverse_image, is_log, is_strict, logify, make_units, unit_group_log, unit_pullback,
)
from loggeom.monoids import (
    FREE_RANK_1, IncompleteComputation, MonoidMap, MonoidPresentation, group_completion,
    identity_monoid_map, monoid_map_is_isomorphism,
)
from loggeom.rings import (
    INT, RAT, RingMap, RingPresentation, fp, identity_ring_map, int_inv,
    is_unit,
)


Z = RingPresentation.make(INT, [], [])
F3 = RingPresentation.make(fp(3), [], [])
PI = MonoidPresentation(("pi",), ())


F3_IDEMPOTENTS = """
monoid T { gens: a b c; rels: ; }
ring A { coeff: fp(3); vars: x; ideal: x^2 - x; }
prelog X { ring: A; monoid: T; alpha: a -> x, b -> 1 - x, c -> 2; units: builtin; }
"""


def std_log_point(field_ring):
    return PreLogRing.make(field_ring, PI, [field_ring.zero()])


def test_unit_pullback_examples():
    x1 = PreLogRing.make(Z, FREE_RANK_1, [Z.const(1)])
    up = unit_pullback(x1)
    assert up.submonoid.generators == ("x",)
    x3 = PreLogRing.make(Z, FREE_RANK_1, [Z.const(3)])
    up3 = unit_pullback(x3)
    assert up3.submonoid.ngens == 0
    pt = std_log_point(F3)
    assert unit_pullback(pt).submonoid.ngens == 0


def test_unit_pullback_requires_complete_units():
    partial = make_units(Z, FgAbelianGroup(0, ()), [], complete=False)
    x = PreLogRing.make(Z, FREE_RANK_1, [Z.const(3)], partial)
    with pytest.raises(ValueError):
        unit_pullback(x)


def test_is_log_examples():
    spec = builtin_units(Z)
    from loggeom.logrings import units_monoid
    upres, ualpha = units_monoid(spec, Z)
    trivial_log = PreLogRing.make(Z, upres, ualpha, spec)
    assert is_log(trivial_log)
    x3 = PreLogRing.make(Z, FREE_RANK_1, [Z.const(3)])
    assert not is_log(x3)
    assert is_log(logify(x3).prelog)


def test_logify_examples():
    x1 = PreLogRing.make(Z, FREE_RANK_1, [Z.const(1)])
    l1 = logify(x1)
    assert group_completion(l1.prelog.monoid).group == FgAbelianGroup(0, (2,))
    x3 = PreLogRing.make(Z, FREE_RANK_1, [Z.const(3)])
    l3 = logify(x3)
    assert group_completion(l3.prelog.monoid).group == FgAbelianGroup(1, (2,))
    pt = std_log_point(F3)
    lpt = logify(pt)
    assert group_completion(lpt.prelog.monoid).group == FgAbelianGroup(1, (2,))


def test_logify_idempotent():
    for x in [
        PreLogRing.make(Z, FREE_RANK_1, [Z.const(3)]),
        std_log_point(F3),
        PreLogRing.make(Z, FREE_RANK_1, [Z.const(1)]),
    ]:
        once = logify(x)
        assert is_log(once.prelog)
        twice = logify(once.prelog)
        assert twice.prelog == once.prelog
        assert twice.map.monoid_map.images == identity_monoid_map(once.prelog.monoid).images


def test_inverse_image_examples():
    x3 = PreLogRing.make(Z, FREE_RANK_1, [Z.const(3)])
    along_id = inverse_image(identity_ring_map(Z), x3)
    assert along_id.alpha == x3.alpha
    to_f3 = RingMap.make(Z, F3, [])
    y = inverse_image(to_f3, x3)
    assert y.ring == F3 and F3.is_zero_elem(dict(y.alpha[0]))
    # thickening to the log point
    a = RingPresentation.make(fp(3), ["u"], [{(2,): 1}])
    xu = PreLogRing.make(a, MonoidPresentation(("u",), ()), [a.var("u")])
    pr = RingMap.make(a, F3, [F3.zero()])
    pt = inverse_image(pr, xu)
    assert F3.is_zero_elem(dict(pt.alpha[0]))


def test_is_strict_examples():
    x3 = PreLogRing.make(Z, FREE_RANK_1, [Z.const(3)], builtin_units(Z))
    assert is_strict(identity_prelog_map(x3))
    to_f3 = RingMap.make(Z, F3, [])
    y = inverse_image(to_f3, x3, units=builtin_units(F3))
    pm = PreLogMap(x3, y, to_f3, identity_monoid_map(FREE_RANK_1))
    assert is_strict(pm)
    # enlarged monoid on the target: not strict
    two = MonoidPresentation(("pi", "sigma"), ())
    pt = std_log_point(F3)
    big = PreLogRing.make(F3, two, [F3.zero(), F3.zero()])
    inc = MonoidMap(PI, two, ((1, 0),))
    assert not is_strict(PreLogMap(pt, big, identity_ring_map(F3), inc))


def test_logify_commutes_with_inverse_image():
    from loggeom.logrings import _logify_pushout
    x3 = PreLogRing.make(Z, FREE_RANK_1, [Z.const(3)], builtin_units(Z))
    to_f3 = RingMap.make(Z, F3, [])
    units3 = builtin_units(F3)
    # order 1: inverse image, then logify
    y1 = _logify_pushout(inverse_image(to_f3, x3, units=units3))
    # order 2: logify, then inverse image, then logify again
    xa = _logify_pushout(x3)
    y2 = _logify_pushout(inverse_image(to_f3, xa.prelog, units=units3))
    src, tgt = y1.prelog.monoid, y2.prelog.monoid
    images = [None] * src.ngens
    for j in range(x3.monoid.ngens):
        word = [0] * tgt.ngens
        canon = xa.map.monoid_map.images[j]
        for t, c in enumerate(canon):
            word[y2.monoid_gen_index[t]] = c
        images[y1.monoid_gen_index[j]] = tuple(word)
    for k, pos in enumerate(y1.unit_gen_index):
        word = [0] * tgt.ngens
        word[y2.unit_gen_index[k]] = 1
        images[pos] = tuple(word)
    comparison = MonoidMap(src, tgt, tuple(images))
    assert monoid_map_is_isomorphism(comparison)


def test_builtin_unit_groups_verify():
    rings = [
        Z,
        RingPresentation.make(int_inv(6), [], []),
        RingPresentation.make(fp(7), [], []),
        RingPresentation.make(fp(2), ["u"], [{(2,): 1}]),
        RingPresentation.make(fp(3), ["u"], [{(2,): 1}]),
    ]
    for ring in rings:
        spec = builtin_units(ring)
        for emb, inv in zip(spec.embeds, spec.inverses):
            ok, wit = is_unit(dict(emb), ring)
            assert ok
            assert ring.elements_equal(ring.mul(dict(emb), wit), ring.one())
            assert ring.elements_equal(ring.mul(dict(emb), dict(inv)), ring.one())


def test_finite_unit_group_structures():
    a2 = RingPresentation.make(fp(2), ["u"], [{(2,): 1}])
    assert builtin_units(a2).group == FgAbelianGroup(0, (2,))
    a3 = RingPresentation.make(fp(3), ["u"], [{(2,): 1}])
    assert builtin_units(a3).group == FgAbelianGroup(0, (6,))
    a5 = RingPresentation.make(fp(5), ["u"], [{(2,): 1}])
    assert builtin_units(a5).group == FgAbelianGroup(0, (20,))
    # powers of the greedy generators land off 1: the group comes from an SNF
    a24 = RingPresentation.make(fp(2), ["u"], [{(4,): 1}])
    assert builtin_units(a24).group == FgAbelianGroup(0, (2, 4))
    a34 = RingPresentation.make(fp(3), ["u"], [{(4,): 1}])
    assert builtin_units(a34).group == FgAbelianGroup(0, (3, 18))


def ring_of(p, variables, ideal):
    return parse(f"ring A {{ coeff: fp({p}); vars: {variables}; ideal: {ideal}; }}").get("A", "ring")


# builtin_units of finite F_p-algebras, computed by the enumeration with one
# Groebner unit test per element that the structure constants replaced; the
# rings it could not present (e.g. F_2[u]/(u^4)) are left out.
UNITS_GOLDEN = {
    "2|u|u^1":
        "05dc1bdb24d0514948ce755de9dc9008ee49f690d9f6d85046354c5639672188",
    "2|u|u^2":
        "20b65e084ef6e9fd4471bdd970dcd52e45fd6bc2e15da0788412abbe74c0af9c",
    "2|u|u^3":
        "f7d7c46ba194b7bdedba1f9202f1a9bd0c9fc9f6534c4f01cc2471394967c933",
    "3|u|u^1":
        "78492d624474029aa341ab9d2088c2659036e0a5c25991111861244215e1dbd7",
    "3|u|u^2":
        "e3b958215658466c88411aef721853d86103b0725561b2ea021d0aa38a0a90f0",
    "3|u|u^3":
        "1277d76ca2bf1490fe1094a034a1416141e0828f028ae2bab9ff68d450379a5d",
    "5|u|u^1":
        "e7946220291d8d127fe77f8774745d1f9e74911ac2c921015a397c1f0bedbd97",
    "5|u|u^2":
        "d0bdd8812f821c3614db47a68ba97e65a569a0b34311a4f07f26ab05dd037445",
    "5|u|u^3":
        "79b6a2d897fa73ab603aa884140506c935874726ef692393782ebb6d5f7fe5b6",
    "5|u|u^4":
        "3508df64937e36512e75b5275695355dc732602974b200d433a464acc63d942a",
    "7|u|u^1":
        "85984aa6a9b69d7fcea0d3dc8a77be144bce39badfa48fa72f2e30510b472366",
    "7|u|u^2":
        "e6d22d48524d8007766113b8359d8550ff224346d05095c3b53122e646f6a083",
    "7|u|u^3":
        "902e6f8976485c34a16e4b28006c887f90b7dfd16775cc5543398f66e6bda63b",
    "2|u|u^2 + u + 1":
        "1622e5d787bba82e53c26323b59fa6b38300cc2bc48d88ed8eb1bf15d51b9d52",
    "2|u|u^3 + u + 1":
        "e32f70c258f1e6ae440fcbd2df6b4a9d450c5a7861ad39c407ede62a6964ed67",
    "3|u|u^2 + 1":
        "1a05acdf2eb03a82e602c286f04a8682edb4ee490348759237d98be56df7e762",
    "5|u|u^2 - u":
        "6c70f48ecc6281f8957e0841575363110c61e60b21ddc6069a983b63d65728ee",
    "3|u|u^3 - u":
        "cbc266d97b10b44e62765bf8394e158bebd7fe5e0136069c18dd3441a2666a8a",
    "2|u|u^4 + u":
        "06c5846911eeda3311cba8737533b26fb45f2ed3a09d5a5248ba1048a9bf26c9",
    "2|u|u^3 + u^2":
        "1b666edc20492b57fd58f048e76d5d7cd9c7478b3d4c9acf8dca3078621b04d3",
    "3|u|u^3 + u^2":
        "3e1234f197b0ef026010ce301f33b69ba9199676ef759a16a25fcabf5fdf25aa",
    "5|u|u^3 - u^2":
        "28d0091d46519c62d62fe2eacc84def0405c1612dc17c48dbf0a60493c04762f",
    "2|u v|u^2, v^2":
        "6abe8e7eaaf7a42ddb644bef4fabf2ed6dcc9be0e4bc6329767b23a5495884a0",
    "3|u v|u^2, v^2":
        "cfa68b58519fa090806463b93eb81a1e48cf4b515d9d35f484d00e9b913e944c",
    "2|u v|u^2, u*v, v^2":
        "10832c9295f047526fe10bd1c857ee50c7e096598bf8b5819c15748e68f471a2",
    "3|u v|u^2, u*v, v^3":
        "1d5ff5517b716641fff07c7efc4cb90b963e1a7cc129951c9dfaf73e3c0b015e",
    "2|u v|u^2 - u, v^2":
        "16c283ee772b1922ab6fd755a0d71cb4244d5209cc68665e4938f161b9cc7473",
    "5|u v|u^2, u*v, v^2":
        "879d853d413ce4a66af935aa5b19b4e865658cf12f93e06934d69096dc64a987",
    "7|u v|u^2, v^2":
        "d5f142b6feae7fd9b918c1c4877542352b7c8bd5d43e1a696acbf58557b84d17",
}


@pytest.mark.parametrize("case", sorted(UNITS_GOLDEN))
def test_builtin_units_golden(case):
    spec = builtin_units(ring_of(*case.split("|")))
    blob = repr((spec.group.rank, spec.group.torsion, spec.embeds, spec.inverses,
                 spec.complete, spec.kind))
    assert hashlib.sha256(blob.encode()).hexdigest() == UNITS_GOLDEN[case]


@st.composite
def small_algebras(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    if draw(st.booleans()):
        deg = draw(st.integers(1, 3 if p < 5 else 2))
        coeffs = [draw(st.integers(0, p - 1)) for _ in range(deg)]
        f = " + ".join([f"u^{deg}"] + [f"{c}*u^{i}" for i, c in enumerate(coeffs) if c])
        return ring_of(p, "u", f)
    a, b, uv = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.booleans())
    assume(p ** (a + b - 1 if uv else a * b) <= 125)  # the brute force is slow
    return ring_of(p, "u v", ", ".join([f"u^{a}", f"v^{b}"] + ["u*v"] * uv))


def brute_units(ring):
    """Every unit, by one Groebner unit test per element of the algebra."""
    from loggeom.rings import monomial_basis
    basis = monomial_basis(ring)
    p = ring.coeff.param
    elems = [{e: c for e, c in zip(basis, cs) if c} for cs in product(range(p), repeat=len(basis))]
    return [x for x in elems if is_unit(x, ring)[0]]


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_finite_unit_groups_match_brute_force(ring):
    spec = builtin_units(ring)
    units = brute_units(ring)
    torsion = spec.group.torsion
    assert spec.group.rank == 0 and spec.group.order() == len(units)
    exponent = torsion[-1] if torsion else 1
    for d in (d for d in range(1, exponent + 1) if exponent % d == 0):
        count = 0
        for x in units:
            power = ring.one()
            for _ in range(d):
                power = ring.nf(ring.mul(power, x))
            count += ring.elements_equal(power, ring.one())
        expected = 1
        for t in torsion:
            expected *= gcd(d, t)
        assert count == expected


def test_unit_enumeration_cap_names_the_bound():
    with pytest.raises(IncompleteComputation, match=f"2\\^24 = 16777216 .* {ENUMERATION_BOUND}"):
        builtin_units(ring_of(2, "u", "u^24"))


def test_unit_group_log_builtin():
    zh = RingPresentation.make(int_inv(6), [], [])
    spec = builtin_units(zh)
    assert unit_group_log(spec, zh, zh.const(-12)) == (1, 2, 1)
    assert unit_group_log(spec, zh, zh.const(5)) is None
    f7 = RingPresentation.make(fp(7), [], [])
    s7 = builtin_units(f7)
    coords = unit_group_log(s7, f7, f7.const(2))
    assert s7.embed_element(f7, coords) == {(): 2}


def test_alpha_validation():
    torsion = MonoidPresentation(("x",), (((2,), (0,)),))
    with pytest.raises(ValueError, match="alpha violates relation"):
        PreLogRing.make(Z, torsion, [Z.const(3)])
    PreLogRing.make(Z, torsion, [Z.const(-1)])


def test_rationals_have_no_builtin_units():
    q = RingPresentation.make(RAT, [], [])
    with pytest.raises(ValueError):
        builtin_units(q)


def test_unit_pullback_is_exact():
    # alpha sends generators to 2 and 3: neither is a unit of Z, though the
    # two images generate the unit ideal; no word in them is a unit, so the
    # unit preimage is the trivial submonoid
    two_gens = MonoidPresentation(("a", "b"), ())
    x = PreLogRing.make(Z, two_gens, [Z.const(2), Z.const(3)], builtin_units(Z))
    up = unit_pullback(x)
    assert up.submonoid.ngens == 0 and up.submonoid.relations == ()
    assert not is_log(x)
    logi = logify(x)
    assert is_log(logi.prelog)
    assert group_completion(logi.prelog.monoid).group == FgAbelianGroup(2, (2,))
    # F_3[x]/(x^2 - x) = F_3 x F_3: x and 1 - x are zero divisors whose
    # images generate the unit ideal, and 2 is a unit of order 2
    ws = parse(F3_IDEMPOTENTS)
    y = ws.get("X")
    up = unit_pullback(y)
    assert up.submonoid.generators == ("c",) and up.submonoid.relations == ()
    assert up.inclusion.images == ((0, 0, 1),)
    assert not is_log(y)
    assert is_log(logify(y).prelog)


def test_bounded_iso_path_on_non_integral_monoids():
    # identity on a non-integral monoid exercises the word-search fallback
    from loggeom.monoids import is_exact, is_integral
    absorbing = MonoidPresentation(("a", "b"), (((1, 1), (1, 0)),))
    assert not is_integral(absorbing)
    assert is_exact(identity_monoid_map(absorbing))
