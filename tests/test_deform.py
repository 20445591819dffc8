"""Square-zero data, log derivations, and the strictness classification."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from loggeom.deform import (
    LogDerivation, SquareZeroExtensionData, classify_log_square_zero, derivation_str,
    is_square_zero_ring_ext, log_derivations, split_square_zero,
)
from loggeom.diffs import log_differentials
from loggeom.logrings import (
    PreLogMap, PreLogRing, builtin_units, inverse_image, _finite_algebra_units,
)
from loggeom.monoids import (
    IncompleteComputation, MonoidMap, MonoidPresentation, identity_monoid_map,
)
from loggeom.polys import freeze_poly, poly_derivative
from loggeom.rings import (
    FiniteModule, ModulePresentation, RAT, RingMap, RingPresentation, coefficient_map,
    fp, hom_count, monomial_basis,
)


F2 = RingPresentation.make(fp(2), [], [])
F3 = RingPresentation.make(fp(3), [], [])


def test_split_square_zero_examples():
    pt = PreLogRing.make(F3, MonoidPresentation(("pi",), ()), [F3.zero()])
    j = ModulePresentation.make(F3, ["j"], [])
    ssz = split_square_zero(pt, j)
    assert ssz.ring.vars == ("e_j",)
    assert ssz.ring.is_zero_elem({(2,): 1})
    # J = 0 gives the ring back
    ssz0 = split_square_zero(pt, ModulePresentation.make(F3, [], []))
    assert ssz0.ring.vars == ()
    # classical dual numbers from the trivial log part
    z = RingPresentation.make(RAT, [], [])
    triv = PreLogRing.make(z, MonoidPresentation((), ()), [])
    d = split_square_zero(triv, ModulePresentation.make(z, ["e"], []))
    assert d.ring.is_zero_elem({(2,): 1})
    assert not d.ring.is_zero_elem({(1,): 1})


def test_derivation_counts_match_hom_counts():
    # standard log point over F2 into k: delta free, D = 0
    pt2 = PreLogRing.make(F2, MonoidPresentation(("pi",), ()), [F2.zero()])
    j = ModulePresentation.make(F2, ["j"], [])
    ders = log_derivations(pt2, j)
    assert len(ders) == 2
    assert len(ders) == hom_count(log_differentials(pt2), j)

    # thickening over the base with x -> u^2, J = A: four derivations
    a = RingPresentation.make(fp(2), ["u"], [{(2,): 1}])
    x = PreLogRing.make(a, MonoidPresentation(("u",), ()), [a.var("u")])
    base = PreLogRing.make(F2, MonoidPresentation(("x",), ()), [F2.zero()])
    bm = PreLogMap(base, x, coefficient_map(F2, a),
                   MonoidMap(base.monoid, x.monoid, ((2,),)))
    ja = ModulePresentation.make(a, ["j"], [])
    ders2 = log_derivations(x, ja, base=bm)
    assert len(ders2) == 4
    assert len(ders2) == hom_count(log_differentials(x, base=bm), ja)

    # J = 0: only the trivial derivation
    assert len(log_derivations(x, ModulePresentation.make(a, [], []), base=bm)) == 1


def test_derivation_correspondence_corpus():
    corpus = []
    a2 = RingPresentation.make(fp(2), ["u"], [{(2,): 1}])
    corpus.append((PreLogRing.make(a2, MonoidPresentation(("u",), ()), [a2.var("u")]),
                   ModulePresentation.make(a2, ["j"], []), None))
    a3 = RingPresentation.make(fp(3), ["u"], [{(2,): 1}])
    corpus.append((PreLogRing.make(a3, MonoidPresentation(("u",), ()), [a3.var("u")]),
                   ModulePresentation.make(a3, ["j"], [[a3.var("u")]]), None))
    pt3 = PreLogRing.make(F3, MonoidPresentation(("pi",), ()), [F3.zero()])
    corpus.append((pt3, ModulePresentation.make(F3, ["j"], []), None))
    for x, j, base in corpus:
        ders = log_derivations(x, j, base=base)
        assert len(ders) == hom_count(log_differentials(x, base=base), j)


def tuple_loop_derivations(x, j, base=None):
    """Every tuple of elements of J as (D(x_i), delta(m_t)), kept if it passes
    each condition; the enumeration the kernel solve replaced."""
    a = x.ring
    fm = FiniteModule(j)
    car = a.carrier()

    def vanishes(terms):
        acc = [a.zero()] * fm.ngens
        for coeff, vec in terms:
            for gi in range(fm.ngens):
                block = vec[gi * fm.dim_ring:(gi + 1) * fm.dim_ring]
                comp = {e: c for e, c in zip(fm.basis, block) if c}
                acc[gi] = a.add(acc[gi], a.mul(coeff, comp))
        return not any(fm.vector_of(acc))

    def d(f, ring_imgs):
        return [(poly_derivative(f, i, car), ring_imgs[i]) for i in range(a.nvars)]

    elements = [tuple(v) for v in fm.elements()]
    killed = []
    words = [tuple(s - t for s, t in zip(u, v)) for u, v in x.monoid.relations]
    if base is not None:
        r = base.domain.ring
        killed = [base.ring_map.apply(r.var(v)) for v in r.vars]
        words += list(base.monoid_map.images)
    found = []
    for ring_imgs in product(elements, repeat=a.nvars):
        if not all(vanishes(d(g, ring_imgs)) for g in a.ideal_polys() + killed):
            continue
        for mono_imgs in product(elements, repeat=x.monoid.ngens):
            if all(vanishes([(a.const(c), img) for c, img in zip(w, mono_imgs)])
                   for w in words) and \
               all(vanishes(d(dict(al), ring_imgs) + [(a.neg(dict(al)), mono_imgs[t])])
                   for t, al in enumerate(x.alpha)):
                found.append((ring_imgs, mono_imgs))
    return found


@st.composite
def derivation_inputs(draw):
    """A thickening F_p[u]/(u^k) with a log structure, a module and maybe a base."""
    p, k = draw(st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))))
    a = RingPresentation.make(fp(p), ["u"], [{(k,): 1}])

    def elem(nilpotent=False):
        cs = [draw(st.integers(0, p - 1)) for _ in range(k)]
        return {(i,): c for i, c in enumerate(cs) if c and (i or not nilpotent)}

    ngens = draw(st.integers(1, 2))
    alpha = [elem(nilpotent=True)] + [elem() for _ in range(ngens - 1)]
    rels = ()
    if ngens == 2 and draw(st.booleans()):
        alpha[1] = alpha[0]
        rels = (((1, 0), (0, 1)),)
    x = PreLogRing.make(a, MonoidPresentation(("m", "n")[:ngens], rels), alpha)
    shape = draw(st.sampled_from(("free", "cyclic", "two")))
    if shape == "free":
        j = ModulePresentation.make(a, ["j"], [])
    elif shape == "cyclic":
        j = ModulePresentation.make(a, ["j"], [[elem() or a.one()]])
    else:
        j = ModulePresentation.make(a, ["p", "q"], [[a.var("u"), elem()], [a.zero(), a.var("u")]])
    base = None
    if draw(st.booleans()):
        k0 = RingPresentation.make(fp(p), [], [])
        b = PreLogRing.make(k0, MonoidPresentation(("b",), ()), [k0.zero()])
        word = (k,) + (0,) * (ngens - 1)
        base = PreLogMap(b, x, coefficient_map(k0, a), MonoidMap(b.monoid, x.monoid, (word,)))
    size = p ** FiniteModule(j).dim
    if size ** (1 + ngens) > 5000:  # keep the tuple loop quick
        j = ModulePresentation.make(a, ["j"], [[a.var("u")]])
    return x, j, base


@settings(max_examples=40, deadline=None)
@given(derivation_inputs())
def test_derivations_match_tuple_loop(case):
    x, j, base = case
    ders = log_derivations(x, j, base=base)
    old = tuple_loop_derivations(x, j, base=base)
    assert sorted(derivation_str(dv, x, j) for dv in ders) == \
        sorted(derivation_str(LogDerivation(r, m), x, j) for r, m in old)
    assert len(ders) == hom_count(log_differentials(x, base=base), j)


def test_derivation_listing_cap_names_the_bound():
    a = RingPresentation.make(fp(3), ["u", "v"], [{(3, 0): 1}, {(0, 3): 1}])
    x = PreLogRing.make(a, MonoidPresentation(("m",), ()), [a.var("u")])
    j = ModulePresentation.make(a, ["j"], [])
    with pytest.raises(IncompleteComputation, match="3\\^18 = 387420489 derivations .* 100000"):
        log_derivations(x, j)


def test_units_of_split_square_zero_count():
    # |GL1(A + J)| = |GL1(A)| * |J| for finite F_p-algebras
    for p in (2, 3):
        k = RingPresentation.make(fp(p), [], [])
        triv = PreLogRing.make(k, MonoidPresentation((), ()), [])
        j = ModulePresentation.make(k, ["e"], [])
        ssz = split_square_zero(triv, j)
        units_total = _finite_algebra_units(ssz.ring)
        units_base = builtin_units(k)
        total = units_total.group.order()
        base_size = units_base.group.order()
        jsize = p ** len(monomial_basis(k))
        assert total == base_size * jsize
    # same count with a nontrivial base algebra and J = A
    a = RingPresentation.make(fp(2), ["u"], [{(2,): 1}])
    x = PreLogRing.make(a, MonoidPresentation(("u",), ()), [a.var("u")])
    ssz = split_square_zero(x, ModulePresentation.make(a, ["e"], []))
    total = _finite_algebra_units(ssz.ring).group.order()
    base_size = builtin_units(a).group.order()
    assert total == base_size * 2 ** len(monomial_basis(a))
    # the section splits the projection
    comp = ssz.projection.compose(ssz.section)
    assert comp.is_identity_like()


def test_square_zero_validation_examples():
    k = RingPresentation.make(RAT, [], [])
    ku2 = RingPresentation.make(RAT, ["u"], [{(2,): 1}])
    proj = RingMap.make(ku2, k, [k.zero()])
    good = SquareZeroExtensionData(ku2, proj, (freeze_poly(ku2.var("u")),))
    assert is_square_zero_ring_ext(good)
    ku3 = RingPresentation.make(RAT, ["u"], [{(3,): 1}])
    bad = SquareZeroExtensionData(
        ku3, RingMap.make(ku3, k, [k.zero()]), (freeze_poly(ku3.var("u")),))
    assert not is_square_zero_ring_ext(bad)
    ident = SquareZeroExtensionData(k, RingMap.make(k, k, []), ())
    assert is_square_zero_ring_ext(ident)


def square_zero_corpus():
    out = []
    for p in (2, 3, 5):
        k = RingPresentation.make(fp(p), [], [])
        a = RingPresentation.make(fp(p), ["u"], [{(2,): 1}])
        x = PreLogRing.make(a, MonoidPresentation(("u",), ()), [a.var("u")])
        proj = RingMap.make(a, k, [k.zero()])
        y = inverse_image(proj, x, units=builtin_units(k))
        out.append(PreLogMap(x, y, proj, identity_monoid_map(x.monoid)))
    return out


def test_classification_on_corpus():
    for pm in square_zero_corpus():
        assert classify_log_square_zero(pm) == "log-square-zero"


def test_classification_counterexample_and_gate():
    a = RingPresentation.make(fp(3), ["u"], [{(2,): 1}])
    x = PreLogRing.make(a, MonoidPresentation(("u",), ()), [a.var("u")])
    proj = RingMap.make(a, F3, [F3.zero()])
    big = MonoidPresentation(("u", "sigma"), ())
    y = PreLogRing.make(F3, big, [F3.zero(), F3.zero()], builtin_units(F3))
    pm = PreLogMap(x, y, proj, MonoidMap(x.monoid, big, ((1, 0),)))
    assert classify_log_square_zero(pm) == "not"

    ku3 = RingPresentation.make(RAT, ["u"], [{(3,): 1}])
    k = RingPresentation.make(RAT, [], [])
    x3 = PreLogRing.make(ku3, MonoidPresentation(("u",), ()), [ku3.var("u")])
    y3 = inverse_image(RingMap.make(ku3, k, [k.zero()]), x3)
    pm3 = PreLogMap(x3, y3, RingMap.make(ku3, k, [k.zero()]),
                    identity_monoid_map(x3.monoid))
    with pytest.raises(ValueError):
        classify_log_square_zero(pm3)
