"""Pre-log and log rings: declared unit groups, logification, strictness.

A pre-log ring is a presented ring, a presented monoid, and generator
images tying them together.  Unit groups are declared data with built-ins
for Z, Z[1/n], F_p and finite F_p-algebras; the log condition compares
the unit preimage submonoid of the monoid against the declared group, and
logification glues the two along it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import monoids
from .errors import IncompleteComputation, Undetermined
from .intlin import FgAbelianGroup, quotient_group
from .monoids import (
    MonoidMap, MonoidPresentation, group_completion, monoid_map_is_isomorphism,
    pushout_monoid,
)
from .polys import Poly, freeze_poly
from .rings import (
    FiniteAlgebra, RingMap, RingPresentation, is_unit, poly_str, prime_factors,
)

ENUMERATION_BOUND = 100000  # largest finite set listed element by element


def check_enumeration(p: int, k: int, what: str) -> None:
    if p ** k > ENUMERATION_BOUND:
        raise IncompleteComputation(
            f"{p}^{k} = {p ** k} {what} exceed the enumeration bound {ENUMERATION_BOUND}")


@dataclass(frozen=True)
class UnitGroupSpec:
    """Declared unit group: abstract group, generator embeddings, inverses.

    ``complete`` asserts the embedding hits every unit of the ring.
    """

    group: FgAbelianGroup
    embeds: tuple[tuple, ...]      # frozen ring element per group generator
    inverses: tuple[tuple, ...]    # frozen witness inverse per generator
    complete: bool
    kind: str = "declared"         # "int" | "int_inv" | "fp" | "finite" | "declared"

    def embed_element(self, ring: RingPresentation, coords) -> Poly:
        out = ring.one()
        for i, c in enumerate(coords):
            base = dict(self.embeds[i]) if c >= 0 else dict(self.inverses[i])
            for _ in range(abs(c)):
                out = ring.mul(out, base)
        return ring.nf(out)


def validate_units(spec: UnitGroupSpec, ring: RingPresentation) -> None:
    g = spec.group
    if len(spec.embeds) != g.ngens or len(spec.inverses) != g.ngens:
        raise ValueError("unit group needs one embedding per generator")
    for i in range(g.ngens):
        e, inv = dict(spec.embeds[i]), dict(spec.inverses[i])
        ok, _ = is_unit(e, ring)
        if not ok:
            raise ValueError(f"declared unit generator {i} is not a unit")
        if not ring.elements_equal(ring.mul(e, inv), ring.one()):
            raise ValueError(f"declared inverse of unit generator {i} is wrong")
    for i, d in enumerate(g.torsion):
        p = ring.one()
        for _ in range(d):
            p = ring.mul(p, dict(spec.embeds[i]))
        if not ring.elements_equal(p, ring.one()):
            raise ValueError(f"unit generator {i} does not have order dividing {d}")


def make_units(ring: RingPresentation, group: FgAbelianGroup, embeds,
               complete: bool = True, kind: str = "declared") -> UnitGroupSpec:
    inverses = []
    for e in embeds:
        ok, wit = is_unit(e, ring)
        if not ok:
            raise ValueError("declared unit generator is not a unit")
        inverses.append(wit)
    spec = UnitGroupSpec(group, tuple(freeze_poly(ring.nf(e)) for e in embeds),
                         tuple(freeze_poly(w) for w in inverses), complete, kind)
    validate_units(spec, ring)
    return spec


def builtin_units(ring: RingPresentation) -> UnitGroupSpec:
    """Unit groups of Z, Z[1/n], F_p, and finite F_p-algebras.

    >>> from loggeom.rings import RingPresentation, fp
    >>> builtin_units(RingPresentation.make(fp(2), ["u"], [{(4,): 1}])).group
    FgAbelianGroup(rank=0, torsion=(2, 4))
    """
    coeff = ring.coeff
    if coeff.kind == "int" and ring.nvars == 0 and not ring.ideal:
        return make_units(ring, FgAbelianGroup(0, (2,)), [ring.const(-1)], kind="int")
    if coeff.kind == "int_inv" and ring.nvars == 0 and not ring.ideal:
        ps = prime_factors(coeff.param)
        group = FgAbelianGroup(len(ps), (2,))
        embeds = [ring.const(-1)] + [ring.const(p) for p in ps]
        return make_units(ring, group, embeds, kind="int_inv")
    if coeff.kind == "fp" and ring.nvars == 0:
        p = coeff.param
        if p == 2:
            return make_units(ring, FgAbelianGroup(0, ()), [], kind="fp")
        root = _primitive_root(p)
        return make_units(ring, FgAbelianGroup(0, (p - 1,)), [ring.const(root)], kind="fp")
    if coeff.kind == "fp":
        return _finite_algebra_units(ring)
    raise ValueError(f"no builtin unit group for {ring}; declare one")


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError("no primitive root found")


def _finite_algebra_units(ring: RingPresentation) -> UnitGroupSpec:
    alg = FiniteAlgebra(ring)
    check_enumeration(alg.p, alg.dim, "algebra elements")
    units = []
    for x in product(range(alg.p), repeat=alg.dim):
        # one test per line through the origin: c * x is a unit iff x is
        if next((c for c in x if c), 0) == 1 and alg.is_unit(x):
            units += [tuple(c * s % alg.p for c in x) for s in range(1, alg.p)]
    units.sort(key=lambda x: freeze_poly(alg.poly(x)))
    # greedy maximal-order walk: span maps each element to its exponents in
    # the generators so far; rels records where each generator's power lands.
    # An order modulo the span divides the one modulo any smaller span, so
    # the last one computed bounds it.
    span = {alg.one: ()}
    gens: list[tuple] = []
    rels: list[tuple] = []
    bound: dict = {}
    while len(span) < len(units):
        best, best_pows = None, ()
        for a in units:
            if a in span or bound.get(a, len(units)) < len(best_pows):
                continue
            m = alg.mult_matrix(a)
            pows = [alg.one, a]
            while pows[-1] not in span:
                pows.append(alg.apply(m, pows[-1]))
            bound[a] = len(pows) - 1
            if len(pows) > len(best_pows):
                best, best_pows = a, pows
                if bound[a] == len(units) // len(span):  # generates the quotient
                    break
        k = len(best_pows) - 1
        rels.append((span[best_pows[-1]], k))
        gens.append(best)
        m = alg.mult_matrix(best)
        new_span = {}
        for s, exps in span.items():
            for i in range(k):
                new_span[s] = exps + (i,)
                s = alg.apply(m, s)
        span = new_span
    n = len(gens)
    if not any(any(r) for r, _ in rels):
        # every power lands on 1: the generators split the group
        group = FgAbelianGroup(0, tuple(k for _, k in reversed(rels)))
        embeds = [alg.poly(g) for g in reversed(gens)]
    else:
        rows = [[-c for c in r] + [k] + [0] * (n - 1 - i) for i, (r, k) in enumerate(rels)]
        group, _, section = quotient_group(n, rows)
        embeds = []
        for c in range(group.ngens):
            x = alg.one
            for g, row in zip(gens, section):
                m = alg.mult_matrix(g)
                for _ in range(row[c] % len(units)):
                    x = alg.apply(m, x)
            embeds.append(alg.poly(x))
    return make_units(ring, group, embeds, kind="finite")


def units_monoid(spec: UnitGroupSpec, ring: RingPresentation):
    """The declared unit group as a grouplike monoid presentation.

    Returns (presentation, alpha images); generator 2i is group
    generator i and generator 2i+1 its inverse.
    """
    g = spec.group
    names = []
    for i in range(g.ngens):
        names.extend([f"u{i}", f"u{i}'"])
    width = 2 * g.ngens
    rels = []
    for i in range(g.ngens):
        pair = [0] * width
        pair[2 * i] = 1
        pair[2 * i + 1] = 1
        rels.append((tuple(pair), (0,) * width))
        if i < len(g.torsion):
            tor = [0] * width
            tor[2 * i] = g.torsion[i]
            rels.append((tuple(tor), (0,) * width))
    pres = MonoidPresentation(tuple(names), tuple(rels))
    alpha = []
    for i in range(g.ngens):
        alpha.append(ring.nf(dict(spec.embeds[i])))
        alpha.append(ring.nf(dict(spec.inverses[i])))
    return pres, alpha


def unit_group_log(spec: UnitGroupSpec, ring: RingPresentation, target: Poly):
    """Coordinates of a unit in the declared group, or None.

    Finite groups are enumerated; the Z and Z[1/n] built-ins factor the
    constant instead.
    """
    target = ring.nf(target)
    if spec.kind in ("int", "int_inv"):
        if list(target.keys()) not in ([()], [(0,) * ring.nvars]):
            return None
        c = list(target.values())[0]
        frac = Fraction(c)
        sign = 1 if frac > 0 else -1
        coords = [0] * spec.group.ngens
        coords[0] = 0 if sign > 0 else 1
        if spec.kind == "int":
            return tuple(coords) if abs(frac) == 1 else None
        ps = prime_factors(ring.coeff.param)
        num, den = abs(frac.numerator), frac.denominator
        for idx, p in enumerate(ps):
            e = 0
            while num % p == 0:
                num //= p
                e += 1
            while den % p == 0:
                den //= p
                e -= 1
            coords[1 + idx] = e
        if num != 1 or den != 1:
            return None
        return tuple(coords)
    if spec.group.rank == 0:
        for coords in spec.group.elements():
            if ring.elements_equal(spec.embed_element(ring, coords), target):
                return coords
        return None
    raise Undetermined("cannot solve discrete logs in an infinite declared group")


# ---------------------------------------------------------------------------
# pre-log rings

@dataclass(frozen=True)
class PreLogRing:
    ring: RingPresentation
    monoid: MonoidPresentation
    alpha: tuple[tuple, ...]  # frozen ring element per monoid generator
    units: UnitGroupSpec | None = None

    def __post_init__(self):
        imgs = tuple(freeze_poly(self.ring.nf(dict(p))) for p in self.alpha)
        if len(imgs) != self.monoid.ngens:
            raise ValueError("one alpha image per monoid generator required")
        object.__setattr__(self, "alpha", imgs)
        for u, v in self.monoid.relations:
            lhs, rhs = self.alpha_of(u), self.alpha_of(v)
            if not self.ring.elements_equal(lhs, rhs):
                raise ValueError(
                    f"alpha violates relation: {poly_str(self.ring.nf(lhs), self.ring.vars)}"
                    f" != {poly_str(self.ring.nf(rhs), self.ring.vars)}")
        if self.units is not None:
            validate_units(self.units, self.ring)

    @staticmethod
    def make(ring, monoid, alpha_polys, units=None) -> "PreLogRing":
        return PreLogRing(ring, monoid, tuple(freeze_poly(p) for p in alpha_polys), units)

    def alpha_of(self, vec) -> Poly:
        out = self.ring.one()
        for j, c in enumerate(vec):
            for _ in range(c):
                out = self.ring.mul(out, dict(self.alpha[j]))
        return self.ring.nf(out)

    def with_units(self, units: UnitGroupSpec | None) -> "PreLogRing":
        return PreLogRing(self.ring, self.monoid, self.alpha, units)

    def ensure_units(self) -> UnitGroupSpec:
        if self.units is not None:
            return self.units
        return builtin_units(self.ring)


@dataclass(frozen=True)
class PreLogMap:
    domain: PreLogRing
    codomain: PreLogRing
    ring_map: RingMap
    monoid_map: MonoidMap

    def __post_init__(self):
        if self.ring_map.domain != self.domain.ring or \
           self.ring_map.codomain != self.codomain.ring:
            raise ValueError("ring map endpoints do not match")
        if self.monoid_map.domain != self.domain.monoid or \
           self.monoid_map.codomain != self.codomain.monoid:
            raise ValueError("monoid map endpoints do not match")
        for j in range(self.domain.monoid.ngens):
            lhs = self.ring_map.apply(dict(self.domain.alpha[j]))
            rhs = self.codomain.alpha_of(self.monoid_map.images[j])
            if not self.codomain.ring.elements_equal(lhs, rhs):
                raise ValueError("pre-log square does not commute on a generator")


def identity_prelog_map(x: PreLogRing) -> PreLogMap:
    from .rings import identity_ring_map
    return PreLogMap(x, x, identity_ring_map(x.ring),
                     monoids.identity_monoid_map(x.monoid))


# ---------------------------------------------------------------------------
# unit pullback and logification

@dataclass(frozen=True)
class UnitPullback:
    submonoid: MonoidPresentation
    inclusion: MonoidMap            # submonoid -> M
    unit_coords: tuple[tuple, ...]  # group coordinates per submonoid generator


def unit_pullback(x: PreLogRing) -> UnitPullback:
    """The unit preimage submonoid alpha^{-1}(U), exactly.

    In a commutative ring a product is a unit iff every factor is (in the
    zero ring everything is), so a monoid element lies in alpha^{-1}(U)
    iff every generator in its support maps to a unit: the preimage is
    the submonoid on S = {j : alpha(g_j) is a unit}.  alpha respects the
    relations, so no relation has one side inside S and the other
    outside, and the relations with both sides in S present it.
    """
    spec = x.ensure_units()
    if not spec.complete:
        raise ValueError("unit pullback requires an asserted-complete unit group")
    m = x.monoid
    ring = x.ring
    s_idx = [j for j in range(m.ngens) if is_unit(dict(x.alpha[j]), ring)[0]]
    s_set = set(s_idx)
    names = tuple(m.generators[j] for j in s_idx)
    rels = []
    for u, v in m.relations:
        if {i for i, c in enumerate(u) if c} <= s_set and \
           {i for i, c in enumerate(v) if c} <= s_set:
            rels.append((tuple(u[j] for j in s_idx), tuple(v[j] for j in s_idx)))
    sub = MonoidPresentation(names, tuple(rels))
    incl = MonoidMap(sub, m, tuple(
        tuple(1 if t == j else 0 for t in range(m.ngens)) for j in s_idx))
    coords = []
    for j in s_idx:
        c = unit_group_log(spec, ring, dict(x.alpha[j]))
        if c is None:
            raise ValueError("alpha image is a unit outside the declared group")
        coords.append(tuple(c))
    return UnitPullback(sub, incl, tuple(coords))


@dataclass(frozen=True)
class Logification:
    prelog: PreLogRing
    map: PreLogMap                 # X -> X^a
    monoid_gen_index: tuple[int, ...]  # positions of the original M generators
    unit_gen_index: tuple[int, ...]    # positions of the unit-monoid generators


def logify(x: PreLogRing, bound: int | None = None) -> Logification:
    """Universal log ring on a pre-log ring (pushout along the unit preimage).

    Already-log inputs come back unchanged with the identity map.
    """
    try:
        already = is_log(x, bound=bound)
    except Undetermined:
        already = False
    if already:
        ident = identity_prelog_map(x.with_units(x.ensure_units()))
        return Logification(ident.codomain, ident,
                            tuple(range(x.monoid.ngens)), ())
    return _logify_pushout(x)


def _logify_pushout(x: PreLogRing) -> Logification:
    from .rings import identity_ring_map
    up = unit_pullback(x)
    spec = x.ensure_units()
    upres, ualpha = units_monoid(spec, x.ring)
    to_units = MonoidMap(up.submonoid, upres, tuple(
        monoids._group_word(c, 0, 2 * spec.group.ngens) for c in up.unit_coords))
    glued, from_m, from_u = pushout_monoid(up.inclusion, to_units)
    alpha = [dict(x.alpha[j]) for j in range(x.monoid.ngens)] + list(ualpha)
    out = PreLogRing.make(x.ring, glued, alpha, spec)
    the_map = PreLogMap(x.with_units(spec), out, identity_ring_map(x.ring), from_m)
    m_idx = tuple(int(from_m.images[j].index(1)) for j in range(x.monoid.ngens))
    u_idx = tuple(int(from_u.images[j].index(1)) for j in range(upres.ngens))
    return Logification(out, the_map, m_idx, u_idx)


def is_log(x: PreLogRing, bound: int | None = None) -> bool:
    """The log condition: alpha^{-1}(U) -> U is an isomorphism."""
    spec = x.ensure_units()
    up = unit_pullback(x)
    upres, _ = units_monoid(spec, x.ring)
    to_units = MonoidMap(up.submonoid, upres, tuple(
        monoids._group_word(c, 0, 2 * spec.group.ngens) for c in up.unit_coords))
    return monoid_map_is_isomorphism(to_units, bound=bound)


def inverse_image(f: RingMap, x: PreLogRing, units=None) -> PreLogRing:
    """Same monoid, structure map composed with the ring map."""
    if f.domain != x.ring:
        raise ValueError("ring map must start at the pre-log ring's ring")
    alpha = [f.apply(dict(a)) for a in x.alpha]
    return PreLogRing.make(f.codomain, x.monoid, alpha, units)


def is_strict(f: PreLogMap, bound: int | None = None) -> bool:
    """Strictness: logified inverse-image structure matches the target.

    Complete on integral monoids; raises Undetermined otherwise.
    """
    target_units = f.codomain.ensure_units()
    pulled = inverse_image(f.ring_map, f.domain, units=target_units)
    log_src = _logify_pushout(pulled)
    log_tgt = _logify_pushout(f.codomain.with_units(target_units))
    # canonical comparison map on the logified monoids: domain generators go
    # through f's monoid part, unit generators match up by construction
    src, tgt = log_src.prelog.monoid, log_tgt.prelog.monoid
    images: list = [None] * src.ngens
    for j in range(f.domain.monoid.ngens):
        word = [0] * tgt.ngens
        img = f.monoid_map.images[j]
        for t in range(f.codomain.monoid.ngens):
            word[log_tgt.monoid_gen_index[t]] = img[t]
        images[log_src.monoid_gen_index[j]] = tuple(word)
    for k, pos in enumerate(log_src.unit_gen_index):
        word = [0] * tgt.ngens
        word[log_tgt.unit_gen_index[k]] = 1
        images[pos] = tuple(word)
    comparison = MonoidMap(src, tgt, tuple(images))
    return monoid_map_is_isomorphism(comparison, bound=bound)
