"""Finitely presented commutative rings over exact coefficient domains.

A ring is (coefficient domain, variable names, ideal generators); maps are
variable images checked against the ideals.  Supported coefficients: the
integers, the integers with 1/n adjoined, the rationals, and prime
fields.  Z[1/n] runs on integer arithmetic throughout: its working basis
is the n-saturation of the integer model of the ideal, so zero tests and
unit tests over Z[1/n] reduce to strong Groebner computations over Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from . import polys
from .errors import IncompleteComputation
from .polys import (
    DEGREVLEX, LEX, MonomialOrder, Poly, QQ, ZZ, PrimeField,
    poly_add, poly_const, poly_derivative, poly_mul, poly_neg,
    poly_scale, poly_sub, poly_substitute, poly_var, poly_zero, freeze_poly, is_prime,
)


_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))


@lru_cache(maxsize=256)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of |n| in increasing order.

    Trial division below 100, then Pollard's rho on the rest; a cofactor
    is prime when it is below 101^2 (it has no factor below 100) or when
    the deterministic Miller-Rabin test says so.
    """
    n = abs(n)
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < 101 * 101 or is_prime(m):
            out.append(m)
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return tuple(sorted(set(out)))


_RHO_STEPS = 1 << 20  # finds prime factors up to about 10^12


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n without prime factors below 100."""
    x = y = 2
    c = 1
    for _ in range(_RHO_STEPS):
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        d = gcd(x - y, n)
        if d == n:  # the cycle closed without a split: try another polynomial
            x = y = 2
            c += 1
        elif d != 1:
            return d
    raise IncompleteComputation(f"no factor of {n} found in {_RHO_STEPS} Pollard rho steps")


@dataclass(frozen=True)
class CoeffDomain:
    """One of: Integers, IntegersWithInverted(n), Rationals, PrimeField(p)."""

    kind: str  # "int" | "int_inv" | "rat" | "fp"
    param: int | None = None

    def __post_init__(self):
        if self.kind not in ("int", "int_inv", "rat", "fp"):
            raise ValueError(f"unknown coefficient domain {self.kind!r}")
        if self.kind == "int_inv" and (self.param is None or self.param < 2):
            raise ValueError("int_inv requires n >= 2")
        if self.kind == "fp":  # validates primality; mode() and carrier() share it
            object.__setattr__(self, "_field", PrimeField(self.param))

    @property
    def is_field(self) -> bool:
        return self.kind in ("rat", "fp")

    @property
    def char(self) -> int:
        return self.param if self.kind == "fp" else 0

    def mode(self):
        """Arithmetic mode used by the Groebner engine."""
        if self.kind == "rat":
            return QQ
        if self.kind == "fp":
            return self._field
        return ZZ

    def carrier(self):
        """Arithmetic for ring-level coefficients (Z[1/n] uses Fractions)."""
        if self.kind == "fp":
            return self._field
        if self.kind == "int":
            return ZZ
        return QQ

    def validate_coeff(self, c):
        car = self.carrier()
        c = car.normalize(c)
        if self.kind == "int_inv" and isinstance(c, Fraction):
            allowed = set(prime_factors(self.param))
            if any(p not in allowed for p in prime_factors(c.denominator)):
                raise ValueError(
                    f"denominator {c.denominator} not invertible in Z[1/{self.param}]")
        return c

    def __str__(self):
        if self.kind == "int":
            return "int"
        if self.kind == "rat":
            return "rat"
        if self.kind == "fp":
            return f"fp({self.param})"
        return f"int_inv({self.param})"


INT = CoeffDomain("int")
RAT = CoeffDomain("rat")


def int_inv(n: int) -> CoeffDomain:
    return CoeffDomain("int_inv", n)


def fp(p: int) -> CoeffDomain:
    return CoeffDomain("fp", p)


def coeff_join(a: CoeffDomain, b: CoeffDomain) -> CoeffDomain:
    """Smallest supported domain receiving both (used by tensor products)."""
    if a == b:
        return a
    if a.kind == "int":
        return b
    if b.kind == "int":
        return a
    if a.kind == "int_inv" and b.kind == "int_inv":
        ps = sorted(set(prime_factors(a.param)) | set(prime_factors(b.param)))
        n = 1
        for p in ps:
            n *= p
        return int_inv(n)
    if "rat" in (a.kind, b.kind) and (a.kind == "int_inv" or b.kind == "int_inv"):
        return RAT
    if a.kind == "fp" and b.kind == "int_inv" and a.param not in prime_factors(b.param):
        return a
    if b.kind == "fp" and a.kind == "int_inv" and b.param not in prime_factors(a.param):
        return b
    raise ValueError(f"incompatible coefficient domains {a} and {b}")


def coeff_embeds(src: CoeffDomain, dst: CoeffDomain) -> bool:
    try:
        return coeff_join(src, dst) == dst
    except ValueError:
        return False


def coerce_coeff(c, src: CoeffDomain, dst: CoeffDomain):
    if not coeff_embeds(src, dst):
        raise ValueError(f"no coefficient map {src} -> {dst}")
    if dst.kind == "fp":
        p = dst.param
        if isinstance(c, Fraction):
            return c.numerator * pow(c.denominator, -1, p) % p
        return int(c) % p
    if dst.kind == "int":
        return int(c)
    return Fraction(c)


def _clear_denominators(f: Poly) -> tuple[Poly, int]:
    """(integer polynomial, multiplier) with multiplier * f integral."""
    mult = 1
    for c in f.values():
        if isinstance(c, Fraction):
            mult = lcm(mult, c.denominator)
    out = {e: int(c * mult) for e, c in f.items()}
    return out, mult


_GB_CACHE: dict = {}


class WorkingBasis(list):
    """A Groebner basis with the leading term of each element under its order."""

    def __init__(self, basis: list[Poly], order: MonomialOrder):
        super().__init__(basis)
        self.lts = [polys.leading_term(g, order) for g in basis]


@dataclass(frozen=True)
class RingPresentation:
    coeff: CoeffDomain
    vars: tuple[str, ...]
    ideal: tuple[tuple, ...]  # frozen polynomials

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        frozen = tuple(freeze_poly(self.normalize_input(dict(g))) for g in self.ideal)
        object.__setattr__(self, "ideal", tuple(g for g in frozen if g))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def make(coeff: CoeffDomain, var_names, ideal_polys) -> "RingPresentation":
        return RingPresentation(coeff, tuple(var_names),
                                tuple(freeze_poly(g) for g in ideal_polys))

    def normalize_input(self, f: Poly) -> Poly:
        n = len(self.vars)
        out: Poly = {}
        for e, c in f.items():
            if len(e) != n:
                raise ValueError("exponent arity mismatch")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent")
            c = self.coeff.validate_coeff(c)
            if not self.carrier().is_zero(c):
                out[e] = c
        return out

    def carrier(self):
        return self.coeff.carrier()

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def ideal_polys(self) -> list[Poly]:
        return [dict(g) for g in self.ideal]

    def var(self, name: str) -> Poly:
        return poly_var(self.vars.index(name), self.nvars, self.carrier())

    def const(self, c) -> Poly:
        return poly_const(self.coeff.validate_coeff(c), self.carrier(), self.nvars)

    def zero(self) -> Poly:
        return poly_zero()

    def one(self) -> Poly:
        return self.const(1)

    def add(self, f, g) -> Poly:
        return poly_add(f, g, self.carrier())

    def sub(self, f, g) -> Poly:
        return poly_sub(f, g, self.carrier())

    def mul(self, f, g) -> Poly:
        return poly_mul(f, g, self.carrier())

    def neg(self, f) -> Poly:
        return poly_neg(f, self.carrier())

    # -- Groebner layer ------------------------------------------------------

    def working_basis(self, order: MonomialOrder = DEGREVLEX) -> WorkingBasis:
        """Groebner basis the ring computes against (saturated for Z[1/n])."""
        key = (self.coeff, self.vars, self.ideal, order.name)
        if key in _GB_CACHE:
            return _GB_CACHE[key]
        gens = self.ideal_polys()
        if self.coeff.kind == "int_inv":
            ints = [_clear_denominators(g)[0] for g in gens]
            basis = _saturate_by_constant(ints, self.nvars, self.coeff.param, order)
        else:
            mode = self.coeff.mode()
            gens = [{e: mode.normalize(c) for e, c in g.items()} for g in gens]
            basis = polys.groebner(gens, order, mode)
        basis = _GB_CACHE[key] = WorkingBasis(basis, order)
        return basis

    def nf(self, f: Poly, order: MonomialOrder = DEGREVLEX) -> Poly:
        """Deterministic normal form of a ring element."""
        f = self.normalize_input(f)
        basis = self.working_basis(order)
        if self.coeff.kind == "int_inv":
            g, mult = _clear_denominators(f)
            r = polys.nf(g, basis, order, ZZ, lts=basis.lts)
            return {e: Fraction(c, mult) for e, c in r.items()}
        return polys.nf(f, basis, order, self.coeff.mode(), lts=basis.lts)

    def is_zero_elem(self, f: Poly) -> bool:
        return not self.nf(f)

    def elements_equal(self, f: Poly, g: Poly) -> bool:
        return self.is_zero_elem(self.sub(f, g))

    def is_zero_ring(self) -> bool:
        return self.is_zero_elem(self.one())

    def contains(self, extra_gens: list[Poly], f: Poly) -> bool:
        """Membership of f in ideal + <extra_gens>."""
        sub = self.extend_ideal(extra_gens)
        return sub.is_zero_elem(f)

    def extend_ideal(self, extra_gens: list[Poly]) -> "RingPresentation":
        gens = list(self.ideal) + [freeze_poly(self.normalize_input(g))
                                   for g in extra_gens]
        return RingPresentation(self.coeff, self.vars, tuple(gens))

    def __str__(self):
        gens = ", ".join(poly_str(dict(g), self.vars) for g in self.ideal) or "0"
        vs = " ".join(self.vars) or "-"
        return f"{self.coeff}[{vs}]/({gens})"


def _saturate_by_constant(int_gens: list[Poly], nvars: int, n: int,
                          order: MonomialOrder) -> list[Poly]:
    """Strong GB over Z of (I : n^inf) via the extra-variable trick.

    Works in Z[t, x1..xk] with t first and lex to eliminate t, then
    recomputes in the requested order.
    """
    ext = [{(0,) + e: c for e, c in g.items()} for g in int_gens]
    ext.append({(1,) + (0,) * nvars: n, (0,) * (nvars + 1): -1})  # n*t - 1
    basis = polys.groebner(ext, LEX, ZZ)
    eliminated = [ {e[1:]: c for e, c in g.items()}
                   for g in basis if all(e[0] == 0 for e in g) ]
    return polys.groebner(eliminated, order, ZZ)


def groebner_basis(ring: RingPresentation, order: MonomialOrder = DEGREVLEX) -> list[Poly]:
    """Reduced (field) or strong (Z) basis of the ring's defining ideal."""
    return ring.working_basis(order)


def ideal_equal(ring: RingPresentation, gens_a: list[Poly], gens_b: list[Poly]) -> bool:
    """Equality of ideals (gens_a) + I and (gens_b) + I inside the ring."""
    ra = ring.extend_ideal(gens_a)
    rb = ring.extend_ideal(gens_b)
    return all(rb.is_zero_elem(dict(g)) for g in ra.ideal) and \
        all(ra.is_zero_elem(dict(g)) for g in rb.ideal)


# ---------------------------------------------------------------------------
# units

def is_unit(a: Poly, ring: RingPresentation) -> tuple[bool, Poly | None]:
    """Whether a is a unit of the presented ring; a witness h with a*h = 1.

    Decides 1 in I + (a); over Z[1/n] the saturation variable is adjoined
    so powers of n certify unit-hood, and the witness is recovered by
    substituting t = 1/n into the tracked cofactor.
    """
    a = ring.normalize_input(a)
    if not a:
        return False, None
    coeff = ring.coeff
    if coeff.is_field:
        mode = coeff.mode()
        gens = [{e: mode.normalize(c) for e, c in g.items()} for g in ring.ideal_polys()]
        gens.append({e: mode.normalize(c) for e, c in a.items()})
        basis, cofs = polys.groebner_with_cofactors(gens, DEGREVLEX, mode)
        for k, g in enumerate(basis):
            if list(g.keys()) == [(0,) * ring.nvars]:
                c = g[(0,) * ring.nvars]
                scale = mode.div(mode.one(), c)
                h = poly_scale(cofs[k][-1], scale, mode)
                return True, ring.nf(h)
        return False, None
    if coeff.kind == "int":
        gens = ring.ideal_polys() + [a]
        gens = [{e: int(c) for e, c in g.items()} for g in gens]
        basis, cofs = polys.groebner_with_cofactors(gens, DEGREVLEX, ZZ)
        for k, g in enumerate(basis):
            if list(g.keys()) == [(0,) * ring.nvars] and abs(g[(0,) * ring.nvars]) == 1:
                s = g[(0,) * ring.nvars]
                h = poly_scale(cofs[k][-1], s, ZZ)
                return True, ring.nf(h)
        return False, None
    # Z[1/n]: work in Z[t, x..] with n*t - 1 adjoined
    n = coeff.param
    nv = ring.nvars
    gens = []
    for g in ring.ideal_polys():
        gi, _ = _clear_denominators(g)
        gens.append({(0,) + e: c for e, c in gi.items()})
    ai, amult = _clear_denominators(a)
    gens.append({(0,) + e: c for e, c in ai.items()})
    gens.append({(1,) + (0,) * nv: n, (0,) * (nv + 1): -1})
    basis, cofs = polys.groebner_with_cofactors(gens, LEX, ZZ)
    for k, g in enumerate(basis):
        if list(g.keys()) == [(0,) * (nv + 1)] and abs(g[(0,) * (nv + 1)]) == 1:
            s = g[(0,) * (nv + 1)]
            raw = poly_scale(cofs[k][-2], s, ZZ)  # cofactor of the cleared a
            h: Poly = {}
            for e, c in raw.items():
                coeffv = Fraction(c, n ** e[0]) * amult
                h = poly_add(h, {e[1:]: coeffv}, QQ)
            return True, ring.nf(h)
    return False, None


# ---------------------------------------------------------------------------
# ring maps

@dataclass(frozen=True)
class RingMap:
    domain: RingPresentation
    codomain: RingPresentation
    images: tuple[tuple, ...]  # frozen polynomial per domain variable

    def __post_init__(self):
        if len(self.images) != self.domain.nvars:
            raise ValueError("one image per domain variable required")
        if not coeff_embeds(self.domain.coeff, self.codomain.coeff):
            raise ValueError(
                f"no coefficient map {self.domain.coeff} -> {self.codomain.coeff}")
        imgs = tuple(freeze_poly(self.codomain.normalize_input(dict(p)))
                     for p in self.images)
        object.__setattr__(self, "images", imgs)
        for g in self.domain.ideal_polys():
            if not self.codomain.is_zero_elem(self.apply(g)):
                raise ValueError(
                    f"ideal generator {poly_str(g, self.domain.vars)} "
                    "does not map into the codomain ideal")

    @staticmethod
    def make(domain, codomain, image_polys) -> "RingMap":
        return RingMap(domain, codomain, tuple(freeze_poly(p) for p in image_polys))

    def apply(self, f: Poly) -> Poly:
        car = self.codomain.carrier()
        images = [dict(p) for p in self.images]
        return poly_substitute(
            f, images, car, self.codomain.nvars,
            coeff_map=lambda c: coerce_coeff(c, self.domain.coeff, self.codomain.coeff))

    def compose(self, other: "RingMap") -> "RingMap":
        """self o other."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        imgs = [self.apply(dict(p)) for p in other.images]
        return RingMap.make(other.domain, self.codomain, imgs)

    def is_identity_like(self) -> bool:
        if self.domain != self.codomain:
            return False
        for i, img in enumerate(self.images):
            if not self.codomain.elements_equal(dict(img), self.codomain.var(self.codomain.vars[i])):
                return False
        return True


def identity_ring_map(ring: RingPresentation) -> RingMap:
    return RingMap.make(ring, ring, [ring.var(v) for v in ring.vars])


def coefficient_map(src: RingPresentation, dst: RingPresentation) -> RingMap:
    """The unique map src -> dst when src has no variables."""
    if src.nvars:
        raise ValueError("coefficient_map requires a variable-free domain")
    return RingMap.make(src, dst, [])


def _fresh_names(base: tuple[str, ...], taken: set[str]) -> list[str]:
    out = []
    for name in base:
        cand = name
        k = 2
        while cand in taken:
            cand = f"{name}_{k}"
            k += 1
        taken.add(cand)
        out.append(cand)
    return out


def tensor_over(f: RingMap, g: RingMap):
    """A tensor_B C for f: B -> A and g: B -> C.

    Returns (ring, left inclusion, right inclusion).
    """
    if f.domain != g.domain:
        raise ValueError("tensor factors must share the base")
    a, c = f.codomain, g.codomain
    coeff = coeff_join(a.coeff, c.coeff)
    taken: set[str] = set()
    a_names = _fresh_names(a.vars, taken)
    c_names = _fresh_names(c.vars, taken)
    nvars = len(a_names) + len(c_names)
    car = coeff.carrier()

    def lift_a(p: Poly) -> Poly:
        return {e + (0,) * len(c_names): coerce_coeff(v, a.coeff, coeff)
                for e, v in p.items()}

    def lift_c(p: Poly) -> Poly:
        return {(0,) * len(a_names) + e: coerce_coeff(v, c.coeff, coeff)
                for e, v in p.items()}

    gens = [lift_a(p) for p in a.ideal_polys()]
    gens += [lift_c(p) for p in c.ideal_polys()]
    for j in range(f.domain.nvars):
        left = lift_a(f.apply(f.domain.var(f.domain.vars[j])))
        right = lift_c(g.apply(g.domain.var(g.domain.vars[j])))
        gens.append(poly_sub(left, right, car))
    ring = RingPresentation.make(coeff, a_names + c_names, gens)
    ia = RingMap.make(a, ring, [lift_a(a.var(v)) for v in a.vars])
    ic = RingMap.make(c, ring, [lift_c(c.var(v)) for v in c.vars])
    return ring, ia, ic


# ---------------------------------------------------------------------------
# modules

@dataclass(frozen=True)
class ModulePresentation:
    """Finitely presented module: labeled generators and relation rows."""

    ring: RingPresentation
    gens: tuple[str, ...]
    relations: tuple[tuple[tuple, ...], ...]  # rows of frozen ring elements

    def __post_init__(self):
        rows = []
        for row in self.relations:
            if len(row) != len(self.gens):
                raise ValueError("relation row length mismatch")
            rows.append(tuple(freeze_poly(self.ring.nf(dict(p))) for p in row))
        rows = tuple(row for row in rows if any(len(p) for p in row))
        object.__setattr__(self, "relations", rows)

    @staticmethod
    def make(ring, gen_names, relation_rows) -> "ModulePresentation":
        return ModulePresentation(
            ring, tuple(gen_names),
            tuple(tuple(freeze_poly(p) for p in row) for row in relation_rows))

    @property
    def ngens(self) -> int:
        return len(self.gens)

    def relation_matrix(self) -> list[list[Poly]]:
        return [[dict(p) for p in row] for row in self.relations]


def module_base_change(m: ModulePresentation, f: RingMap) -> ModulePresentation:
    """A tensor_B M along f: B -> A (B the module's base ring)."""
    if f.domain != m.ring:
        raise ValueError("base change requires a map out of the module's ring")
    rows = [[f.apply(p) for p in row] for row in m.relation_matrix()]
    return ModulePresentation.make(f.codomain, m.gens, rows)


def _minor_dets(rows: list[list[Poly]], size: int, ring: RingPresentation) -> list[Poly]:
    if size == 0:
        return [ring.one()]
    if size > len(rows) or (rows and size > len(rows[0])) or not rows:
        return []
    out = []
    col_count = len(rows[0])
    for ris in combinations(range(len(rows)), size):
        for cis in combinations(range(col_count), size):
            sub = [[rows[i][j] for j in cis] for i in ris]
            out.append(_poly_det(sub, ring))
    return out


def _poly_det(m: list[list[Poly]], ring: RingPresentation) -> Poly:
    n = len(m)
    if n == 0:
        return ring.one()
    if n == 1:
        return m[0][0]
    car = ring.carrier()
    acc = poly_zero()
    for j in range(n):
        if not m[0][j]:
            continue
        sub = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = poly_mul(m[0][j], _poly_det(sub, ring), car)
        if j % 2:
            term = poly_neg(term, car)
        acc = poly_add(acc, term, car)
    return acc


def _is_constant_unit(p: Poly, coeff: CoeffDomain) -> bool:
    """Whether a reduced entry is a unit of the coefficient domain itself."""
    if len(p) != 1:
        return False
    (e, c), = p.items()
    if any(e):
        return False
    if coeff.is_field:
        return True
    if coeff.kind == "int":
        return abs(c) == 1
    allowed = prime_factors(coeff.param)
    return all(q in allowed for q in prime_factors(Fraction(c).numerator))


def prune(m: ModulePresentation) -> ModulePresentation:
    """An isomorphic module with every constant-unit pivot eliminated.

    While some relation entry is a unit of the coefficient domain, the
    pivot's row clears its column, and that row and generator go (as
    Macaulay2's prune does).  The result has the same Fitting ideals.
    """
    ring, car = m.ring, m.ring.carrier()
    gens = list(m.gens)
    rows = m.relation_matrix()
    while True:
        pivot = next(((r, c) for r, row in enumerate(rows) for c, p in enumerate(row)
                      if _is_constant_unit(p, ring.coeff)), None)
        if pivot is None:
            break
        r, c = pivot
        prow = rows.pop(r)
        u = prow[c][(0,) * ring.nvars]
        inv = car.div(car.one(), u) if car.is_field else u  # u = +-1 over Z
        for i, row in enumerate(rows):
            if row[c]:
                q = poly_scale(row[c], inv, car)
                row = [ring.nf(poly_sub(p, ring.mul(q, pp), car)) if pp else p
                       for p, pp in zip(row, prow)]
            del row[c]
            rows[i] = row
        del gens[c]
        rows = [row for row in rows if any(row)]
    return m if len(gens) == m.ngens else ModulePresentation.make(ring, gens, rows)


def _fitting_gens(m: ModulePresentation, k: int) -> list[Poly]:
    """Generators of Fitt_k: the nonzero size n-k minors, or 1 when k >= n."""
    size = m.ngens - k
    if size <= 0:
        return [m.ring.one()]
    return [p for p in _minor_dets(m.relation_matrix(), size, m.ring) if p]


def fitting_ideal(m: ModulePresentation, k: int,
                  order: MonomialOrder = DEGREVLEX) -> list[Poly]:
    """Groebner-reduced k-th Fitting ideal (size n-k minors; (1) when k >= n).

    The minors are those of the pruned presentation.
    """
    return m.ring.extend_ideal(_fitting_gens(prune(m), k)).working_basis(order)


def fitting_chain_equal(m1: ModulePresentation, m2: ModulePresentation) -> bool:
    """Whether all Fitting ideals agree (an isomorphism invariant)."""
    if m1.ring != m2.ring:
        raise ValueError("modules live over different presented rings")
    pruned = (prune(m1), prune(m2))
    for k in range(max(m.ngens for m in pruned) + 1):
        a, b = (_fitting_gens(m, k) for m in pruned)
        if not ideal_equal(m1.ring, a, b):
            return False
    return True


def is_zero_module(m: ModulePresentation) -> bool:
    """True iff the maximal-minor ideal is the unit ideal (module vanishes)."""
    m = prune(m)
    return m.ngens == 0 or m.ring.extend_ideal(_fitting_gens(m, 0)).is_zero_ring()


# ---------------------------------------------------------------------------
# Kaehler differentials

def kahler_differentials(target: RingPresentation, base_map: RingMap | None = None,
                         ) -> ModulePresentation:
    """Relative differentials of base -> target (absolute when no map given).

    Generators d<var> per target variable; relations are the Jacobian rows
    of the target ideal plus d(image) = 0 for every base variable.
    """
    a = target
    car = a.carrier()
    rows = []
    for g in a.ideal_polys():
        rows.append([poly_derivative(g, i, car) for i in range(a.nvars)])
    if base_map is not None:
        if base_map.codomain != a:
            raise ValueError("base map must land in the target ring")
        for j in range(base_map.domain.nvars):
            img = base_map.apply(base_map.domain.var(base_map.domain.vars[j]))
            rows.append([poly_derivative(img, i, car) for i in range(a.nvars)])
    return ModulePresentation.make(a, [f"d{v}" for v in a.vars], rows)


# ---------------------------------------------------------------------------
# finite-dimensional linear algebra over prime fields

def monomial_basis(ring: RingPresentation, order: MonomialOrder = DEGREVLEX) -> list[tuple]:
    """Staircase monomials of a finite-dimensional presented algebra."""
    lts = [le for le, _ in ring.working_basis(order).lts]
    if ring.coeff.kind not in ("fp", "rat"):
        raise ValueError("monomial basis requires field coefficients")
    caps = []
    for i in range(ring.nvars):
        pure = [e[i] for e in lts if all(x == 0 for j, x in enumerate(e) if j != i)]
        pure = [d for d in pure if d > 0]
        if not pure:
            raise ValueError("ring is not finite-dimensional")
        caps.append(min(pure))
    out = []
    def rec(prefix):
        if len(prefix) == ring.nvars:
            e = tuple(prefix)
            if not any(polys.exp_divides(lt, e) for lt in lts):
                out.append(e)
            return
        for d in range(caps[len(prefix)]):
            rec(prefix + [d])
    rec([])
    out.sort(key=order.key)
    return out


class FiniteModule:
    """F_p-linear model of a finitely presented module over a finite algebra."""

    def __init__(self, m: ModulePresentation, order: MonomialOrder = DEGREVLEX):
        ring = m.ring
        if ring.coeff.kind != "fp":
            raise ValueError("finite enumeration requires prime-field coefficients")
        self.p = ring.coeff.param
        self.module = m
        self.ring = ring
        self.order = order
        self.basis = monomial_basis(ring, order)
        self.dim_ring = len(self.basis)
        self.index = {e: i for i, e in enumerate(self.basis)}
        self.ngens = m.ngens
        self.dim_free = self.dim_ring * self.ngens
        rows = []
        for rel in m.relation_matrix():
            for e in self.basis:
                vec = [0] * self.dim_free
                for j, entry in enumerate(rel):
                    prod = ring.nf(polys.poly_term_mul(entry, e, 1, ring.carrier()), order)
                    for ee, c in prod.items():
                        vec[j * self.dim_ring + self.index[ee]] = c % self.p
                rows.append(vec)
        self.rel_rows, self.pivots = _echelon_mod_p(rows, self.p)
        self.dim = self.dim_free - len(self.rel_rows)

    def vector_of(self, elems: list[Poly]) -> list[int]:
        """Coordinates of a tuple of ring elements (one per generator)."""
        vec = [0] * self.dim_free
        for j, f in enumerate(elems):
            r = self.ring.nf(f, self.order)
            for e, c in r.items():
                vec[j * self.dim_ring + self.index[e]] = c % self.p
        return self.reduce(vec)

    def reduce(self, vec: list[int]) -> list[int]:
        vec = [x % self.p for x in vec]
        for row, piv in zip(self.rel_rows, self.pivots):
            if vec[piv]:
                c = vec[piv]
                vec = [(x - c * y) % self.p for x, y in zip(vec, row)]
        return vec

    def free_coords(self) -> list[int]:
        return [i for i in range(self.dim_free) if i not in set(self.pivots)]

    def elements(self):
        """All canonical representatives (p^dim of them)."""
        free = self.free_coords()
        def rec(i, vec):
            if i == len(free):
                yield list(vec)
                return
            for c in range(self.p):
                vec[free[i]] = c
                yield from rec(i + 1, vec)
            vec[free[i]] = 0
        yield from rec(0, [0] * self.dim_free)

    def scalar_action(self, a: Poly):
        """Matrix of multiplication by a on the quotient's free coordinates."""
        free = self.free_coords()
        cols = []
        car = self.ring.carrier()
        for i in free:
            j, bi = divmod(i, self.dim_ring)
            prod = self.ring.nf(polys.poly_term_mul(a, self.basis[bi], 1, car), self.order)
            vec = [0] * self.dim_free
            for e, c in prod.items():
                vec[j * self.dim_ring + self.index[e]] = c % self.p
            cols.append(self.reduce(vec))
        return cols, free  # column per free coordinate, in ambient coords


class FiniteAlgebra:
    """F_p-linear model of a finite-dimensional presented algebra.

    Elements are coordinate tuples on ``monomial_basis``.  The normal form
    of each product of two basis monomials is computed once, so a product
    is a table lookup, and a unit is an element whose multiplication
    matrix has full rank mod p.
    """

    def __init__(self, ring: RingPresentation):
        if ring.coeff.kind != "fp":
            raise ValueError("finite enumeration requires prime-field coefficients")
        self.p = ring.coeff.param
        self.basis = monomial_basis(ring)  # DEGREVLEX, the order of ring.nf below
        self.dim = len(self.basis)
        index = {e: i for i, e in enumerate(self.basis)}
        normal: dict = {}  # exponent -> coordinates of its normal form

        def coords(e) -> tuple[int, ...]:
            if e not in normal:
                vec = [0] * self.dim
                for m, c in ring.nf({e: 1}).items():
                    vec[index[m]] = c
                normal[e] = tuple(vec)
            return normal[e]

        self.one = coords((0,) * ring.nvars)
        # entry j is the multiplication matrix of basis monomial j, flattened
        self.table = [sum((coords(polys.exp_add(a, b)) for b in self.basis), ())
                      for a in self.basis]

    def poly(self, x) -> Poly:
        return {e: c for e, c in zip(self.basis, x) if c}

    def _combine(self, coeffs, vecs, size: int) -> list[int]:
        acc = [0] * size
        for c, v in zip(coeffs, vecs):
            if c:
                acc = [s + c * t for s, t in zip(acc, v)]
        return [s % self.p for s in acc]

    def mult_matrix(self, x) -> list[list[int]]:
        """Row i is x times basis monomial i."""
        flat = self._combine(x, self.table, self.dim ** 2)
        return [flat[i:i + self.dim] for i in range(0, self.dim ** 2, self.dim)]

    def apply(self, m, y) -> tuple[int, ...]:
        """x * y, for m the multiplication matrix of x."""
        return tuple(self._combine(y, m, self.dim))

    def is_unit(self, x) -> bool:
        return len(_echelon_mod_p(self.mult_matrix(x), self.p)[0]) == self.dim


def _echelon_mod_p(rows, p):
    rows = [list(r) for r in rows]
    out = []
    pivots = []
    for row in rows:
        row = [x % p for x in row]
        for done, piv in zip(out, pivots):
            if row[piv]:
                c = row[piv]
                row = [(x - c * y) % p for x, y in zip(row, done)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            continue
        inv = pow(row[piv], -1, p)
        row = [x * inv % p for x in row]
        for k, done in enumerate(out):
            if done[piv]:
                c = done[piv]
                out[k] = [(x - c * y) % p for x, y in zip(done, row)]
        out.append(row)
        pivots.append(piv)
    order = sorted(range(len(out)), key=lambda k: pivots[k])
    return [out[k] for k in order], [pivots[k] for k in order]


def hom_count(m: ModulePresentation, j: ModulePresentation,
              order: MonomialOrder = DEGREVLEX) -> int:
    """Number of module homomorphisms M -> J over a finite F_p-algebra."""
    if m.ring != j.ring:
        raise ValueError("modules must share the base ring")
    fm = FiniteModule(j, order)
    p = fm.p
    if m.ngens == 0:
        return 1
    free = fm.free_coords()
    u = len(free)  # unknowns per M-generator
    unknowns = m.ngens * u
    rows = []
    for rel in m.relation_matrix():
        actions = [fm.scalar_action(entry)[0] for entry in rel]
        for amb in range(fm.dim_free):
            row = [0] * unknowns
            for gidx in range(m.ngens):
                cols = actions[gidx]
                for fi in range(u):
                    row[gidx * u + fi] = cols[fi][amb] % p
            rows.append(row)
    reduced, _ = _echelon_mod_p(rows, p)
    return p ** (unknowns - len(reduced))


# ---------------------------------------------------------------------------
# printing

def poly_str(f: Poly, var_names) -> str:
    if not f:
        return "0"
    items = sorted(f.items(), key=lambda kv: DEGREVLEX.key(kv[0]), reverse=True)
    parts = []
    for e, c in items:
        factors = []
        for name, d in zip(var_names, e):
            if d == 1:
                factors.append(name)
            elif d > 1:
                factors.append(f"{name}^{d}")
        cs = str(c)
        if factors and c == 1:
            term = "*".join(factors)
        elif factors and c == -1:
            term = "-" + "*".join(factors)
        elif factors:
            term = cs + "*" + "*".join(factors)
        else:
            term = cs
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out
