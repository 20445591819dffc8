"""Multivariate polynomial arithmetic and Groebner bases, exactly.

Polynomials are dicts mapping exponent tuples to nonzero coefficients.
Coefficients live in one of three arithmetic modes: the rationals
(Fraction), a prime field (ints mod p), or the integers.  Over fields the
engine runs Buchberger with full reduction and produces the reduced
basis; over the integers it computes a strong Groebner basis (S- and
G-polynomials, D-reduction), which makes membership of ideals over Z
decidable and supports elimination with a lex order.

Determinism contract (reports are byte-identical because of it; a change
to pair selection or reduction must re-pin it deliberately):
- S-/G-pairs are taken in increasing (order key of lcm, kind, i, j)
  order, kind "g" before "s", with i > j indexing the basis; the only
  pairs skipped are S-pairs with coprime leading monomials over fields
  and G-pairs whose leading coefficients divide one another;
- groebner over a field also skips, when popped, an S-pair (i, j) for
  which some other lm(g_k) divides the lcm while neither {i, k} nor
  {j, k} is still queued (Buchberger's chain criterion).  The reduced
  basis is unique, so its output is that of groebner_with_cofactors,
  which takes every pair; cofactors and everything over Z keep the path
  above;
- over fields the first basis element whose leading monomial divides the
  current term is the reductor;
- over Z an element whose leading coefficient divides the current one
  exactly comes first, else the smallest |lc| (lowest index on ties).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
import operator

from .errors import IncompleteComputation


Exp = tuple[int, ...]
Poly = dict  # Exp -> coefficient


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0.

    When a | b the cofactors are (1, 0) up to sign, so G-pairs between
    comparable leading coefficients can be skipped.
    """
    if a != 0 and b % a == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    if b != 0 and a % b == 0:
        return (abs(b), 0, 1 if b > 0 else -1)
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


# Miller-Rabin with these bases is exact below the limit (Sorenson and
# Webster 2015, psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises IncompleteComputation when n >= _MR_LIMIT passes."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise IncompleteComputation(f"cannot certify that {n} is prime (Miller-Rabin is "
                                    f"deterministic only below {_MR_LIMIT})")
    return True


class Rationals:
    is_field = True
    char = 0
    name = "rat"

    def from_int(self, n):
        return Fraction(n)

    def normalize(self, c):
        return Fraction(c)

    def is_zero(self, c):
        return c == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        return Fraction(a) / b

    def one(self):
        return Fraction(1)

    def zero(self):
        return Fraction(0)

    def coeff_str(self, c):
        return str(c)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rat")

    def __repr__(self):
        return "QQ"


class PrimeField:
    is_field = True
    name = "fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def from_int(self, n):
        return n % self.p

    def normalize(self, c):
        return int(c) % self.p

    def is_zero(self, c):
        return c % self.p == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        return (a * pow(b, -1, self.p)) % self.p

    def one(self):
        return 1

    def zero(self):
        return 0

    def coeff_str(self, c):
        return str(c % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class IntegerRing:
    is_field = False
    char = 0
    name = "int"

    def from_int(self, n):
        return int(n)

    def normalize(self, c):
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError("non-integral coefficient over Z")
            return int(c)
        return int(c)

    def is_zero(self, c):
        return c == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def one(self):
        return 1

    def zero(self):
        return 0

    def coeff_str(self, c):
        return str(c)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("int")

    def __repr__(self):
        return "ZZ"


QQ = Rationals()
ZZ = IntegerRing()


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    def __init__(self, name: str):
        if name not in ("degrevlex", "lex"):
            raise ValueError(f"unknown monomial order {name!r}")
        self.name = name

    def key(self, exp: Exp):
        if self.name == "lex":
            return exp
        return (sum(exp), *[-e for e in reversed(exp)])

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


# ---------------------------------------------------------------------------
# raw polynomial arithmetic

def poly_zero() -> Poly:
    return {}

def poly_const(c, dom, nvars: int = 0) -> Poly:
    return {} if dom.is_zero(c) else {(0,) * nvars: c}


def poly_var(i: int, nvars: int, dom) -> Poly:
    exp = tuple(1 if j == i else 0 for j in range(nvars))
    return {exp: dom.one()}


def poly_add(f: Poly, g: Poly, dom) -> Poly:
    out = dict(f)
    for e, c in g.items():
        s = dom.add(out.get(e, dom.zero()), c)
        if dom.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def poly_neg(f: Poly, dom) -> Poly:
    return {e: dom.neg(c) for e, c in f.items()}


def poly_sub(f: Poly, g: Poly, dom) -> Poly:
    return poly_add(f, poly_neg(g, dom), dom)


def poly_scale(f: Poly, c, dom) -> Poly:
    if dom.is_zero(c):
        return {}
    return {e: dom.mul(v, c) for e, v in f.items()}


def exp_add(a: Exp, b: Exp) -> Exp:
    return tuple(map(operator.add, a, b))


def exp_sub(a: Exp, b: Exp) -> Exp:
    return tuple(map(operator.sub, a, b))


def exp_divides(a: Exp, b: Exp) -> bool:
    return all(map(operator.le, a, b))


def exp_lcm(a: Exp, b: Exp) -> Exp:
    return tuple(map(max, a, b))


def poly_term_mul(f: Poly, exp: Exp, c, dom) -> Poly:
    if dom.is_zero(c):
        return {}
    return {exp_add(e, exp): dom.mul(v, c) for e, v in f.items()}


def poly_mul(f: Poly, g: Poly, dom) -> Poly:
    out: Poly = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = exp_add(e1, e2)
            s = dom.add(out.get(e, dom.zero()), dom.mul(c1, c2))
            if dom.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def poly_pow(f: Poly, n: int, dom, nvars: int) -> Poly:
    out = poly_const(dom.one(), dom, nvars)
    for _ in range(n):
        out = poly_mul(out, f, dom)
    return out


def poly_derivative(f: Poly, i: int, dom) -> Poly:
    out: Poly = {}
    for e, c in f.items():
        if e[i] == 0:
            continue
        d = dom.mul(c, dom.from_int(e[i]))
        if dom.is_zero(d):
            continue
        ne = tuple(x - 1 if j == i else x for j, x in enumerate(e))
        s = dom.add(out.get(ne, dom.zero()), d)
        if dom.is_zero(s):
            out.pop(ne, None)
        else:
            out[ne] = s
    return out


def poly_substitute(f: Poly, images: list[Poly], dom_dst, nvars_dst: int,
                    coeff_map=None) -> Poly:
    """Evaluate f at the given variable images (polynomials over dom_dst)."""
    if coeff_map is None:
        coeff_map = dom_dst.normalize
    out: Poly = {}
    for e, c in f.items():
        term = poly_const(coeff_map(c), dom_dst, nvars_dst)
        for i, k in enumerate(e):
            if k:
                term = poly_mul(term, poly_pow(images[i], k, dom_dst, nvars_dst), dom_dst)
        out = poly_add(out, term, dom_dst)
    return out


def leading_term(f: Poly, order: MonomialOrder):
    if not f:
        raise ValueError("zero polynomial has no leading term")
    e = max(f, key=order.key)
    return e, f[e]


def freeze_poly(f: Poly) -> tuple:
    return tuple(sorted(f.items()))


# ---------------------------------------------------------------------------
# reduction

def nf(f: Poly, basis: list[Poly], order: MonomialOrder, dom, lts=None) -> Poly:
    r, _ = nf_with_cofactors(f, basis, order, dom, track=False, lts=lts)
    return r


def nf_with_cofactors(f: Poly, basis: list[Poly], order: MonomialOrder, dom,
                      track: bool = True, lts=None):
    """Normal form of f against basis; optionally the reduction cofactors.

    Returns (r, cof) with f = sum(cof[i] * basis[i]) + r.  Over a field no
    monomial of r is divisible by a basis leading monomial; over Z the
    D-reduction leaves remainders smaller than the applicable leading
    coefficients, and r == 0 iff f lies in the ideal whenever the basis
    is a strong Groebner basis.  lts, when given, holds the leading term
    (exponent, coefficient) of each basis element.
    """
    if lts is None:
        lts = [leading_term(g, order) for g in basis]
    cof = [poly_zero() for _ in basis] if track else None
    work = dict(f)
    keys = {e: order.key(e) for e in work}  # of every term seen in this call
    result: Poly = {}
    while work:
        m = max(work, key=keys.__getitem__)
        c = work.pop(m)
        i = _reductor(m, c, lts, dom)
        if i is None:
            result[m] = c
            continue
        le, lc = lts[i]
        if dom.is_field:
            q, r = dom.div(c, lc), None
        else:
            q = c // lc  # floor: remainder has the sign of lc
            r = c - q * lc
        if not dom.is_zero(q):
            shift = exp_sub(m, le)
            _sub_multiple(work, keys, basis[i], le, shift, q, dom, order)
            if track:  # terms leave work in decreasing order, so shift is new here
                cof[i][shift] = q
        if r:
            result[m] = r
    return result, cof


def _reductor(m: Exp, c, lts, dom):
    """Index of the basis element that reduces c*x^m (the contract above)."""
    if dom.is_field:
        return next((i for i, (e, _) in enumerate(lts) if all(map(operator.le, e, m))),
                    None)
    applicable = [i for i, (e, _) in enumerate(lts) if all(map(operator.le, e, m))]
    if not applicable:
        return None
    exact = next((i for i in applicable if c % lts[i][1] == 0), None)
    if exact is not None:
        return exact
    return min(applicable, key=lambda k: (abs(lts[k][1]), k))


def _sub_multiple(work: Poly, keys: dict, g: Poly, le: Exp, shift: Exp, q, dom,
                  order: MonomialOrder) -> None:
    """work -= q * x^shift * (g - its leading term), in place; keys gets new terms.

    Terms are updated, dropped and appended in the order poly_sub would
    produce them, so the dict order matches a copying subtraction.
    """
    zero, sub, mul, is_zero = dom.zero(), dom.sub, dom.mul, dom.is_zero
    for e, v in g.items():
        if e != le:
            t = tuple(map(operator.add, e, shift))
            s = sub(work.get(t, zero), mul(v, q))
            if is_zero(s):
                work.pop(t, None)
            else:
                work[t] = s
                if t not in keys:
                    keys[t] = order.key(t)


def _pair_terms(lt_f, lt_g, dom, kind: str):
    """(shift_f, a, shift_g, b): the pair polynomial is a*x^shift_f*f + b*x^shift_g*g.

    kind "s" cancels the leading terms at their lcm; kind "g" (over Z)
    combines them to gcd(lc_f, lc_g) at the lcm.
    """
    (ef, cf), (eg, cg) = lt_f, lt_g
    el = exp_lcm(ef, eg)
    if kind == "g":
        _, a, b = xgcd(cf, cg)
    elif dom.is_field:
        a, b = dom.div(dom.one(), cf), dom.neg(dom.div(dom.one(), cg))
    else:
        l = cf // gcd(cf, cg) * cg
        a, b = l // cf, -(l // cg)
    return exp_sub(el, ef), a, exp_sub(el, eg), b


def _combine(f: Poly, g: Poly, terms, dom) -> Poly:
    sa, a, sb, b = terms
    return poly_add(poly_term_mul(f, sa, a, dom), poly_term_mul(g, sb, b, dom), dom)


def spoly(f: Poly, g: Poly, order: MonomialOrder, dom, lt_f=None, lt_g=None) -> Poly:
    terms = _pair_terms(lt_f or leading_term(f, order), lt_g or leading_term(g, order),
                        dom, "s")
    return _combine(f, g, terms, dom)


def gpoly(f: Poly, g: Poly, order: MonomialOrder, lt_f=None, lt_g=None) -> Poly | None:
    """G-polynomial over Z; None when one leading coefficient divides the other."""
    lt_f, lt_g = lt_f or leading_term(f, order), lt_g or leading_term(g, order)
    if lt_f[1] % lt_g[1] == 0 or lt_g[1] % lt_f[1] == 0:
        return None
    return _combine(f, g, _pair_terms(lt_f, lt_g, ZZ, "g"), ZZ)


def _normalize_gen(f: Poly, order: MonomialOrder, dom):
    """(f scaled to leading coefficient 1 over a field, > 0 over Z; the scale)."""
    _, c = leading_term(f, order)
    if dom.is_field:
        scale = dom.div(dom.one(), c)
        return poly_scale(f, scale, dom), scale
    if c < 0:
        return poly_neg(f, dom), dom.from_int(-1)
    return f, dom.one()


def _lift(start: list[Poly], red: list[Poly], rows: list[list[Poly]], dom) -> list[Poly]:
    """start - sum(red[b] * rows[b]), entrywise: cofactors over the inputs."""
    total = list(start)
    for rb, row in zip(red, rows):
        if rb:
            for t, c in enumerate(row):
                if c:
                    total[t] = poly_sub(total[t], poly_mul(rb, c, dom), dom)
    return total


def groebner(gens: list[Poly], order: MonomialOrder, dom) -> list[Poly]:
    """Groebner basis of the ideal: reduced over a field, strong over Z."""
    basis, _ = groebner_with_cofactors(gens, order, dom, track=False)
    return basis


def groebner_with_cofactors(gens: list[Poly], order: MonomialOrder, dom,
                            track: bool = True):
    """Groebner basis together with cofactors over the input generators.

    Returns (basis, cof) with basis[k] = sum(cof[k][i] * gens[i]).
    """
    basis: list[Poly] = []
    lts: list = []  # leading term of each basis element, fixed when it joins
    cofs: list[list[Poly]] = []
    pairs: list = []  # heap of (order key of lcm, kind, i, j) with i > j
    lcm_keys: dict = {}  # the heap holds O(len(basis)^2) keys, many of them equal
    chain = dom.is_field and not track  # Buchberger's second criterion applies
    pending: set = set()  # (i, j) of the S-pairs still in the heap, when chain

    def join(g, row):
        gn, scale = _normalize_gen(g, order, dom)
        k = len(basis)
        basis.append(gn)
        lts.append(leading_term(gn, order))
        if track:
            cofs.append([poly_scale(t, scale, dom) for t in row])
        ek, ck = lts[k]
        for j, (ej, cj) in enumerate(lts[:k]):
            if dom.is_field and not any(map(min, ek, ej)):
                continue  # coprime leading monomials: the S-pair reduces to 0
            key = order.key(exp_lcm(ek, ej))
            key = lcm_keys.setdefault(key, key)  # one tuple per distinct lcm
            heappush(pairs, (key, "s", k, j))
            if chain:
                pending.add((k, j))
            if not dom.is_field and ck % cj and cj % ck:  # else gpoly is None
                heappush(pairs, (key, "g", k, j))

    for i, g in enumerate(gens):
        if g:
            one = poly_const(dom.one(), dom, len(next(iter(g))))
            join(g, [one if j == i else poly_zero() for j in range(len(gens))])
    while pairs:
        _, kind, i, j = heappop(pairs)
        if chain:
            pending.remove((i, j))
            el = exp_lcm(lts[i][0], lts[j][0])
            if any(k != i and k != j and exp_divides(ek, el)
                   and (max(i, k), min(i, k)) not in pending
                   and (max(j, k), min(j, k)) not in pending
                   for k, (ek, _) in enumerate(lts)):
                continue  # {i,k} and {j,k} are done, so this S-pair reduces to 0
        if kind == "s":
            h = spoly(basis[i], basis[j], order, dom, lts[i], lts[j])
        else:
            h = gpoly(basis[i], basis[j], order, lts[i], lts[j])
        r, red = nf_with_cofactors(h, basis, order, dom, track=track, lts=lts)
        if r:
            row = None
            if track:
                terms = _pair_terms(lts[i], lts[j], dom, kind)
                row = _lift([_combine(a, b, terms, dom) for a, b in zip(cofs[i], cofs[j])],
                            red, cofs, dom)
            join(r, row)
    return _autoreduce(basis, cofs if track else None, order, dom, track, lts)


def _autoreduce(basis, cofs, order, dom, track, lts):
    # minimalize: walk by increasing leading term, keep an element only if
    # no already-kept leading term (D-)divides its own
    def lt_key(i):
        le, lc = lts[i]
        return (order.key(le), abs(lc) if not dom.is_field else 0, freeze_poly(basis[i]))

    keep = []
    for i in sorted(range(len(basis)), key=lt_key):
        le, lc = lts[i]
        if not any(exp_divides(lts[j][0], le) and (dom.is_field or lc % lts[j][1] == 0)
                   for j in keep):
            keep.append(i)
    keep.sort()
    out = []
    for i in keep:
        others = [j for j in keep if j != i]
        if not others:
            out.append((basis[i], cofs[i] if track else None))
            continue
        r, red = nf_with_cofactors(basis[i], [basis[j] for j in others], order, dom,
                                   track=track, lts=[lts[j] for j in others])
        if not r:
            continue
        rn, scale = _normalize_gen(r, order, dom)
        row = None
        if track:
            row = [poly_scale(t, scale, dom)
                   for t in _lift(cofs[i], red, [cofs[j] for j in others], dom)]
        out.append((rn, row))
    out.sort(key=lambda pair: order.key(leading_term(pair[0], order)[0]))
    return [g for g, _ in out], ([row for _, row in out] if track else None)
