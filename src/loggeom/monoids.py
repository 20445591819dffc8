"""Finitely presented commutative monoids.

A presentation is a list of generator names and relations between
exponent vectors.  The word problem is decided by membership of binomial
differences in the presentation's binomial ideal over Q, so equality,
integrality (via lattice-ideal saturation) and the exactification
calculus are all effective.

Exactification of f: N -> M replaces N by the pullback of
N^gp -> M^gp <- M.  For virtually surjective f (the gp-level map is
onto) the pullback has a closed-form presentation: lifts of M's
generators through chosen gp-level preimages together with grouplike
generators for ker(f^gp); M's relations acquire kernel corrections.
Split maps recover M + coker(section^gp).  Non-virtually-surjective maps
fall back to a bounded search that errors rather than guess.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import intlin, polys
from .errors import IncompleteComputation, Undetermined
from .intlin import AbGroupMap, FgAbelianGroup
from .polys import LEX, QQ
from .rings import RAT, RingPresentation, RingMap


DEFAULT_BOUND = 12


def degree_bound(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("LOGGEOM_BOUND")
    return int(env) if env else DEFAULT_BOUND


Vec = tuple[int, ...]


def _as_vec(v, n) -> Vec:
    t = tuple(int(x) for x in v)
    if len(t) != n:
        raise ValueError("exponent vector arity mismatch")
    if any(x < 0 for x in t):
        raise ValueError("exponent vectors are over the naturals")
    return t


@dataclass(frozen=True)
class MonoidPresentation:
    generators: tuple[str, ...]
    relations: tuple[tuple[Vec, Vec], ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        n = len(self.generators)
        rels = tuple((_as_vec(u, n), _as_vec(v, n)) for u, v in self.relations)
        rels = tuple((u, v) for u, v in rels if u != v)
        object.__setattr__(self, "relations", rels)

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def zero(self) -> "MonoidElement":
        return MonoidElement(self, (0,) * self.ngens)

    def gen(self, name: str) -> "MonoidElement":
        i = self.generators.index(name)
        return MonoidElement(self, tuple(1 if j == i else 0 for j in range(self.ngens)))

    def element(self, exponents) -> "MonoidElement":
        return MonoidElement(self, _as_vec(exponents, self.ngens))

    def __str__(self):
        gens = " ".join(self.generators) or "-"
        rels = ", ".join(
            f"{_vec_str(u, self.generators)} = {_vec_str(v, self.generators)}"
            for u, v in self.relations)
        return f"<{gens} | {rels or 'free'}>"


def _vec_str(v: Vec, names) -> str:
    if not any(v):
        return "0"
    return "+".join(f"{c}{g}" for c, g in zip(v, names))


FREE_RANK_1 = MonoidPresentation(("x",), ())
TRIVIAL_MONOID = MonoidPresentation((), ())


@dataclass(frozen=True)
class MonoidElement:
    owner: MonoidPresentation
    exponents: Vec

    def __add__(self, other: "MonoidElement") -> "MonoidElement":
        if other.owner != self.owner:
            raise ValueError("elements of different monoids")
        return MonoidElement(self.owner,
                             tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def scale(self, k: int) -> "MonoidElement":
        return MonoidElement(self.owner, tuple(k * a for a in self.exponents))


_WORD_RING_CACHE: dict = {}


def _word_ring(m: MonoidPresentation) -> RingPresentation:
    key = (m.generators, m.relations)
    if key not in _WORD_RING_CACHE:
        gens = []
        for u, v in m.relations:
            gens.append({u: Fraction(1), v: Fraction(-1)} if u != v else {})
        ring = RingPresentation.make(RAT, [f"x{i}" for i in range(m.ngens)], gens)
        _WORD_RING_CACHE[key] = ring
    return _WORD_RING_CACHE[key]


def eq_elements(m: MonoidPresentation, u: MonoidElement, v: MonoidElement) -> bool:
    """Word problem: u = v under the congruence generated by the relations."""
    if u.owner != m or v.owner != m:
        raise ValueError("elements do not belong to the given monoid")
    if u.exponents == v.exponents:
        return True
    ring = _word_ring(m)
    diff = {u.exponents: Fraction(1)}
    diff = ring.add(diff, {v.exponents: Fraction(-1)})
    return ring.is_zero_elem(diff)


_LATTICE_RING_CACHE: dict = {}


def _lattice_ring(m: MonoidPresentation) -> RingPresentation:
    """Q[x]/(lattice ideal of the relation differences) via saturation."""
    key = (m.generators, m.relations)
    if key not in _LATTICE_RING_CACHE:
        ring = _word_ring(m)
        n = m.ngens
        ext_gens = [{(0,) + e: c for e, c in dict(g).items()} for g in ring.ideal]
        ext_gens.append({(1,) + (1,) * n: Fraction(1), (0,) * (n + 1): Fraction(-1)})
        basis = polys.groebner(ext_gens, LEX, QQ)
        eliminated = [{e[1:]: c for e, c in g.items()}
                      for g in basis if all(e[0] == 0 for e in g)]
        _LATTICE_RING_CACHE[key] = RingPresentation.make(
            RAT, ring.vars, eliminated)
    return _LATTICE_RING_CACHE[key]


def is_integral(m: MonoidPresentation) -> bool:
    """Whether the monoid injects into its group completion."""
    word = _word_ring(m)
    lattice = _lattice_ring(m)
    return all(word.is_zero_elem(dict(g)) for g in lattice.ideal)


def gp_class_has_monoid_representative(m: MonoidPresentation, b: list[int]) -> bool:
    """Whether the class of b in M^gp is hit by M (integral lattice test).

    Splitting b = b+ - b-, the class has a representative in the monoid
    iff x^{b+} lies in (x^{b-}) + I_L for the lattice ideal I_L.
    """
    lattice = _lattice_ring(m)
    bp = tuple(max(x, 0) for x in b)
    bm = tuple(max(-x, 0) for x in b)
    return lattice.contains([{bm: Fraction(1)}], {bp: Fraction(1)})


@dataclass(frozen=True)
class GroupCompletion:
    """M^gp with the canonical map from the monoid.

    gen_columns[j] are the canonical coordinates of generator j's class.
    section[i] is an integer vector of Z^ngens representing canonical
    group generator i.
    """

    group: FgAbelianGroup
    gen_columns: tuple[Vec, ...]
    section: tuple[Vec, ...]

    def class_of(self, vec) -> tuple[int, ...]:
        coords = [0] * self.group.ngens
        for j, c in enumerate(vec):
            if c:
                for i in range(self.group.ngens):
                    coords[i] += c * self.gen_columns[j][i]
        return self.group.reduce(coords)

    def representative(self, coords) -> list[int]:
        """Integer vector over the monoid generators with the given class."""
        n = len(self.section)
        out = [0] * n
        for i, c in enumerate(coords):
            for j in range(n):
                out[j] += c * self.section[j][i]
        return out


def group_completion(m: MonoidPresentation) -> GroupCompletion:
    rows = [[u[i] - v[i] for i in range(m.ngens)] for u, v in m.relations]
    group, to_canon, section = intlin.quotient_group(m.ngens, rows)
    cols = tuple(tuple(group.reduce([to_canon[i][j] for i in range(group.ngens)]))
                 for j in range(m.ngens))
    sec = tuple(tuple(section[j][i] for i in range(group.ngens)) for j in range(m.ngens))
    return GroupCompletion(group, cols, sec)


@dataclass(frozen=True)
class MonoidMap:
    domain: MonoidPresentation
    codomain: MonoidPresentation
    images: tuple[Vec, ...]  # exponent vector in the codomain per domain generator

    def __post_init__(self):
        imgs = tuple(_as_vec(w, self.codomain.ngens) for w in self.images)
        if len(imgs) != self.domain.ngens:
            raise ValueError("one image per domain generator required")
        object.__setattr__(self, "images", imgs)
        for u, v in self.domain.relations:
            if not eq_elements(self.codomain,
                               self.codomain.element(self.apply(u)),
                               self.codomain.element(self.apply(v))):
                raise ValueError("map does not respect a domain relation")

    def apply(self, vec) -> Vec:
        out = [0] * self.codomain.ngens
        for j, c in enumerate(vec):
            if c:
                for i in range(self.codomain.ngens):
                    out[i] += c * self.images[j][i]
        return tuple(out)

    def apply_element(self, el: MonoidElement) -> MonoidElement:
        if el.owner != self.domain:
            raise ValueError("element not in the domain")
        return MonoidElement(self.codomain, self.apply(el.exponents))

    def compose(self, other: "MonoidMap") -> "MonoidMap":
        """self o other."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return MonoidMap(other.domain, self.codomain,
                         tuple(self.apply(w) for w in other.images))

    def gp_map(self) -> AbGroupMap:
        gd = group_completion(self.domain)
        gc = group_completion(self.codomain)
        cols = [gc.class_of(self.images[j]) for j in range(self.domain.ngens)]
        # columns on canonical domain generators: push section vectors through
        out_cols = []
        for i in range(gd.group.ngens):
            rep = [gd.section[j][i] for j in range(self.domain.ngens)]
            coords = [0] * gc.group.ngens
            for j, c in enumerate(rep):
                if c:
                    for t in range(gc.group.ngens):
                        coords[t] += c * cols[j][t]
            out_cols.append(gc.group.reduce(coords))
        mat = tuple(tuple(col[i] for col in out_cols) for i in range(gc.group.ngens))
        return AbGroupMap(gd.group, gc.group, mat)


def identity_monoid_map(m: MonoidPresentation) -> MonoidMap:
    return MonoidMap(m, m, tuple(
        tuple(1 if j == i else 0 for j in range(m.ngens)) for i in range(m.ngens)))


def direct_sum(m: MonoidPresentation, n: MonoidPresentation):
    """Coproduct with the two injections (generators and relations concatenated)."""
    taken = set()
    names = []
    for g in m.generators + n.generators:
        cand = g
        k = 2
        while cand in taken:
            cand = f"{g}_{k}"
            k += 1
        taken.add(cand)
        names.append(cand)
    total = len(names)
    rels = []
    for u, v in m.relations:
        rels.append((u + (0,) * n.ngens, v + (0,) * n.ngens))
    for u, v in n.relations:
        rels.append(((0,) * m.ngens + u, (0,) * m.ngens + v))
    out = MonoidPresentation(tuple(names), tuple(rels))
    i1 = MonoidMap(m, out, tuple(
        tuple(1 if j == i else 0 for j in range(total)) for i in range(m.ngens)))
    i2 = MonoidMap(n, out, tuple(
        tuple(1 if j == m.ngens + i else 0 for j in range(total)) for i in range(n.ngens)))
    return out, i1, i2


def pushout_monoid(f: MonoidMap, g: MonoidMap):
    """Pushout of M <- G -> H: gluing relations f(gamma) = g(gamma).

    Returns (pushout, from_M, from_H).
    """
    if f.domain != g.domain:
        raise ValueError("pushout legs must share a domain")
    m, h = f.codomain, g.codomain
    out, i1, i2 = direct_sum(m, h)
    rels = list(out.relations)
    for j in range(f.domain.ngens):
        left = f.images[j] + (0,) * h.ngens
        right = (0,) * m.ngens + g.images[j]
        rels.append((left, right))
    glued = MonoidPresentation(out.generators, tuple(rels))
    from_m = MonoidMap(m, glued, i1.images)
    from_h = MonoidMap(h, glued, i2.images)
    return glued, from_m, from_h


def is_virtually_surjective(f: MonoidMap) -> bool:
    coker, _ = intlin.cokernel(f.gp_map())
    return coker.is_zero()


@dataclass(frozen=True)
class Exactification:
    monoid: MonoidPresentation
    to_codomain: MonoidMap    # N^ex -> M
    from_domain: MonoidMap    # N  -> N^ex


def _solve_gp_preimage(f_gp: AbGroupMap, target) -> list[int] | None:
    """Some x with f_gp(x) = target (coordinates), or None."""
    dom, cod = f_gp.domain, f_gp.codomain
    rel = cod.relation_rows()
    aug = [[f_gp.matrix[i][j] for j in range(dom.ngens)] +
           [rel[k][i] for k in range(len(rel))] for i in range(cod.ngens)]
    sol = intlin.solve_int(aug, list(target), dom.ngens + len(rel))
    return None if sol is None else sol[:dom.ngens]


def _kernel_coords(incl: AbGroupMap, target) -> list[int]:
    """Coordinates in ker for a class known to lie in the kernel's image."""
    sol = _solve_gp_preimage(incl, target)
    if sol is None:
        raise ValueError("class does not lie in the kernel")
    return sol


def _grouplike_block(group: FgAbelianGroup, prefix: str, taken: set[str]):
    """Names and relations presenting an abelian group with inverse pairs."""
    names = []
    rels = []  # filled by caller with offsets
    pos_of = []
    for i in range(group.ngens):
        base = f"{prefix}{i}"
        cand = base
        k = 2
        while cand in taken:
            cand = f"{base}_{k}"
            k += 1
        taken.add(cand)
        inv = cand + "'"
        while inv in taken:
            inv += "'"
        taken.add(inv)
        names.extend([cand, inv])
        pos_of.append(2 * i)
    return names, pos_of


def _group_word(coords, offset, width) -> Vec:
    """Exponent vector for a group element: positive powers on the generator,
    negative on its paired inverse."""
    out = [0] * width
    for i, c in enumerate(coords):
        if c >= 0:
            out[offset + 2 * i] = c
        else:
            out[offset + 2 * i + 1] = -c
    return tuple(out)


def exactify(f: MonoidMap, section: MonoidMap | None = None,
             bound: int | None = None) -> Exactification:
    """Pullback presentation of N^ex = M x_{M^gp} N^gp for f: N -> M.

    Virtually surjective maps get the closed form; a supplied section is
    used for the generator lifts.  Otherwise a bounded search runs and
    raises IncompleteComputation when it cannot certify its output.
    """
    n_mon, m_mon = f.domain, f.codomain
    f_gp = f.gp_map()
    gc_n = group_completion(n_mon)
    gc_m = group_completion(m_mon)
    coker, _ = intlin.cokernel(f_gp)
    if coker.is_zero():
        return _exactify_virtually_surjective(f, f_gp, gc_n, gc_m, section)
    return _exactify_bounded(f, f_gp, gc_n, gc_m, degree_bound(bound))


def _exactify_virtually_surjective(f, f_gp, gc_n, gc_m, section):
    n_mon, m_mon = f.domain, f.codomain
    kernel_group, incl = intlin.kernel(f_gp)
    # gp-level lifts of M's generators
    lifts = []
    for j in range(m_mon.ngens):
        if section is not None:
            lifts.append(list(gc_n.class_of(section.images[j])))
        else:
            x = _solve_gp_preimage(f_gp, gc_m.gen_columns[j])
            if x is None:
                raise ValueError("gp-level preimage missing for a generator")
            lifts.append(list(f_gp.domain.reduce(x)))
    taken = set(m_mon.generators)
    knames, _ = _grouplike_block(kernel_group, "k", taken)
    names = list(m_mon.generators) + knames
    width = len(names)
    koff = m_mon.ngens
    rels: list[tuple[Vec, Vec]] = []
    # kernel block: inverse pairs and torsion
    for i in range(kernel_group.ngens):
        pair = [0] * width
        pair[koff + 2 * i] = 1
        pair[koff + 2 * i + 1] = 1
        rels.append((tuple(pair), (0,) * width))
        if i < len(kernel_group.torsion):
            tor = [0] * width
            tor[koff + 2 * i] = kernel_group.torsion[i]
            rels.append((tuple(tor), (0,) * width))
    # M's relations with kernel corrections
    for u, v in m_mon.relations:
        diff = [0] * f_gp.domain.ngens
        for j in range(m_mon.ngens):
            c = u[j] - v[j]
            if c:
                for i in range(f_gp.domain.ngens):
                    diff[i] += c * lifts[j][i]
        kappa = _kernel_coords(incl, f_gp.domain.reduce(diff))
        left = tuple(list(u) + [0] * (width - m_mon.ngens))
        right_vec = list(v) + [0] * (width - m_mon.ngens)
        corr = _group_word(kappa, koff, width)
        right = tuple(a + b for a, b in zip(right_vec, corr))
        rels.append((left, right))
    ex = MonoidPresentation(tuple(names), tuple(rels))
    to_m = MonoidMap(ex, m_mon, tuple(
        [tuple(1 if t == j else 0 for t in range(m_mon.ngens)) for j in range(m_mon.ngens)]
        + [(0,) * m_mon.ngens for _ in range(2 * kernel_group.ngens)]))
    # canonical map N -> N^ex: n |-> (f(n), class correction)
    from_images = []
    for i in range(n_mon.ngens):
        w = f.images[i]
        diff = [0] * f_gp.domain.ngens
        ei = [1 if t == i else 0 for t in range(n_mon.ngens)]
        cls = list(gc_n.class_of(ei))
        for j in range(m_mon.ngens):
            if w[j]:
                for t in range(f_gp.domain.ngens):
                    cls[t] -= w[j] * lifts[j][t]
        kappa = _kernel_coords(incl, f_gp.domain.reduce(cls))
        word = list(w) + [0] * (width - m_mon.ngens)
        corr = _group_word(kappa, koff, width)
        from_images.append(tuple(a + b for a, b in zip(word, corr)))
    from_n = MonoidMap(n_mon, ex, tuple(from_images))
    return Exactification(ex, to_m, from_n)


def _exactify_bounded(f, f_gp, gc_n, gc_m, bound):
    n_mon, m_mon = f.domain, f.codomain
    kernel_group, incl = intlin.kernel(f_gp)
    if not kernel_group.is_zero() and kernel_group.rank:
        raise IncompleteComputation(
            "incomplete generating set: infinite gp-kernel without virtual surjectivity")
    # solvable exponent vectors of M up to the bound, with one lift each
    atoms: list[tuple[Vec, tuple[int, ...]]] = []
    solvable: dict[Vec, tuple[int, ...]] = {}
    for w in _box_vectors(m_mon.ngens, bound):
        if not any(w):
            continue
        x = _solve_gp_preimage(f_gp, gc_m.class_of(w))
        if x is not None:
            solvable[w] = tuple(f_gp.domain.reduce(x))
    for w, x in sorted(solvable.items()):
        reducible = any(
            tuple(a - b for a, b in zip(w, w2)) in solvable
            for w2 in solvable
            if w2 != w and all(a >= b for a, b in zip(w, w2)))
        if not reducible:
            atoms.append((w, x))
    if not atoms and any(any(w) for w in solvable):
        raise IncompleteComputation("incomplete generating set: no atoms below bound")
    taken: set[str] = set()
    anames = []
    for idx in range(len(atoms)):
        anames.append(f"a{idx}")
        taken.add(f"a{idx}")
    knames, _ = _grouplike_block(kernel_group, "k", taken)
    names = anames + knames
    width = len(names)
    koff = len(anames)
    rels: list[tuple[Vec, Vec]] = []
    for i in range(kernel_group.ngens):
        pair = [0] * width
        pair[koff + 2 * i] = 1
        pair[koff + 2 * i + 1] = 1
        rels.append((tuple(pair), (0,) * width))
        if i < len(kernel_group.torsion):
            tor = [0] * width
            tor[koff + 2 * i] = kernel_group.torsion[i]
            rels.append((tuple(tor), (0,) * width))
    # bounded coincidence search among atom words (kernel part handled exactly)
    seen: dict = {}
    max_len = max(2, bound // max(1, min(sum(w) for w, _ in atoms))) if atoms else 0
    for total in range(1, max_len + 1):
        for combo in combinations_with_replacement(range(len(atoms)), total):
            wsum = [0] * m_mon.ngens
            xsum = [0] * f_gp.domain.ngens
            for idx in combo:
                w, x = atoms[idx]
                wsum = [a + b for a, b in zip(wsum, w)]
                xsum = [a + b for a, b in zip(xsum, x)]
            if sum(wsum) > bound:
                continue
            key = None
            for prev_key, prev in seen.items():
                if prev[0] == tuple(f_gp.domain.reduce(xsum)) and eq_elements(
                        m_mon, m_mon.element(prev[1]), m_mon.element(wsum)):
                    key = prev_key
                    break
            word = [0] * width
            for idx in combo:
                word[idx] += 1
            if key is None:
                seen[tuple(word)] = (tuple(f_gp.domain.reduce(xsum)), tuple(wsum))
            else:
                rels.append((tuple(word), key))
    ex = MonoidPresentation(tuple(names), tuple(rels))
    to_m = MonoidMap(ex, m_mon, tuple(
        [w for w, _ in atoms] + [(0,) * m_mon.ngens for _ in range(2 * kernel_group.ngens)]))
    # express each N-generator through the atoms
    from_images = []
    for i in range(n_mon.ngens):
        w = f.images[i]
        expr = _express_in_atoms(w, atoms, m_mon)
        if expr is None:
            raise IncompleteComputation(
                "incomplete generating set: a domain generator is not reachable")
        word = [0] * width
        for idx, mult in expr:
            word[idx] += mult
        xsum = [0] * f_gp.domain.ngens
        for idx, mult in expr:
            for t in range(f_gp.domain.ngens):
                xsum[t] += mult * atoms[idx][1][t]
        ei = [1 if t == i else 0 for t in range(n_mon.ngens)]
        cls = [a - b for a, b in zip(gc_n.class_of(ei), xsum)]
        kappa = _kernel_coords(incl, f_gp.domain.reduce(cls))
        corr = _group_word(kappa, koff, width)
        from_images.append(tuple(a + b for a, b in zip(word, corr)))
    from_n = MonoidMap(n_mon, ex, tuple(from_images))
    return Exactification(ex, to_m, from_n)


def _express_in_atoms(w: Vec, atoms, m_mon):
    """Exhaustive expression of w as an exponent-exact sum of atoms."""
    from itertools import product
    if not any(w):
        return []
    ranges = []
    for aw, _ in atoms:
        caps = [wc // ac for wc, ac in zip(w, aw) if ac]
        ranges.append(range(0, (min(caps) if caps else 0) + 1))
    for combo in product(*ranges):
        tot = [0] * len(w)
        for (aw, _), mult in zip(atoms, combo):
            for i in range(len(w)):
                tot[i] += mult * aw[i]
        if tuple(tot) == tuple(w):
            return [(i, m) for i, m in enumerate(combo) if m]
    return None


def _box_vectors(n: int, bound: int):
    """All vectors in N^n with total degree <= bound."""
    if n == 0:
        yield ()
        return
    def rec(prefix, left):
        if len(prefix) == n - 1:
            for d in range(left + 1):
                yield tuple(prefix + [d])
            return
        for d in range(left + 1):
            yield from rec(prefix + [d], left - d)
    yield from rec([], bound)


def repletion(f: MonoidMap, section: MonoidMap | None = None,
              bound: int | None = None) -> Exactification:
    """Exactification gated on virtual surjectivity."""
    if not is_virtually_surjective(f):
        raise ValueError("repletion requires a virtually surjective map")
    return exactify(f, section=section, bound=bound)


def is_exact(f: MonoidMap, section: MonoidMap | None = None,
             bound: int | None = None) -> bool:
    """Whether the canonical map N -> N^ex is an isomorphism.

    Complete for integral data (gp-level isomorphism plus lattice-coset
    membership of every pullback generator); otherwise a bounded
    two-sided-inverse search, raising Undetermined when inconclusive.
    """
    res = exactify(f, section=section, bound=bound)
    return monoid_map_is_isomorphism(res.from_domain, bound=bound)


def monoid_map_is_isomorphism(f: MonoidMap, bound: int | None = None) -> bool:
    """Exact isomorphism test for integral monoids; bounded otherwise.

    For integral domain and codomain: f is an isomorphism iff its
    gp-level map is one and every codomain generator's class, pulled back
    through the gp-level inverse, has a representative in the domain
    monoid (a lattice-coset membership).  Raises Undetermined when a
    non-integral side defeats the bounded fallback.
    """
    f_gp = f.gp_map()
    if not intlin.is_isomorphism(f_gp):
        return False
    int_dom = is_integral(f.domain)
    int_cod = is_integral(f.codomain)
    if int_dom != int_cod:
        return False
    if int_dom and int_cod:
        inv = intlin.invert_isomorphism(f_gp)
        gc_dom = group_completion(f.domain)
        gc_cod = group_completion(f.codomain)
        for k in range(f.codomain.ngens):
            ek = [1 if t == k else 0 for t in range(f.codomain.ngens)]
            beta = inv(gc_cod.class_of(ek))
            b = gc_dom.representative(beta)
            if not gp_class_has_monoid_representative(f.domain, b):
                return False
        return True
    return _iso_bounded(f, degree_bound(bound))


def _iso_bounded(f: MonoidMap, bound: int) -> bool:
    dom, cod = f.domain, f.codomain
    preimages = []
    for k in range(cod.ngens):
        target = MonoidElement(cod, tuple(1 if t == k else 0 for t in range(cod.ngens)))
        found = None
        for w in _box_vectors(dom.ngens, bound):
            if eq_elements(cod, f.apply_element(dom.element(w)), target):
                found = w
                break
        if found is None:
            raise Undetermined("no preimage word within the degree bound")
        preimages.append(found)
    try:
        psi = MonoidMap(cod, dom, tuple(preimages))
    except ValueError:
        return False
    for i in range(dom.ngens):
        ei = dom.element(tuple(1 if t == i else 0 for t in range(dom.ngens)))
        if not eq_elements(dom, psi.apply_element(f.apply_element(ei)), ei):
            return False
    return True


def monoid_algebra(m: MonoidPresentation, coeff, name_map=None) -> RingPresentation:
    """Coefficient algebra on the monoid: one variable per generator,
    binomial relations from the presentation."""
    car = coeff.carrier()
    names = list(name_map) if name_map else [f"m_{g}" for g in m.generators]
    gens = []
    for u, v in m.relations:
        gens.append({u: car.normalize(car.one()), v: car.neg(car.one())})
    return RingPresentation.make(coeff, names, gens)


def monoid_algebra_map(f: MonoidMap, dom_ring: RingPresentation,
                       cod_ring: RingPresentation) -> RingMap:
    """Ring map of monoid algebras induced by a monoid map."""
    imgs = []
    car = cod_ring.carrier()
    for i in range(f.domain.ngens):
        imgs.append({f.images[i]: car.normalize(car.one())})
    return RingMap.make(dom_ring, cod_ring, imgs)
