"""Split square-zero extensions, log derivations, strictness classification.

The monoid part of a split square-zero extension is deliberately not
materialized as a presentation: the additive monoid of the module is not
finitely generated in general.  Derivations are handled linearly instead,
as pairs (D, delta) subject to the Leibniz, additivity, and
compatibility constraints, enumerated exactly over finite prime-field
algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import IncompleteComputation, Undetermined
from .logrings import PreLogMap, PreLogRing, check_enumeration, is_strict
from .polys import LEX, Poly, freeze_poly, poly_derivative
from . import polys
from .rings import (
    FiniteModule, ModulePresentation, RingMap, RingPresentation, _echelon_mod_p,
)


@dataclass(frozen=True)
class SquareZeroExtensionData:
    """A presented surjection with square-zero kernel."""

    total: RingPresentation
    projection: RingMap
    kernel_gens: tuple[tuple, ...]

    def __post_init__(self):
        if self.projection.domain != self.total:
            raise ValueError("projection must start at the total ring")
        kg = tuple(freeze_poly(self.total.nf(dict(p))) for p in self.kernel_gens)
        object.__setattr__(self, "kernel_gens", kg)


def _graph_ring(proj: RingMap):
    """k[codomain vars, domain vars] / (I_cod + graph), lex-eliminating the
    codomain block."""
    dom, cod = proj.domain, proj.codomain
    nd, nc = dom.nvars, cod.nvars
    car = cod.carrier()
    gens = []
    for g in cod.ideal_polys():
        gens.append({e + (0,) * nd: c for e, c in g.items()})
    for j in range(nd):
        img = proj.apply(dom.var(dom.vars[j]))
        lifted = {e + (0,) * nd: c for e, c in img.items()}
        var = {(0,) * nc + tuple(1 if t == j else 0 for t in range(nd)): car.one()}
        gens.append(polys.poly_sub(var, lifted, car))
    names = [f"y{i}" for i in range(nc)] + [f"z{i}" for i in range(nd)]
    return RingPresentation.make(cod.coeff, names, gens)


def _kernel_ideal_gens(proj: RingMap) -> list[Poly]:
    """Generators of ker(projection) by eliminating the codomain block."""
    graph = _graph_ring(proj)
    nc = proj.codomain.nvars
    basis = graph.working_basis(LEX)
    out = []
    for g in basis:
        if all(all(x == 0 for x in e[:nc]) for e in g):
            out.append({e[nc:]: c for e, c in g.items()})
    return out


def is_square_zero_ring_ext(data: SquareZeroExtensionData) -> bool:
    """Validate surjectivity, kernel generation, and I^2 = 0."""
    proj = data.projection
    total, target = data.total, proj.codomain
    for p in data.kernel_gens:
        if not target.is_zero_elem(proj.apply(dict(p))):
            return False
    kg = [dict(p) for p in data.kernel_gens]
    for i, p in enumerate(kg):
        for q in kg[i:]:
            if not total.is_zero_elem(total.mul(p, q)):
                return False
    graph = _graph_ring(proj)
    nc = target.nvars
    nd = total.nvars
    # surjectivity: each codomain variable rewrites into the domain block
    for i in range(nc):
        y = {tuple(1 if t == i else 0 for t in range(nc + nd)): target.carrier().one()}
        r = graph.nf(y, LEX)
        if any(any(x != 0 for x in e[:nc]) for e in r):
            return False
    # kernel generation: the eliminated ideal lies in (kernel gens) + I_total
    extended = data.total.extend_ideal(kg)
    for g in _kernel_ideal_gens(proj):
        if not extended.is_zero_elem(g):
            return False
    return True


@dataclass(frozen=True)
class FormalSplitSquareZero:
    """A + J with module generators as nilpotent variables.

    The monoid part stays formal: the structure rule is
    (m, j) |-> (alpha(m), alpha(m) j), applied linearly where needed.
    """

    base: PreLogRing
    module: ModulePresentation
    ring: RingPresentation
    projection: RingMap
    section: RingMap
    eps_vars: tuple[str, ...]


def split_square_zero(x: PreLogRing, j: ModulePresentation) -> FormalSplitSquareZero:
    if j.ring != x.ring:
        raise ValueError("module must live over the pre-log ring's ring")
    a = x.ring
    taken = set(a.vars)
    eps = []
    for g in j.gens:
        cand = f"e_{g}"
        k = 2
        while cand in taken:
            cand = f"e_{g}_{k}"
            k += 1
        taken.add(cand)
        eps.append(cand)
    names = list(a.vars) + eps
    n_a, n_e = a.nvars, len(eps)
    car = a.carrier()

    def lift(p: Poly) -> Poly:
        return {e + (0,) * n_e: c for e, c in p.items()}

    gens = [lift(g) for g in a.ideal_polys()]
    for row in j.relation_matrix():
        acc: Poly = {}
        for i, entry in enumerate(row):
            evar = {(0,) * n_a + tuple(1 if t == i else 0 for t in range(n_e)): car.one()}
            acc = polys.poly_add(acc, polys.poly_mul(lift(entry), evar, car), car)
        gens.append(acc)
    for i in range(n_e):
        for k in range(i, n_e):
            e = [0] * (n_a + n_e)
            e[n_a + i] += 1
            e[n_a + k] += 1
            gens.append({tuple(e): car.one()})
    ring = RingPresentation.make(a.coeff, names, gens)
    proj = RingMap.make(ring, a, [a.var(v) for v in a.vars] + [a.zero()] * n_e)
    sect = RingMap.make(a, ring, [ring.var(v) for v in a.vars])
    return FormalSplitSquareZero(x, j, ring, proj, sect, tuple(eps))


@dataclass(frozen=True)
class LogDerivation:
    """(D, delta): ring-generator images and monoid-generator images in J."""

    ring_images: tuple[tuple[int, ...], ...]
    monoid_images: tuple[tuple[int, ...], ...]


def log_derivations(x: PreLogRing, j: ModulePresentation,
                    base: PreLogMap | None = None) -> list[LogDerivation]:
    """All log derivations of (A, M) into J, as the kernel of one F_p system.

    Requires a finite prime-field algebra.  A derivation is a pair of a
    ring derivation D (Leibniz over the ideal) and an additive monoid map
    delta with D(alpha(m)) = alpha(m) delta(m); relative derivations also
    kill the base.  Every condition is F_p-linear in the images, which are
    canonical vectors of J.
    """
    a = x.ring
    if a.coeff.kind != "fp":
        raise Undetermined("derivation enumeration needs a finite prime-field algebra")
    fm = FiniteModule(j)
    car = a.carrier()
    nr, slots = a.nvars, a.nvars + x.monoid.ngens
    # each condition lists (slot, coefficient) terms whose sum vanishes in J;
    # slot i < nr holds D(x_i), slot nr + t holds delta(m_t)
    conds = [[(i, poly_derivative(g, i, car)) for i in range(nr)] for g in a.ideal_polys()]
    conds += [[(nr + t, a.const(c - d)) for t, (c, d) in enumerate(zip(u, v))]
              for u, v in x.monoid.relations]
    for t, alpha in enumerate(x.alpha):
        conds.append([(i, poly_derivative(dict(alpha), i, car)) for i in range(nr)]
                     + [(nr + t, a.neg(dict(alpha)))])
    if base is not None:
        r = base.domain.ring
        for v in r.vars:
            img = base.ring_map.apply(r.var(v))
            conds.append([(i, poly_derivative(img, i, car)) for i in range(nr)])
        conds += [[(nr + s, a.const(c)) for s, c in enumerate(word)]
                  for word in base.monoid_map.images]
    free = fm.free_coords()
    width, p = len(free), fm.p  # unknowns per slot
    rows = []
    for cond in conds:
        actions = [(slot, fm.scalar_action(coeff)[0]) for slot, coeff in cond if coeff]
        for amb in range(fm.dim_free):
            row = [0] * (slots * width)
            for slot, cols in actions:
                for fi in range(width):
                    row[slot * width + fi] = cols[fi][amb]
            rows.append(row)
    reduced, pivots = _echelon_mod_p(rows, p)
    unknown = sorted(set(range(slots * width)) - set(pivots))
    check_enumeration(p, len(unknown), "derivations")
    found = []
    for values in product(range(p), repeat=len(unknown)):
        z = [0] * (slots * width)
        for c, val in zip(unknown, values):
            z[c] = val
        for row, piv in zip(reduced, pivots):
            z[piv] = -sum(row[c] * z[c] for c in unknown) % p
        images = []
        for slot in range(slots):
            vec = [0] * fm.dim_free
            for fi, amb in enumerate(free):
                vec[amb] = z[slot * width + fi]
            images.append(tuple(vec))
        found.append(LogDerivation(tuple(images[:nr]), tuple(images[nr:])))
    return found


def classify_log_square_zero(f: PreLogMap, bound: int | None = None) -> str:
    """Theorem-level verdict: {log-square-zero | not | undetermined}.

    The underlying ring map must be a square-zero extension (kernel
    computed by elimination); the verdict is then strictness.
    """
    kernel = _kernel_ideal_gens(f.ring_map)
    data = SquareZeroExtensionData(
        f.ring_map.domain, f.ring_map,
        tuple(freeze_poly(g) for g in kernel))
    if not is_square_zero_ring_ext(data):
        raise ValueError("underlying ring map is not a square-zero extension")
    try:
        return "log-square-zero" if is_strict(f, bound=bound) else "not"
    except (Undetermined, IncompleteComputation):
        return "undetermined"


def derivation_str(d: LogDerivation, x: PreLogRing, j: ModulePresentation) -> str:
    parts = []
    for v, img in zip(x.ring.vars, d.ring_images):
        parts.append(f"D({v})=({','.join(str(c) for c in img)})")
    for g, img in zip(x.monoid.generators, d.monoid_images):
        parts.append(f"delta({g})=({','.join(str(c) for c in img)})")
    return "; ".join(parts) or "trivial"
