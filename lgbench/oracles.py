"""Known-answer checks for every task output.

``check(task, output)`` returns ``None`` when the output is right and a
one-line reason when it is not.  The checks are independent of the code
under test where that is cheap (brute-force determinantal divisors,
exact matrix products, sympy's reduced Groebner bases, closed-form
verdicts); the derivation count is compared with the hom count that
loggeom computes by linear algebra, a different path from enumeration.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from workloads import GF_P

MAX_MINORS = 400  # brute-force determinantal divisors only below this many minors


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()[:16]


# -- integer linear algebra, written independently of loggeom.intlin -----------

def determinant(m) -> int:
    """Bareiss fraction-free determinant."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank_q(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank, col = 0, 0
    ncols = len(a[0]) if a else 0
    while rank < len(a) and col < ncols:
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def _gcd_minors(rows, k, ncols) -> int:
    g = 0
    for ris in combinations(range(len(rows)), k):
        for cis in combinations(range(ncols), k):
            g = gcd(g, determinant([[rows[i][j] for j in cis] for i in ris]))
    return g


def quotient_invariants(rows, ncols):
    """(rank, torsion) of Z^ncols / rowspan, or (rank, None) when too big.

    torsion is the list of invariant factors > 1, from determinantal
    divisors d_k = gcd of k x k minors: factor_k = d_k / d_(k-1).
    """
    rows = [list(r) for r in rows if any(r)]
    r = rank_q(rows)
    free = ncols - r
    count = sum(comb_pair(len(rows), ncols, k) for k in range(1, r + 1))
    if count <= MAX_MINORS:
        divisors = [1] + [_gcd_minors(rows, k, ncols) for k in range(1, r + 1)]
        factors = [divisors[k] // divisors[k - 1] for k in range(1, r + 1)]
        return free, [f for f in factors if f > 1]
    return free, None


def top_divisor(rows, ncols):
    rows = [list(r) for r in rows if any(r)]
    r = rank_q(rows)
    if comb_pair(len(rows), ncols, r) > MAX_MINORS:
        return None
    return _gcd_minors(rows, r, ncols) if r else 1


def comb_pair(m, n, k) -> int:
    from math import comb
    return comb(m, k) * comb(n, k)


def _matmul(a, b):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# -- polynomials --------------------------------------------------------------

def _decode(p, dom):
    out = {}
    for e, c in p:
        c = Fraction(c) if dom == "Q" else int(c)
        out[tuple(e)] = c % GF_P if dom == "F" else c
    return {e: c for e, c in out.items() if c}


def _pmul_add(acc, f, g, dom):
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = acc.get(e, 0) + c1 * c2
            if dom == "F":
                c %= GF_P
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)
    return acc


_SYMPY_CACHE: dict = {}


def sympy_reduced_basis(gens, dom, order):
    """Monic reduced basis as a set of frozen polys, or None without sympy."""
    try:
        import sympy
    except ImportError:
        return None
    key = (frozenset(tuple(sorted(g.items())) for g in gens), dom, order)
    if key in _SYMPY_CACHE:
        return _SYMPY_CACHE[key]
    n = len(next(iter(gens[0])))
    xs = sympy.symbols(f"x0:{n}")
    exprs = [_sym_poly(g, xs, sympy) for g in gens]
    kwargs = {"order": "grevlex" if order == "degrevlex" else "lex"}
    if dom == "F":
        kwargs["modulus"] = GF_P
    else:
        kwargs["domain"] = "QQ"
    basis = sympy.groebner(exprs, *xs, **kwargs)
    out = set()
    for poly in basis.polys:
        terms = {}
        lc = poly.LC(order=kwargs["order"])
        for mon, c in poly.terms():
            if dom == "F":
                v = int(c) * pow(int(lc), -1, GF_P) % GF_P
            else:
                q = sympy.Rational(c) / sympy.Rational(lc)
                v = Fraction(int(q.p), int(q.q))
            terms[tuple(mon)] = v
        out.add(tuple(sorted(terms.items())))
    _SYMPY_CACHE[key] = out
    return out


def _sym_poly(g, xs, sympy):
    total = 0
    for e, c in g.items():
        coef = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) \
            else sympy.Integer(c)
        total += coef * sympy.Mul(*[x ** k for x, k in zip(xs, e)])
    return total


def _reduces_to_zero(f, basis, dom, order):
    from loggeom import polys
    from loggeom.polys import DEGREVLEX, LEX, QQ, ZZ, PrimeField
    domain = {"F": PrimeField(GF_P), "Q": QQ, "Z": ZZ}[dom]
    return not polys.nf(f, basis, LEX if order == "lex" else DEGREVLEX, domain)


def check_gb(task, out):
    dom, order = task["dom"], task["order"]
    gens = [_decode(g, dom) for g in task["gens"]]
    basis = [_decode(b, dom) for b in out["basis"]]
    if not basis:
        return "empty basis for a nonzero ideal"
    for g in gens:
        if not _reduces_to_zero(g, basis, dom, order):
            return "an input generator does not reduce to zero"
    if "cofactors" in out:
        for b, row in zip(basis, out["cofactors"]):
            acc = {}
            for g, c in zip(gens, row):
                _pmul_add(acc, _decode(c, dom), g, dom)
            if acc != b:
                return "cofactor certificate does not reproduce a basis element"
    if dom in ("F", "Q"):
        ref = sympy_reduced_basis(gens, dom, order)
        if ref is not None and set(tuple(sorted(b.items())) for b in basis) != ref:
            return "field basis differs from sympy's reduced basis"
    return None


# -- per-kind checks ------------------------------------------------------------

def _group_check(rows, ncols, rank, torsion):
    want_rank, want_torsion = quotient_invariants(rows, ncols)
    if rank != want_rank:
        return f"rank {rank}, determinantal rank says {want_rank}"
    if want_torsion is not None:
        if list(torsion) != want_torsion:
            return f"torsion {torsion}, determinantal divisors say {want_torsion}"
        return None
    top = top_divisor(rows, ncols)
    if top is not None and prod(torsion) != top:
        return f"torsion product {prod(torsion)}, top divisor {top}"
    return None


def check_snf(task, out):
    a = task["rows"]
    u, d, v = out["u"], out["d"], out["v"]
    if _matmul(_matmul(u, a), v) != d:
        return "u*a*v != d"
    if _matmul(u, out["u_inv"]) != _identity(len(u)) or \
            _matmul(v, out["v_inv"]) != _identity(len(v)):
        return "transform is not unimodular (inverse check failed)"
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j and x:
                return "d is not diagonal"
        if i < len(row):
            diag.append(row[i])
    nz = [x for x in diag if x]
    if any(x < 0 for x in nz) or diag[:len(nz)] != nz:
        return "diagonal has negative entries or zeros before nonzeros"
    if any(nz[i + 1] % nz[i] for i in range(len(nz) - 1)):
        return "divisibility chain broken"
    want = _group_check(a, len(a[0]), len(a[0]) - len(nz), [x for x in nz if x > 1])
    return want


def check_quotient(task, out):
    rows, n = task["rows"], task["ncols"]
    reason = _group_check(rows, n, out["rank"], out["torsion"])
    if reason:
        return reason
    torsion = out["torsion"]
    for row in rows:
        image = [sum(t[j] * row[j] for j in range(n)) for t in out["to_canonical"]]
        for i, x in enumerate(image):
            if (x % torsion[i] if i < len(torsion) else x) != 0:
                return "a relation does not vanish in the canonical coordinates"
    return None


def check_gc(task, out):
    return _group_check(task["rows"], task["ncols"], out["rank"], out["torsion"])


def check_sat(task, out):
    from loggeom.polys import DEGREVLEX, ZZ
    from loggeom import polys
    basis = [{tuple(e): int(c) for e, c in b} for b in out["basis"]]
    for g in task["ideal"]:
        f = {tuple(e): int(c) for e, c in g}
        if polys.nf(f, basis, DEGREVLEX, ZZ):
            return "an input generator is not in the saturation"
    return None


def _derivation_count(task):
    from loggeom.diffs import log_differentials
    from loggeom.language import parse
    from loggeom.rings import hom_count
    ws = parse(task["src"])
    x = ws.get(task["target"], "prelog")
    j = ws.get(task["options"]["module"], "module")
    base = ws.get(task["options"]["over"], "map") if task["options"].get("over") else None
    return hom_count(log_differentials(x, base=base), j)


def check_cli(task, text):
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    chk = task.get("check", {})
    kind = chk.get("type")
    if kind == "fixture":
        return None if report == chk["report"] else "report differs from the stored fixture"
    if report.get("command") != task["cmd"] or "result" not in report:
        return "report has the wrong command or no result"
    res = report["result"]
    if kind == "gp":
        rows = [[a - b for a, b in zip(u, v)] for u, v in chk["rels"]]
        return _group_check(rows, chk["ngens"], res["rank"], res["torsion"])
    if kind == "fold-repletion":
        return None if res["is_exact"] is False else "the fold map reported exact"
    if kind == "verdict":
        return None if res["verdict"] == chk["expect"] else f"verdict {res['verdict']}"
    if kind == "tame":
        expect = chk["char"] == 0 or gcd(chk["n"], chk["char"]) == 1
        got = res["chart"]["overall"]
        return None if got == expect else f"tame root verdict {got}, expected {expect}"
    if kind == "chart":
        got = res["overall"] if task["cmd"] == "check-log-etale" else res["vanishes"]
        return None if got == chk["pass"] else f"root chart verdict {got}, expected {chk['pass']}"
    if kind == "derivations":
        if res["count"] != len(res["derivations"]):
            return "count disagrees with the listed derivations"
        want = _derivation_count(task)
        return None if res["count"] == want else f"{res['count']} derivations, hom count {want}"
    return None


def check(task, output: str):
    """None when the output is right, else a reason."""
    kind = task["kind"]
    if kind == "cli":
        return check_cli(task, output)
    out = json.loads(output)
    if kind in ("gb", "gbc"):
        return check_gb(task, out)
    if kind == "sat":
        return check_sat(task, out)
    if kind == "integral":
        want = task["check"]["expect"]
        return None if out["integral"] == want else f"is_integral {out['integral']}, expected {want}"
    if kind == "snf":
        return check_snf(task, out)
    if kind == "quotient":
        return check_quotient(task, out)
    if kind == "gc":
        return check_gc(task, out)
    return f"no oracle for kind {kind!r}"
