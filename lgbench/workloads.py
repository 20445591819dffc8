"""Seeded task streams for the four benchmark workloads.

A workload is a deck of task templates.  Each cycle of the stream holds
one fresh instance of every *regular* template plus one *cliff* template
(the cliffs take turns from a start the seed sets), so every cycle has
the same mix of sizes and the same number of known-hard inputs.  The
seed fixes names, constants, coefficients, matrices and the shuffle of
each cycle; inputs whose cost swings with a detail that is not the point
of the workload are the same for every seed (see README.md).  The
program only sees the generated inputs (workspace text, polynomials,
matrices).

A task is a plain dict that pickles cheaply:

- ``id``: unique within the stream, e.g. ``"c3.17"``;
- ``family``: the generator family, used to report failures by family;
- ``kind``: ``cli`` | ``gb`` | ``gbc`` | ``sat`` | ``integral`` |
  ``snf`` | ``quotient`` | ``gc``;
- ``cache``: ``clear`` (empty the module caches first, as a fresh
  ``loggeom`` process would) or ``keep`` (long-lived session);
- the call's inputs, and ``check``: the known-answer oracle spec that
  ``oracles.py`` applies to the output.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("cli-cold", "cli-warm", "groebner", "lattice")
CORPUS_DIR = os.path.join("src", "loggeom", "corpus")
GF_P = 32003


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(str(s) for s in salt))


def _cli(src, cmd, target, options=None, check=None, family=""):
    return {"kind": "cli", "src": src, "cmd": cmd, "target": target,
            "options": options or {}, "check": check or {}, "family": family}


# ---------------------------------------------------------------------------
# workspace families (the .lg text a user would write)

def fold_ws(s: str, k: int, a: int) -> str:
    """The fold map N^k -> N over Z, alpha sending every generator to a."""
    xs = [f"x{i}_{s}" for i in range(k)]
    return (
        f"monoid N{k}_{s} {{ gens: {' '.join(xs)}; rels: ; }}\n"
        f"monoid N1_{s} {{ gens: y_{s}; rels: ; }}\n"
        f"ring Z_{s} {{ coeff: int; vars: ; ideal: ; }}\n"
        f"prelog D_{s} {{ ring: Z_{s}; monoid: N{k}_{s}; "
        f"alpha: {', '.join(f'{x} -> {a}' for x in xs)}; units: builtin; }}\n"
        f"prelog C_{s} {{ ring: Z_{s}; monoid: N1_{s}; alpha: y_{s} -> {a}; units: builtin; }}\n"
        f"map F_{s} {{ from: D_{s}; to: C_{s}; ring: ; "
        f"monoid: {', '.join(f'{x} -> 1y_{s}' for x in xs)}; }}\n")


def thick_ws(s: str, p: int, k: int, c: int) -> str:
    """F_p[u]/(u^k) with the log structure u, its reduction, two modules."""
    u = f"u_{s}"
    return (
        f"monoid Q_{s} {{ gens: {u}; rels: ; }}\n"
        f"ring K_{s} {{ coeff: fp({p}); vars: ; ideal: ; }}\n"
        f"ring A_{s} {{ coeff: fp({p}); vars: {u}; ideal: {u}^{k}; }}\n"
        f"prelog TH_{s} {{ ring: A_{s}; monoid: Q_{s}; alpha: {u} -> {u}; units: builtin; }}\n"
        f"prelog PT_{s} {{ ring: K_{s}; monoid: Q_{s}; alpha: {u} -> 0; units: builtin; }}\n"
        f"map PR_{s} {{ from: TH_{s}; to: PT_{s}; ring: {u} -> 0; monoid: {u} -> 1{u}; }}\n"
        f"module JA_{s} {{ ring: A_{s}; gens: j_{s}; rels: ; }}\n"
        f"module JB_{s} {{ ring: A_{s}; gens: p_{s} q_{s}; rels: ({u}, {c}), (0, {u}); }}\n"
        f"monoid B_{s} {{ gens: b_{s}; rels: ; }}\n"
        f"prelog BASE_{s} {{ ring: K_{s}; monoid: B_{s}; alpha: b_{s} -> 0; units: builtin; }}\n"
        f"map UNIT_{s} {{ from: BASE_{s}; to: TH_{s}; ring: ; monoid: b_{s} -> {k}{u}; }}\n")


def toric_ws(s: str, coeff: str) -> str:
    """The A1 singularity xy = z^2 with its toric chart a + b = 2c."""
    x, y, z = f"x_{s}", f"y_{s}", f"z_{s}"
    return (
        f"monoid T_{s} {{ gens: a_{s} b_{s} c_{s}; rels: 1a_{s}+1b_{s}+0c_{s} = 0a_{s}+0b_{s}+2c_{s}; }}\n"
        f"ring R_{s} {{ coeff: {coeff}; vars: {x} {y} {z}; ideal: {x}*{y} - {z}^2; }}\n"
        f"prelog X_{s} {{ ring: R_{s}; monoid: T_{s}; "
        f"alpha: a_{s} -> {x}, b_{s} -> {y}, c_{s} -> {z}; units: none; }}\n")


def tame_ws(s: str, char: int) -> str:
    """The standard log point over Q or F_p, ready for a root adjunction."""
    coeff = "rat" if char == 0 else f"fp({char})"
    return (
        f"monoid P_{s} {{ gens: m_{s}; rels: ; }}\n"
        f"ring K_{s} {{ coeff: {coeff}; vars: ; ideal: ; }}\n"
        f"prelog B_{s} {{ ring: K_{s}; monoid: P_{s}; alpha: m_{s} -> 0; units: none; }}\n")


def chart_ws(s: str, m: int, n: int, a: int) -> str:
    """The n-th-root chart x -> n t of t^n = a over Z (m = 1) or Z[1/m]."""
    coeff = "int" if m == 1 else f"int_inv({m})"
    t = f"t_{s}"
    return (
        f"monoid P_{s} {{ gens: x_{s}; rels: ; }}\n"
        f"monoid M_{s} {{ gens: {t}; rels: ; }}\n"
        f"ring R_{s} {{ coeff: {coeff}; vars: ; ideal: ; }}\n"
        f"ring A_{s} {{ coeff: {coeff}; vars: {t}; ideal: {t}^{n} - {a}; }}\n"
        f"prelog X_{s} {{ ring: R_{s}; monoid: P_{s}; alpha: x_{s} -> {a}; units: builtin; }}\n"
        f"prelog Y_{s} {{ ring: A_{s}; monoid: M_{s}; alpha: {t} -> {t}; units: none; }}\n"
        f"map CH_{s} {{ from: X_{s}; to: Y_{s}; ring: ; monoid: x_{s} -> {n}{t}; }}\n")


def _exp(vec, gens):
    if not any(vec):
        return "0"
    return "+".join(f"{c}{g}" for c, g in zip(vec, gens))


def monoid_ws(s: str, rels, ngens: int) -> str:
    gens = [f"g{i}_{s}" for i in range(ngens)]
    text = ", ".join(f"{_exp(u, gens)} = {_exp(v, gens)}" for u, v in rels)
    return f"monoid G_{s} {{ gens: {' '.join(gens)}; rels: {text}; }}\n"


def random_relations(rng, ngens: int, nrels: int, top: int):
    rels = []
    for _ in range(nrels):
        u = tuple(rng.randint(0, top) for _ in range(ngens))
        v = tuple(rng.randint(0, top) for _ in range(ngens))
        rels.append((u, v))
    return rels


def _prime_factors(n: int):
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            if d not in out:
                out.append(d)
            n //= d
        d += 1
    if n > 1 and n not in out:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# cli tasks per family; each returns a list of tasks on one fresh workspace

def fold_tasks(s, variant, k, cmds):
    a = (2, 3)[variant % 2]
    src = fold_ws(s, k, a)
    fam = f"fold-N{k}"
    targets = {"repletion": f"F_{s}", "repab": f"F_{s}", "unramified": f"F_{s}",
               "check-log-etale": f"F_{s}", "classify-sqz": f"F_{s}",
               "logdiff": f"D_{s}", "logdiag": f"D_{s}", "logify": f"D_{s}",
               "gp": f"N{k}_{s}"}
    out = []
    for cmd in cmds:
        check = {"type": "gp", "ngens": k, "rels": []} if cmd == "gp" else {}
        if cmd == "repletion":
            check = {"type": "fold-repletion"}
        out.append(_cli(src, cmd, targets[cmd], check=check, family=fam))
    return out


THICK_CMDS = ("classify-sqz", "derivations-JA", "derivations-JB", "unramified",
              "logdiff", "logdiag", "logify", "repab", "repletion")


def thick_tasks(s, variant, p, k, cmds=THICK_CMDS):
    c = 1 + variant % (p - 1) if p > 2 else 1
    src = thick_ws(s, p, k, c)
    fam = f"thick-F{p}-u{k}"
    out = []
    for cmd in cmds:
        if cmd == "derivations-JA":
            out.append(_cli(src, "derivations", f"TH_{s}",
                            {"module": f"JA_{s}", "over": f"UNIT_{s}"},
                            {"type": "derivations"}, fam))
        elif cmd == "derivations-JB":
            out.append(_cli(src, "derivations", f"TH_{s}", {"module": f"JB_{s}"},
                            {"type": "derivations"}, fam))
        else:
            target = {"classify-sqz": f"PR_{s}", "unramified": f"UNIT_{s}",
                      "repab": f"PR_{s}", "repletion": f"PR_{s}"}.get(cmd, f"TH_{s}")
            check = {"type": "verdict", "expect": "log-square-zero"} \
                if cmd == "classify-sqz" else {}
            out.append(_cli(src, cmd, target, check=check, family=fam))
    return out


def toric_tasks(s, coeff, cmds):
    src = toric_ws(s, coeff)
    fam = f"toric-{coeff}"
    out = []
    for cmd in cmds:
        if cmd == "gp":
            out.append(_cli(src, "gp", f"T_{s}",
                            check={"type": "gp", "ngens": 3,
                                   "rels": [[[1, 1, 0], [0, 0, 2]]]}, family=fam))
        else:
            out.append(_cli(src, cmd, f"X_{s}", family=fam))
    return out


def tame_task(s, rng):
    char = rng.choice((0, 2, 3, 5, 7))
    n = rng.choice((2, 3, 4, 5, 6, 8, 9))
    return _cli(tame_ws(s, char), "adjoin-root", f"B_{s}", {"degree": n},
                {"type": "tame", "char": char, "n": n}, "tame-root")


# (m, n) of the root charts: over Z; over Z[1/m] with every prime of n
# inverted; over Z[1/m] with one left out.  They cost about the median of
# a cli sweep, so they are fixed and the seed draws only the constant a.
CHARTS = ((1, 3), (6, 6), (3, 2))


def chart_tasks(s, rng, m, n, cmds=("check-log-etale", "unramified")):
    a = rng.choice((3, 7, 11, 13))
    src = chart_ws(s, m, n, a)
    ok = m > 1 and all(m % q == 0 for q in _prime_factors(n))
    fam = "root-chart-Z" if m == 1 else "root-chart-Z[1/m]"
    return [_cli(src, cmd, f"CH_{s}", check={"type": "chart", "pass": ok},
                 family=fam) for cmd in cmds]


def gp_task(s, rng):
    ngens = rng.randint(2, 4)
    rels = random_relations(rng, ngens, rng.randint(1, 3), 3)
    return _cli(monoid_ws(s, rels, ngens), "gp", f"G_{s}",
                check={"type": "gp", "ngens": ngens,
                       "rels": [[list(u), list(v)] for u, v in rels]},
                family="gp-presented")


# ---------------------------------------------------------------------------
# cli-cold

FOLD_FAST = ("repletion", "unramified", "check-log-etale", "classify-sqz",
             "logdiff", "logify", "gp")


def _cold_regular(cycle, rng):
    """Every regular template once; names carry the cycle and slot."""
    out = []

    def sfx():
        return f"c{cycle}n{len(out)}"

    out += fold_tasks(sfx(), cycle, 2, FOLD_FAST + ("repab", "logdiag"))
    out += fold_tasks(sfx(), cycle, 3, FOLD_FAST)
    for p, k in ((2, 2), (3, 2), (5, 2), (5, 2)):
        out += thick_tasks(sfx(), cycle + len(out), p, k)
    for p in (2, 3):
        out += thick_tasks(sfx(), cycle, p, 3,
                           ("derivations-JA", "derivations-JB", "unramified",
                            "logdiff", "logdiag", "logify", "repab", "repletion"))
    # known defect: builtin units of F_2[u]/(u^4) fail at parse time
    out += thick_tasks(sfx(), cycle, 2, 4, (rng.choice(THICK_CMDS),))
    for coeff in ("rat", "int", "fp(3)", "fp(2)"):
        out += toric_tasks(sfx(), coeff, ("gp",))
    out += toric_tasks(sfx(), "fp(2)", ("logdiff",))
    for _ in range(5):
        out.append(tame_task(sfx(), rng))
    for m, n in CHARTS:
        out += chart_tasks(sfx(), rng, m, n)
    for _ in range(4):
        out.append(gp_task(sfx(), rng))
    return out


def _cold_cliffs(s, cycle):
    """Inputs past a known cliff; at today's speed they miss the deadline."""
    return [
        fold_tasks(s, cycle, 3, ("repab",)),
        fold_tasks(s, cycle, 3, ("logdiag",)),
        toric_tasks(s, "rat", ("logdiag",)),
        toric_tasks(s, "int", ("logdiag",)),
        toric_tasks(s, "fp(3)", ("logdiag",)),
        thick_tasks(s, cycle, 5, 4, ("logify",)),
        thick_tasks(s, cycle, 7, 3, ("logdiff",)),
    ]


# ---------------------------------------------------------------------------
# cli-warm

def _fixture_tasks(root):
    out = []
    corpus = os.path.join(root, CORPUS_DIR)
    for name in sorted(os.listdir(corpus)):
        if not name.endswith(".fixtures.json"):
            continue
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(os.path.join(corpus, spec["file"]), encoding="utf-8") as fh:
            src = fh.read()
        for run in spec["runs"]:
            out.append(_cli(src, run["command"], run["target"], run.get("options", {}),
                            {"type": "fixture", "report": run["report"]},
                            f"fixture-{spec['file']}"))
    return out


def _warm_generated(seed):
    """A seeded set of workspaces, each queried by every command that applies."""
    rng = _rng(seed, "warm")
    out = []
    out += fold_tasks("w0", 0, 2, FOLD_FAST + ("repab", "logdiag"))
    out += thick_tasks("w1", 0, 3, 2)
    out += thick_tasks("w2", 0, 2, 4)  # known parse-time failure, every command
    out += toric_tasks("w3", "fp(2)", ("gp", "logdiff"))
    s = "w4"
    char = rng.choice((0, 2, 3, 5, 7))
    for n in (2, 3, 6):
        out.append(_cli(tame_ws(s, char), "adjoin-root", f"B_{s}", {"degree": n},
                        {"type": "tame", "char": char, "n": n}, "tame-root"))
    out += chart_tasks("w5", rng, *CHARTS[0])
    out += chart_tasks("w6", rng, *CHARTS[1])
    out.append(gp_task("w7", rng))
    return out


# ---------------------------------------------------------------------------
# groebner

def _var(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def cyclic(n):
    gens = []
    for d in range(1, n):
        p = {}
        for s in range(n):
            e = [0] * n
            for t in range(d):
                e[(s + t) % n] += 1
            p[tuple(e)] = p.get(tuple(e), 0) + 1
        gens.append(p)
    gens.append({tuple([1] * n): 1, (0,) * n: -1})
    return gens


def katsura(n):
    size = n + 1
    gens = []
    for m in range(n):
        p = {}
        for l in range(-n, n + 1):
            k = m - l
            if abs(k) <= n:
                e = tuple(a + b for a, b in zip(_var(size, abs(l)), _var(size, abs(k))))
                p[e] = p.get(e, 0) + 1
        e = _var(size, m)
        p[e] = p.get(e, 0) - 1
        gens.append({e: c for e, c in p.items() if c})
    p = {_var(size, 0): 1}
    for l in range(1, n + 1):
        p[_var(size, l)] = 2
    p[(0,) * size] = -1
    gens.append(p)
    return gens


def permuted(gens, rng):
    """Rename the variables and reorder the generators, both drawn from rng."""
    n = len(next(iter(gens[0])))
    perm = list(range(n))
    rng.shuffle(perm)
    out = [{tuple(e[perm[i]] for i in range(n)): c for e, c in g.items()} for g in gens]
    rng.shuffle(out)
    return out


def random_system(rng, shapes, nvars=3, npolys=3, degree=2, terms=4, coeff=5):
    """Dense random polynomials: monomials from shapes, coefficients from rng.

    Across shapes the GB cost spreads smoothly over 0.3-100 ms; for one
    shape, generic coefficients hardly move it.
    """
    out = []
    for _ in range(npolys):
        p = {}
        for _ in range(terms):
            e = [0] * nvars
            for _ in range(shapes.randint(0, degree)):
                e[shapes.randrange(nvars)] += 1
            p[tuple(e)] = rng.randint(-coeff, coeff) or 1
        out.append(p)
    return out


def _encode_poly(p):
    return sorted([list(e), c] for e, c in p.items())


def gb_task(name, system, dom, order, rng, cofactors=False):
    gens = permuted(system, rng)
    check = {"type": "gb", "dom": dom, "order": order}
    return {"kind": "gbc" if cofactors else "gb", "family": name,
            "gens": [_encode_poly(g) for g in gens], "dom": dom, "order": order,
            "check": check}


def sat_task(rng, n):
    """Z[1/n] saturation through RingPresentation.working_basis."""
    a, b, c, d = (rng.randint(1, 6) for _ in range(4))
    ideal = [{(1, 1): a * n, (0, 0): -b}, {(2, 0): c, (0, 1): -d * n}]
    return {"kind": "sat", "family": "saturation-Z[1/n]", "n": n,
            "vars": ["x", "y"], "ideal": [_encode_poly(g) for g in ideal],
            "check": {"type": "sat"}}


def chain_monoid(kind, n):
    """Binomial chains: 'rnc' 2g_i = g_(i-1) + g_(i+1); 'ratio' 2g_i = 3g_(i+1)."""
    rels = []
    if kind == "rnc":
        for i in range(1, n - 1):
            u = [0] * n
            v = [0] * n
            u[i] = 2
            v[i - 1] = v[i + 1] = 1
            rels.append((u, v))
        integral = n <= 3
    else:
        for i in range(n - 1):
            u = [0] * n
            v = [0] * n
            u[i] = 2
            v[i + 1] = 3
            rels.append((u, v))
        integral = True
    return rels, integral


def integral_task(kind, n):
    rels, integral = chain_monoid(kind, n)
    return {"kind": "integral", "family": f"chain-{kind}-{n}", "ngens": n,
            "rels": rels, "check": {"type": "integral", "expect": integral}}


def _gb_regular(rng):
    # The variable order and generator order of a system change its cost
    # up to 20x, and the monomials of a random system change it 300x, so
    # these stay the same in every cycle and for every seed.  The seed draws
    # the coefficients of the random systems over GF(p) and Q.  Over Z the
    # coefficients move the cost 2x at the 90th percentile, so they are
    # fixed, as are the saturations, which cost about the median.
    fixed = _rng("named")
    shapes = _rng("shapes")
    out = []
    for dom in ("F", "Q", "Z"):
        for order in ("degrevlex", "lex"):
            out.append(gb_task("cyclic-3", cyclic(3), dom, order, fixed))
            out.append(gb_task("cyclic-4", cyclic(4), dom, order, fixed))
            out.append(gb_task("katsura-2", katsura(2), dom, order, fixed))
        out.append(gb_task("cyclic-4", cyclic(4), dom, "degrevlex", fixed, True))
        out.append(gb_task("katsura-2", katsura(2), dom, "degrevlex", fixed, True))
        for i in range(6):
            if dom == "Z":  # smaller inputs: over Z the cost tail is much longer
                system = random_system(shapes, shapes, terms=3, coeff=3)
                order, cof = "degrevlex", False
            else:
                system = random_system(rng, shapes)
                order, cof = ("lex" if i == 5 else "degrevlex"), i == 4
            out.append(gb_task(f"random-{dom}", system, dom, order, shapes, cofactors=cof))
    for dom in ("F", "Q"):
        out.append(gb_task("katsura-3", katsura(3), dom, "degrevlex", fixed))
        out.append(gb_task("katsura-4", katsura(4), dom, "degrevlex", fixed))
    for n in (2, 3, 6, 10, 2, 3):
        out.append(sat_task(fixed, n))
    for n in (3, 4, 5):
        out.append(integral_task("rnc", n))
    for n in (2, 3, 4, 5):
        out.append(integral_task("ratio", n))
    return out


def _gb_cliffs():
    fixed = _rng("cliff")
    return [
        [gb_task("cyclic-5", cyclic(5), "F", "degrevlex", fixed)],
        [gb_task("katsura-4", katsura(4), "Z", "degrevlex", fixed)],
        [gb_task("katsura-4", katsura(4), "F", "lex", fixed)],
        [gb_task("cyclic-5", cyclic(5), "Q", "lex", fixed)],
        [integral_task("rnc", 6)],
        [integral_task("ratio", 6)],
        [integral_task("rnc", 7)],
    ]


# ---------------------------------------------------------------------------
# lattice

LATTICE_SHAPES = (  # (rows, cols, entry bound): reduce in well under 5 ms
    (4, 4, 3), (5, 5, 5), (6, 6, 2), (6, 6, 3), (7, 7, 2), (10, 10, 1),
    (4, 6, 5), (6, 4, 5), (5, 8, 3), (8, 4, 9), (3, 8, 9), (3, 10, 9), (2, 12, 50),
)
LATTICE_TAIL = ((8, 8, 3, "quotient"), (8, 5, 9, "snf"))  # a few percent blow up
LATTICE_CLIFF = (8, 8, 20)  # nearly every instance blows up
LATTICE_TURNS = 8  # the tail and cliff matrices repeat every 8 cycles
LATTICE_KINDS = ("snf", "quotient", "gc")
LATTICE_REPEATS = 10


def lattice_task(rng, rows, cols, bound, kind):
    mat = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return {"kind": kind, "family": f"{kind}-{rows}x{cols}-e{bound}",
            "rows": mat, "ncols": cols, "check": {"type": kind}}


def _lattice_regular(cycle, rng):
    out = [lattice_task(rng, *shape, kind) for shape in LATTICE_SHAPES
           for kind in LATTICE_KINDS for _ in range(LATTICE_REPEATS)]
    # One tail matrix per cycle.  Whether it blows up is a coin toss of a
    # few percent, and the largest one that finishes sets the run's peak
    # RSS, so the tail matrices are the same for every seed and repeat
    # every LATTICE_TURNS cycles: runs of different length share them.
    turn = cycle % LATTICE_TURNS
    out.append(lattice_task(_rng("tail", turn), *LATTICE_TAIL[turn % len(LATTICE_TAIL)]))
    return out


def _lattice_cliffs(cycle):
    rng = _rng("cliff", cycle % LATTICE_TURNS)
    return [[lattice_task(rng, *LATTICE_CLIFF, kind)] for kind in LATTICE_KINDS]


# ---------------------------------------------------------------------------

class Plan:
    """The seeded task stream of one workload.

    ``cycle(c)`` is deterministic in (workload, seed, c).  For cli-warm
    every cycle is one sweep over the same queries in a new order.
    """

    def __init__(self, workload: str, seed: int, root: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.root = root
        self.cache = "keep" if workload == "cli-warm" else "clear"
        self.warm = []
        if workload == "cli-warm":
            self.warm = _fixture_tasks(root) + _warm_generated(seed)
            for i, task in enumerate(self.warm):
                task["id"] = f"w{i}"
                task["cache"] = "keep"
        self._cycles = {}

    def cycle(self, c: int) -> list[dict]:
        if c not in self._cycles:
            self._cycles[c] = self._make(c)
        return self._cycles[c]

    def _make(self, c):
        rng = _rng(self.seed, self.workload, c)
        if self.workload == "cli-warm":
            tasks = list(self.warm)
            rng.shuffle(tasks)
            return tasks
        if self.workload == "cli-cold":
            tasks = _cold_regular(c, rng)
            cliffs = _cold_cliffs(f"c{c}x", c)
        elif self.workload == "groebner":
            tasks = _gb_regular(rng)
            cliffs = _gb_cliffs()
        else:
            tasks = _lattice_regular(c, rng)
            cliffs = _lattice_cliffs(c)
        # every cliff times out, so which one a cycle gets changes no metric;
        # the seed rotates them so that every cliff runs in short runs too
        tasks += cliffs[(self.seed + c) % len(cliffs)]
        for i, task in enumerate(tasks):
            task["id"] = f"c{c}.{i}"
            task["cache"] = self.cache
        rng.shuffle(tasks)
        return tasks

