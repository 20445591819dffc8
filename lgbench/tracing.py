"""Spans and counters around loggeom's public functions, from outside src/.

``Tracer.install`` replaces each listed function with a wrapper in the
module that defines it, in every loggeom module that imported it by
name, and (for ``working_basis``) on the class.  A span is
``(span id, name, start, end, parent span id, task id)``; spans stay in
memory for one task and travel back to the driver with its result.
Hot leaves of the Buchberger loop (``spoly``, ``gpoly``, ``nf``,
``nf_with_cofactors``) only bump counters, so tracing stays cheap enough
to compare against the untraced run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from math import comb

# (module, function) pairs that get a span; self time and calls are reported
SPANNED = (
    ("polys", "groebner"), ("polys", "groebner_with_cofactors"), ("polys", "_autoreduce"),
    ("intlin", "snf_with_inverses"), ("intlin", "quotient_group"),
    ("rings", "RingPresentation.working_basis"), ("rings", "fitting_ideal"),
    ("rings", "is_unit"), ("rings", "hom_count"),
    ("monoids", "group_completion"), ("monoids", "repletion"), ("monoids", "is_integral"),
    ("logrings", "builtin_units"), ("logrings", "logify"), ("logrings", "unit_pullback"),
    ("diffs", "log_differentials"), ("diffs", "indecomposables"),
    ("diffs", "replete_abelianization"),
    ("deform", "log_derivations"),
    ("etale", "check_charted_log_etale"), ("etale", "adjoin_root"),
    ("language", "parse"), ("cli", "run_command"), ("cli", "dump_report"),
)
# counted only: (module, function)
COUNTED = (("polys", "spoly"), ("polys", "gpoly"), ("polys", "nf"),
           ("polys", "nf_with_cofactors"),
           ("monoids", "_word_ring"), ("monoids", "_lattice_ring"))


def span_name(module: str, fn: str) -> str:
    return f"{module}.{fn.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.stack: list[tuple[int, str]] = []
        self.paused = False
        self._sid = 0
        self.begin(None, {})

    # -- per task -----------------------------------------------------------

    def begin(self, task_id, caches) -> None:
        self.task = task_id
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._growth: Counter = Counter()
        # identities of cache values made by earlier tasks: a lookup that
        # returns one of these is a cross-task hit
        self.known = {name: {id(v) for v in c.values()} for name, c in caches.items()}

    def end(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "peaks": self.peaks}

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, -1):
            self.peaks[key] = value

    # -- wrappers -------------------------------------------------------------

    def spanned(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer._sid += 1
            sid = tracer._sid
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.task))
            if after is not None:
                tracer.paused = True
                try:
                    after(tracer, sid, args, kwargs, result)
                finally:
                    tracer.paused = False
            return result
        return wrapper

    def counted(self, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not tracer.paused:
                after(tracer, args, result)
            return result
        return wrapper

    def install(self) -> None:
        from loggeom import rings
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "loggeom" or n.startswith("loggeom."))]
        for module, fn in SPANNED:
            mod = sys.modules[f"loggeom.{module}"]
            name = span_name(module, fn)
            if fn == "RingPresentation.working_basis":
                orig = rings.RingPresentation.working_basis
                rings.RingPresentation.working_basis = self.spanned(
                    name, orig, _AFTER.get(name))
                continue
            orig = getattr(mod, fn)
            _replace(modules, orig, self.spanned(name, orig, _AFTER.get(name)))
        for module, fn in COUNTED:
            orig = getattr(sys.modules[f"loggeom.{module}"], fn)
            _replace(modules, orig, self.counted(orig, _COUNT[fn]))


def _replace(modules, orig, wrapped) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


# -- counters read at the layer boundaries --------------------------------------

def _cache_lookup(tracer, cache, result):
    tracer.counters[f"{cache}.lookups"] += 1
    if id(result) in tracer.known.get(cache, ()):
        tracer.counters[f"{cache}.hits"] += 1


def _count_spoly(tracer, args, result):
    tracer.counters["polys.pairs"] += 1


def _count_gpoly(tracer, args, result):
    if result is not None:
        tracer.counters["polys.pairs"] += 1


def _count_nf(tracer, args, result):
    tracer.counters["polys.nf.calls"] += 1


def _count_reduction(tracer, args, result):
    # only reductions of S-/G-polynomials inside the Buchberger loop; the
    # autoreduction pass runs under its own span
    if not tracer.stack or tracer.stack[-1][1] != "polys.groebner_with_cofactors":
        return
    if result[0]:
        tracer._growth[tracer.stack[-1][0]] += 1
    else:
        tracer.counters["polys.zero_reductions"] += 1


_COUNT = {
    "spoly": _count_spoly,
    "gpoly": _count_gpoly,
    "nf": _count_nf,
    "nf_with_cofactors": _count_reduction,
    "_word_ring": lambda t, a, r: _cache_lookup(t, "word", r),
    "_lattice_ring": lambda t, a, r: _cache_lookup(t, "lattice", r),
}


def _after_gb(tracer, sid, args, kwargs, result):
    gens = args[0]
    tracer.peak("polys.basis_peak", sum(1 for g in gens if g) + tracer._growth.pop(sid, 0))


def _after_snf(tracer, sid, args, kwargs, result):
    a = args[0]
    tracer.peak("intlin.snf.max_dim", max(len(a), len(a[0]) if a else 0))
    u, _, v, u_inv, v_inv = result
    bits = max((abs(x).bit_length() for m in (u, v, u_inv, v_inv) for row in m for x in row),
               default=0)
    tracer.peak("intlin.snf.peak_bits", bits)


def _after_working_basis(tracer, sid, args, kwargs, result):
    _cache_lookup(tracer, "gb", result)


def _after_fitting(tracer, sid, args, kwargs, result):
    m, k = args[0], args[1]
    size = m.ngens - k
    if size > 0:
        tracer.counters["rings.fitting.minors"] += \
            comb(len(m.relations), size) * comb(m.ngens, size)


def _after_module(tracer, sid, args, kwargs, result):
    tracer.peak("diffs.module_shape_max", len(result.relations) * result.ngens)


def _after_derivations(tracer, sid, args, kwargs, result):
    from loggeom.rings import FiniteModule
    x, j = args[0], args[1]
    fm = FiniteModule(j)
    size = fm.p ** fm.dim
    tracer.counters["deform.candidates"] += size ** (x.ring.nvars + x.monoid.ngens)
    tracer.counters["deform.found"] += len(result)


def _after_dump(tracer, sid, args, kwargs, result):
    tracer.counters["cli.report_bytes"] += len(result.encode("utf-8"))


_AFTER = {
    "polys.groebner_with_cofactors": _after_gb,
    "intlin.snf_with_inverses": _after_snf,
    "rings.working_basis": _after_working_basis,
    "rings.fitting_ideal": _after_fitting,
    "diffs.log_differentials": _after_module,
    "diffs.indecomposables": _after_module,
    "diffs.replete_abelianization": _after_module,
    "deform.log_derivations": _after_derivations,
    "cli.dump_report": _after_dump,
}


# -- analysis in the driver -------------------------------------------------------

def covered_length(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, total self seconds); self = duration minus child cover."""
    children = defaultdict(list)
    for sid, name, start, end, parent, task in spans:
        if parent is not None:
            children[(task, parent)].append((start, end))
    out: dict[str, list] = {}
    for sid, name, start, end, parent, task in spans:
        own = (end - start) - covered_length(children.get((task, sid), ()), start, end)
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += own
    return {k: (v[0], v[1]) for k, v in out.items()}


def span_names() -> list[str]:
    return [span_name(m, f) for m, f in SPANNED]
