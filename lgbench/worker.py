"""The benchmark's single worker process and the driver's handle on it.

The driver forks one worker, sends it one task at a time and waits at
most the per-task deadline for the answer.  With each answer the worker
sends the calibration-kernel samples it took before the task (see
speed.py).  On a miss the driver kills the worker, waits for it to end
and forks a fresh one, so the driver and one worker are the only
processes that ever run.  The worker times the public call itself, so
pipe and pickling costs stay out of task latency.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
import traceback

# A task that runs away in memory hits this before it can hurt the machine.
WORKER_MEMORY_LIMIT = 2 << 30


def _caches():
    from loggeom import monoids, rings
    return {"gb": rings._GB_CACHE, "word": monoids._WORD_RING_CACHE,
            "lattice": monoids._LATTICE_RING_CACHE}


def _poly(p):
    return {tuple(e): c for e, c in p}


def _encode(p):
    return sorted([list(e), c if isinstance(c, int) else str(c)] for e, c in p.items())


def _domain(name):
    from loggeom.polys import QQ, ZZ, PrimeField
    from workloads import GF_P
    return {"F": PrimeField(GF_P), "Q": QQ, "Z": ZZ}[name]


def _call(task):
    """Build the inputs, then run and time the public call.

    Returns (seconds, output) where output is the JSON text the oracles
    and digests read: the report for cli tasks, a canonical encoding of
    the result for library calls.
    """
    from fractions import Fraction
    from loggeom import cli, intlin, monoids, polys
    from loggeom.language import parse
    from loggeom.rings import RingPresentation, int_inv

    kind = task["kind"]
    if kind == "ping":
        return 0.0, ""
    if kind == "cli":
        t0 = time.perf_counter()
        ws = parse(task["src"])
        report = cli.run_command(task["cmd"], ws, task["target"], task["options"])
        text = cli.dump_report(report)
        return time.perf_counter() - t0, text
    if kind in ("gb", "gbc"):
        dom = _domain(task["dom"])
        gens = [_poly(g) for g in task["gens"]]
        if task["dom"] == "Q":
            gens = [{e: Fraction(c) for e, c in g.items()} for g in gens]
        elif task["dom"] == "F":
            gens = [{e: dom.normalize(c) for e, c in g.items()} for g in gens]
        order = polys.LEX if task["order"] == "lex" else polys.DEGREVLEX
        t0 = time.perf_counter()
        if kind == "gb":
            basis = polys.groebner(gens, order, dom)
            cofs = None
        else:
            basis, cofs = polys.groebner_with_cofactors(gens, order, dom)
        dt = time.perf_counter() - t0
        out = {"basis": [_encode(b) for b in basis]}
        if cofs is not None:
            out["cofactors"] = [[_encode(c) for c in row] for row in cofs]
        return dt, json.dumps(out)
    if kind == "sat":
        coeff = int_inv(task["n"])
        ideal = [{e: Fraction(c) for e, c in _poly(g).items()} for g in task["ideal"]]
        t0 = time.perf_counter()
        ring = RingPresentation.make(coeff, task["vars"], ideal)
        basis = ring.working_basis()
        dt = time.perf_counter() - t0
        return dt, json.dumps({"basis": [_encode(b) for b in basis]})
    if kind == "integral":
        gens = tuple(f"g{i}" for i in range(task["ngens"]))
        rels = tuple((tuple(u), tuple(v)) for u, v in task["rels"])
        t0 = time.perf_counter()
        value = monoids.is_integral(monoids.MonoidPresentation(gens, rels))
        return time.perf_counter() - t0, json.dumps({"integral": value})
    rows = task["rows"]
    n = task["ncols"]
    if kind == "snf":
        t0 = time.perf_counter()
        u, d, v, u_inv, v_inv = intlin.snf_with_inverses(rows)
        dt = time.perf_counter() - t0
        return dt, json.dumps({"u": u, "d": d, "v": v, "u_inv": u_inv, "v_inv": v_inv})
    if kind == "quotient":
        t0 = time.perf_counter()
        group, to_canon, section = intlin.quotient_group(n, rows)
        dt = time.perf_counter() - t0
        return dt, json.dumps({"rank": group.rank, "torsion": list(group.torsion),
                               "to_canonical": to_canon, "section": section})
    if kind == "gc":
        gens = tuple(f"g{i}" for i in range(n))
        rels = tuple((tuple(max(x, 0) for x in r), tuple(max(-x, 0) for x in r))
                     for r in rows)
        t0 = time.perf_counter()
        gc = monoids.group_completion(monoids.MonoidPresentation(gens, rels))
        dt = time.perf_counter() - t0
        return dt, json.dumps({"rank": gc.group.rank, "torsion": list(gc.group.torsion),
                               "gen_columns": [list(c) for c in gc.gen_columns],
                               "section": [list(s) for s in gc.section]})
    raise ValueError(f"unknown task kind {kind!r}")


def run_task(task, tracer=None) -> dict:
    """Run one task in this process; never raises for a program error."""
    caches = _caches()
    if task.get("cache") == "clear":
        for c in caches.values():
            c.clear()
    saved = None
    if task.get("cache") == "isolate":
        # cold answer without losing the session's entries
        saved = {k: dict(c) for k, c in caches.items()}
        for c in caches.values():
            c.clear()
    before = {k: len(c) for k, c in caches.items()}
    if tracer is not None:
        tracer.begin(task["id"], caches)
    t0 = time.perf_counter()
    try:
        seconds, output = _call(task)
        result = {"status": "ok", "seconds": seconds, "output": output}
    except Exception as exc:  # noqa: BLE001 - a failing task is a measured outcome
        result = {"status": "error", "seconds": time.perf_counter() - t0,
                  "error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc(limit=4)}
    result["span"] = (t0, time.perf_counter())
    if tracer is not None:
        result["trace"] = tracer.end()
    if saved is not None:
        for k, c in caches.items():
            c.update(saved[k])
    result["cache_sizes"] = {"before": before,
                             "after": {k: len(c) for k, c in caches.items()}}
    return result


def serve(conn, traced: bool) -> None:
    """Worker main loop: one task in, one result out, until None arrives."""
    resource.setrlimit(resource.RLIMIT_AS, (WORKER_MEMORY_LIMIT, WORKER_MEMORY_LIMIT))
    sys.set_int_max_str_digits(0)  # exploded SNF entries must still serialize
    from speed import Sampler
    sampler = Sampler()
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    conn.send(_memory_mb(os.getpid())[0])  # ready; the driver reads its size
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        t0 = time.perf_counter()
        samples = sampler.sample()
        sampling_s = time.perf_counter() - t0
        result = run_task(task, tracer)
        result["kernel"] = samples
        result["sampling_s"] = sampling_s
        conn.send(result)


def _memory_mb(pid: int) -> tuple[float, float] | None:
    """(VmRSS, VmHWM) of a process in MB, or None once it has gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
    except OSError:
        return None
    return int(fields["VmRSS"].split()[0]) / 1024.0, int(fields["VmHWM"].split()[0]) / 1024.0


class Worker:
    """Driver-side handle: fork, run with a deadline, kill and respawn.

    ``peak_rss_mb`` is the resident set of the first worker process when
    it was ready for tasks, plus the most any worker process grew above
    its own size when ready.  A respawned worker is forked from a driver
    that holds the results so far; that memory is the benchmark's, not
    the program's, and counting it would make the peak grow with run
    length.
    """

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.ctx = multiprocessing.get_context("fork")
        self.respawns = 0
        self._first_mb = None
        self._growth_mb = 0.0
        self._start()

    @property
    def peak_rss_mb(self) -> float:
        return (self._first_mb or 0.0) + self._growth_mb

    def _start(self):
        self.conn, child = self.ctx.Pipe()
        self.proc = self.ctx.Process(target=serve, args=(child, self.traced), daemon=True)
        self.proc.start()
        child.close()
        if not self.conn.poll(60):
            raise RuntimeError("the benchmark worker did not start within 60 s")
        self._ready_mb = self.conn.recv()
        if self._first_mb is None:
            self._first_mb = self._ready_mb

    def _note_rss(self):
        memory = _memory_mb(self.proc.pid) if self.proc.is_alive() else None
        if memory is not None:
            self._growth_mb = max(self._growth_mb, memory[1] - self._ready_mb)

    def _stop(self, kill: bool):
        if kill:
            self.proc.kill()
        else:
            self._note_rss()
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                self.proc.kill()
        self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()

    def run(self, task: dict, deadline: float) -> dict:
        """Result dict; status ``timeout`` when the deadline passed."""
        # Peak RSS is read before every task, never after a kill: what a
        # task allocates until the deadline stops it says nothing about
        # the program, and would make the peak depend on the cliff mix.
        self._note_rss()
        t0 = time.perf_counter()
        self.conn.send(task)
        if self.conn.poll(deadline):
            try:
                result = self.conn.recv()
                result["wall"] = time.perf_counter() - t0 - result["sampling_s"]
                return result
            except EOFError:
                status = "crash"
        else:
            status = "timeout"
        self._stop(kill=True)
        self.respawns += 1
        self._start()
        elapsed = time.perf_counter() - t0
        return {"status": status, "seconds": elapsed, "wall": elapsed}

    def close(self):
        self._stop(kill=False)
