"""loggeom benchmark: cold and warm CLI requests, Groebner and lattice kernels.

Usage (from the repository root):

    python3 lgbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 lgbench/run.py --workload all --seconds 5

Closed loop, one client: this driver plus one forked worker.  Each task
runs under a fixed deadline; a miss kills and respawns the worker and
counts as a failed task.  The run measures whole cycles of the seeded
task stream until ``--seconds`` have passed, then checks every output
against its oracle.  The last line of stdout is one JSON object; the
lines before it give the same metrics with units and the failures by
family.  Exit status 1 means a wrong report, 2 that the program could
not be loaded.  See lgbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
DEFAULT_DEADLINE_S = 1.0
SETUP_REPS = 5
MIN_TASKS = 100
DIGESTS = os.path.join(HERE, "digests.json")
DIGEST_CYCLES = {"cli-cold": 2, "cli-warm": 1, "groebner": 2, "lattice": 2}
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = (("task_s.p50", "s"), ("task_s.p90", "s"), ("tasks_per_s", "1/s"),
              ("fail_share", "share"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
IMPORT_PROBE = ("import time; t = time.perf_counter(); import loggeom.cli; "
                "print(time.perf_counter() - t)")


def load_program():
    """Import loggeom from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "loggeom", "__init__.py")):
        print(f"lgbench: no loggeom package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import loggeom
    import loggeom.cli  # noqa: F401 - imported before the worker forks
    if not os.path.abspath(loggeom.__file__).startswith(SRC + os.sep):
        print(f"lgbench: loggeom imported from {loggeom.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_seconds():
    """Cold ``import loggeom.cli`` in a fresh interpreter, in reference s.

    This is what every ``loggeom`` command pays before it parses a file.
    It runs while no worker is alive, so the driver and one child remain
    the only processes.
    """
    from speed import measure, scale
    before = measure()
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                           env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                           text=True, check=True, timeout=60)
    return float(probe.stdout) * scale((before + measure()) / 2)


def percentile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of the order statistics with Beta(q(n+1), (1-q)(n+1))
    weights (taken at the midpoint of each rank's interval).  A run's
    task mix is a few dozen task types with gaps between their
    latencies; a single order statistic jumps across such a gap when one
    task changes rank, this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


# -- running ------------------------------------------------------------------

def setup(workload, seed, deadline, traced=False):
    """Plan, fresh worker, and for cli-warm the fill sweep.

    Returns (plan, worker, cold answers by task id, seconds).
    """
    from speed import measure, scale
    from worker import Worker
    from workloads import Plan
    before = measure()
    t0 = time.perf_counter()
    plan = Plan(workload, seed, ROOT)
    plan.cycle(0)
    worker = Worker(traced=traced)
    worker.run({"kind": "ping", "id": "ping", "cache": "keep"}, deadline * 10)
    cold = {}
    for task in plan.warm:
        # cold answer per query; the worker keeps every entry it made
        cold[task["id"]] = worker.run(dict(task, cache="isolate"), deadline * 10)
    elapsed = time.perf_counter() - t0
    return plan, worker, cold, elapsed * scale((before + measure()) / 2)


def run_cycles(plan, worker, seconds, deadline):
    """Run whole cycles until `seconds` have passed; (records, wall seconds).

    A run holds at least MIN_TASKS tasks, so that at least ten lie above
    the 90th percentile.
    """
    records = []
    t0 = time.perf_counter()
    c = 0
    while time.perf_counter() - t0 < seconds or len(records) < MIN_TASKS:
        for task in plan.cycle(c):
            records.append((task, worker.run(task, deadline)))
        c += 1
    return records, time.perf_counter() - t0


# -- checking -----------------------------------------------------------------

def load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def classify(records, workload, seed, default_seed, cold=None, reference=None):
    """Attach an outcome to every record: correct | wrong | error | timeout.

    `cold` holds cli-warm cold answers and `reference` the untraced
    outputs a traced pass must reproduce byte for byte.
    """
    from oracles import check, digest
    stored = load_digests().get(workload, {}) if seed == default_seed else {}
    out = []
    for task, result in records:
        status = result["status"]
        reason = result.get("error", "")
        if status == "crash":
            status, reason = "error", "worker died"
        if status == "ok":
            text = result["output"]
            reason = check(task, text)
            if reason is None and task["id"] in stored and digest(text) != stored[task["id"]]:
                reason = "differs from the stored digest for the default seed"
            if reason is None and cold is not None:
                ref = cold.get(task["id"], {})
                if ref.get("status") == "ok" and ref["output"] != text:
                    reason = "warm report differs from the cold report"
            if reason is None and reference is not None:
                ref = reference.get(task["id"])
                if ref is not None and ref != text:
                    reason = "traced output differs from the untraced output"
            status = "correct" if reason is None else "wrong"
        out.append((task, result, status, reason or ""))
    return out


def e2e_metrics(outcomes, deadline, scaled=True):
    """End-to-end metrics; compute times in reference seconds (speed.py).

    A timeout enters the latency percentiles at the deadline and the wall
    time as the wall-clock time it took; neither is rescaled.
    """
    from speed import factors
    results = [r for _, r, _, _ in outcomes]
    ran = [i for i, r in enumerate(results) if "span" in r]
    scale = [1.0] * len(results)
    if scaled:
        samples = [s for i in ran for s in results[i]["kernel"]]
        for i, f in zip(ran, factors(samples, [results[i]["span"] for i in ran])):
            scale[i] = f
    lat, wall = [], 0.0
    for r, factor in zip(results, scale):
        lat.append(deadline if r["status"] == "timeout" else r["seconds"] * factor)
        wall += r["wall"] * factor
    counts = Counter(s for _, _, s, _ in outcomes)
    n = len(outcomes)
    return {
        "task_s.p50": percentile(lat, 0.5),
        "task_s.p90": percentile(lat, 0.9),
        "tasks_per_s": counts["correct"] / wall,
        "fail_share": (n - counts["correct"]) / n,
    }, counts


LAYER_UNITS = {
    "polys.pairs": "1/task", "polys.zero_reductions": "1/task",
    "polys.useful_pair_share": "share", "polys.basis_peak": "count",
    "polys.nf.calls": "1/task", "intlin.snf.peak_bits": "bits",
    "intlin.snf.max_dim": "count", "rings.gb_cache.hit_share": "share",
    "rings.gb_cache.entries": "count", "rings.fitting.minors": "1/task",
    "monoids.word_cache.hit_share": "share", "monoids.lattice_cache.hit_share": "share",
    "diffs.module_shape_max": "count", "deform.candidates": "1/task",
    "deform.found": "1/task", "deform.useful_share": "share",
    "cli.report_bytes": "B", "trace.spans": "1/task", "trace.overhead": "ratio",
}


def layer_units():
    """Unit of every per-layer metric, in the order they are reported."""
    from tracing import span_names
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "1/task"
        units[f"{name}.self_s"] = "s/task"
    units.update(LAYER_UNITS)
    return units


def layer_metrics(outcomes, untraced_p50, traced_p50):
    from tracing import self_times, span_names
    n = len(outcomes)
    spans, counters, peaks = [], Counter(), Counter()
    gb_entries = 0
    for _, result, _, _ in outcomes:
        tr = result.get("trace")
        if tr:
            spans.extend(tr["spans"])
            counters.update(tr["counters"])
            for k, v in tr["peaks"].items():
                peaks[k] = max(peaks[k], v)
        sizes = result.get("cache_sizes")
        if sizes:
            gb_entries = max(gb_entries, sizes["after"]["gb"])
    st = self_times(spans)
    m = {}
    for name in span_names():
        calls, self_s = st.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls / n
        m[f"{name}.self_s"] = self_s / n

    def share(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    pairs = counters["polys.pairs"]
    m.update({
        "polys.pairs": pairs / n,
        "polys.zero_reductions": counters["polys.zero_reductions"] / n,
        "polys.useful_pair_share":
            (pairs - counters["polys.zero_reductions"]) / pairs if pairs else 0.0,
        "polys.basis_peak": peaks["polys.basis_peak"],
        "polys.nf.calls": counters["polys.nf.calls"] / n,
        "intlin.snf.peak_bits": peaks["intlin.snf.peak_bits"],
        "intlin.snf.max_dim": peaks["intlin.snf.max_dim"],
        "rings.gb_cache.hit_share": share("gb.hits", "gb.lookups"),
        "rings.gb_cache.entries": gb_entries,
        "rings.fitting.minors": counters["rings.fitting.minors"] / n,
        "monoids.word_cache.hit_share": share("word.hits", "word.lookups"),
        "monoids.lattice_cache.hit_share": share("lattice.hits", "lattice.lookups"),
        "diffs.module_shape_max": peaks["diffs.module_shape_max"],
        "deform.candidates": counters["deform.candidates"] / n,
        "deform.found": counters["deform.found"] / n,
        "deform.useful_share": share("deform.found", "deform.candidates"),
        "cli.report_bytes":
            counters["cli.report_bytes"] / max(1, st.get("cli.dump_report", (0, 0.0))[0]),
        "trace.spans": len(spans) / n,
        "trace.overhead": traced_p50 / untraced_p50,
    })
    return m, spans


def write_spans(spans, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, task in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "task": task}) + "\n")
    return path


def failure_lines(outcomes):
    by = defaultdict(Counter)
    sample = {}
    for task, _, status, reason in outcomes:
        if status != "correct":
            key = (status, task["family"])
            by[key][task.get("cmd", task["kind"])] += 1
            sample.setdefault(key, reason.splitlines()[0][:100] if reason else "")
    lines = []
    for (status, family), cmds in sorted(by.items()):
        detail = ", ".join(f"{c} x{k}" for c, k in sorted(cmds.items()))
        extra = f"  [{sample[(status, family)]}]" if sample[(status, family)] else ""
        lines.append(f"  {status:8s} {family}: {sum(cmds.values())} ({detail}){extra}")
    return lines


# -- one workload ---------------------------------------------------------------

def run_workload(workload, seed, seconds, traced, deadline, default_seed):
    """Metrics and run info of one workload: end-to-end, or per-layer if traced."""
    workers = []
    try:
        setups = []
        for _ in range(SETUP_REPS):
            if workers:
                workers[-1].close()
            import_s = import_seconds()
            plan, worker, cold, dt = setup(workload, seed, deadline)
            workers.append(worker)
            setups.append(import_s + dt)
        warm_cold = cold if workload == "cli-warm" else None
        span = seconds / 2 if traced else seconds
        records, wall = run_cycles(plan, worker, span, deadline)
        worker.close()
        t0 = time.perf_counter()
        outcomes = classify(records, workload, seed, default_seed, warm_cold)
        info = {"wall": wall, "verify_s": time.perf_counter() - t0, "outcomes": outcomes,
                "raw": e2e_metrics(outcomes, deadline, scaled=False)[0]}
        e2e = e2e_metrics(outcomes, deadline)[0]
        e2e["setup_s"] = statistics.median(setups)
        e2e["peak_rss_mb"] = max(w.peak_rss_mb for w in workers)
        if not traced:
            return e2e, info
        reference = {t["id"]: r["output"] for t, r, _, _ in outcomes if r["status"] == "ok"}
        plan, worker, _, _ = setup(workload, seed, deadline, traced=True)
        workers.append(worker)
        records, info["wall"] = run_cycles(plan, worker, span, deadline)
        traced_out = classify(records, workload, seed, default_seed, warm_cold, reference)
        layers, spans = layer_metrics(traced_out, e2e["task_s.p50"],
                                      e2e_metrics(traced_out, deadline)[0]["task_s.p50"])
        info["outcomes"] = outcomes + traced_out
        info["spans_file"] = write_spans(spans, workload, seed)
        return layers, info
    finally:
        for w in workers:
            w.close()


def report(workload, seed, metrics, units, info, deadline):
    outcomes = info["outcomes"]
    print(f"lgbench {workload} seed={seed}: {len(outcomes)} tasks, deadline {deadline} s, "
          f"{info['wall']:.2f} s measured, {info['verify_s']:.2f} s checking outputs")
    print(f"failures: timeouts={sum(1 for o in outcomes if o[2] == 'timeout')} "
          f"errors={sum(1 for o in outcomes if o[2] == 'error')} "
          f"wrong={sum(1 for o in outcomes if o[2] == 'wrong')}")
    for line in failure_lines(outcomes):
        print(line)
    if "spans_file" in info:
        print(f"spans: {os.path.relpath(info['spans_file'], ROOT)}")
    raw = " ".join(f"{k}={v:.6g}" for k, v in info["raw"].items())
    print(f"  unscaled (wall-clock) {raw}")
    for name, value in metrics.items():
        print(f"  {workload} {name} = {value:.6g} {units[name]}")


def main(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline-s", type=float, default=DEFAULT_DEADLINE_S,
                   help="per-task deadline; a miss kills the worker and fails the task")
    p.add_argument("--default-seed", type=int, default=DEFAULT_SEED,
                   help="the seed whose outputs are pinned by lgbench/digests.json")
    args = p.parse_args(argv)
    sys.set_int_max_str_digits(0)

    load_program()
    units = dict(END_TO_END) if not args.trace else layer_units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged, attempted, failed, correct = {}, 0, 0, True
    for workload in names:
        metrics, info = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                     args.deadline_s, args.default_seed)
        report(workload, args.seed, metrics, units, info, args.deadline_s)
        outcomes = info["outcomes"]
        attempted += len(outcomes)
        failed += sum(1 for o in outcomes if o[2] != "correct")
        correct = correct and not any(o[2] == "wrong" for o in outcomes)
        for name, value in metrics.items():
            key = name if len(names) == 1 else f"{workload}/{name}"
            merged[key] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
