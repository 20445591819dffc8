"""Command-line interface: deterministic JSON reports over workspace files.

Targets are addressed as FILE#name.  Exit codes: 0 = computed (even when
the verdict is "fail"), 1 = usage or parse error, 2 = unsupported or
undetermined.  Batch mode (`loggeom corpus DIR`) re-runs stored fixture
reports and verifies byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .deform import classify_log_square_zero, derivation_str, log_derivations
from .diffs import log_diagonal, log_differentials, replete_abelianization, indecomposables
from .errors import IncompleteComputation, Undetermined
from .etale import adjoin_root, check_charted_log_etale, log_unramified_check
from .language import ParseError, Workspace, parse, pretty
from .logrings import logify
from .monoids import group_completion, is_exact, repletion
from .rings import ModulePresentation, fitting_ideal, poly_str, prune


SCHEMA = 1


class UsageError(Exception):
    pass


def _monoid_payload(m) -> dict:
    from .language import _exp_str
    return {
        "generators": list(m.generators),
        "relations": [f"{_exp_str(u, m.generators)} = {_exp_str(v, m.generators)}"
                      for u, v in m.relations],
    }


def _ring_payload(r) -> dict:
    return {
        "coeff": str(r.coeff),
        "vars": list(r.vars),
        "ideal": [poly_str(dict(g), r.vars) for g in r.ideal],
    }


def _module_payload(m: ModulePresentation) -> dict:
    return {
        "ring": _ring_payload(m.ring),
        "generators": list(m.gens),
        "relations": [[poly_str(dict(p), m.ring.vars) for p in row]
                      for row in m.relations],
    }


def _fitting_payload(m: ModulePresentation, order) -> list:
    pruned = prune(m)  # same Fitting ideals, fewer minors
    out = []
    for k in range(m.ngens + 1):
        gens = fitting_ideal(pruned, k, order)
        out.append([poly_str(g, m.ring.vars) for g in gens])
    return out


def _prelog_payload(x) -> dict:
    payload = {
        "ring": _ring_payload(x.ring),
        "monoid": _monoid_payload(x.monoid),
        "alpha": [poly_str(dict(a), x.ring.vars) for a in x.alpha],
    }
    if x.units is not None:
        payload["units"] = {"rank": x.units.group.rank,
                            "torsion": list(x.units.group.torsion)}
    else:
        payload["units"] = None
    return payload


def _monoid_map_payload(f) -> dict:
    from .language import _exp_str
    return {
        "domain": _monoid_payload(f.domain),
        "codomain": _monoid_payload(f.codomain),
        "images": [_exp_str(w, f.codomain.generators) for w in f.images],
    }


def run_command(command: str, workspace: Workspace, target: str,
                options: dict) -> dict:
    """Dispatch one command against a parsed workspace; returns the report."""
    from .polys import DEGREVLEX, LEX
    order = LEX if options.get("order") == "lex" else DEGREVLEX
    bound = options.get("bound")
    inputs = [target]

    if command == "gp":
        m = workspace.get(target, "monoid")
        gc = group_completion(m)
        result = {"rank": gc.group.rank, "torsion": list(gc.group.torsion)}
    elif command == "repletion":
        f = workspace.get(target, "map")
        res = repletion(f.monoid_map, bound=bound)
        result = {
            "monoid": _monoid_payload(res.monoid),
            "to_codomain": _monoid_map_payload(res.to_codomain),
            "from_domain": _monoid_map_payload(res.from_domain),
            "is_exact": is_exact(f.monoid_map, bound=bound),
        }
    elif command == "logify":
        x = workspace.get(target, "prelog")
        res = logify(x, bound=bound)
        result = {
            "prelog": _prelog_payload(res.prelog),
            "canonical_map": _monoid_map_payload(res.map.monoid_map),
        }
    elif command == "logdiff":
        x = workspace.get(target, "prelog")
        base = None
        if options.get("over"):
            base = workspace.get(options["over"], "map")
        module = log_differentials(x, base=base)
        result = {"module": _module_payload(module),
                  "fitting": _fitting_payload(module, order)}
        if options.get("over"):
            inputs.append(options["over"])
    elif command == "logdiag":
        x = workspace.get(target, "prelog")
        aug = log_diagonal(x)
        module = indecomposables(aug)
        result = {
            "algebra": _ring_payload(aug.algebra),
            "augmentation": [poly_str(dict(p), aug.base.vars)
                             for p in aug.augmentation.images],
            "module": _module_payload(module),
            "fitting": _fitting_payload(module, order),
        }
    elif command == "repab":
        f = workspace.get(target, "map")
        module = replete_abelianization(f)
        result = {"module": _module_payload(module),
                  "fitting": _fitting_payload(module, order)}
    elif command == "derivations":
        x = workspace.get(target, "prelog")
        module_name = options.get("module")
        if not module_name:
            raise UsageError("derivations requires --module NAME")
        j = workspace.get(module_name, "module")
        base = workspace.get(options["over"], "map") if options.get("over") else None
        ders = log_derivations(x, j, base=base)
        result = {"count": len(ders),
                  "derivations": sorted(derivation_str(d, x, j) for d in ders)}
        inputs.append(module_name)
        if options.get("over"):
            inputs.append(options["over"])
    elif command == "classify-sqz":
        f = workspace.get(target, "map")
        result = {"verdict": classify_log_square_zero(f, bound=bound)}
    elif command == "check-log-etale":
        f = workspace.get(target, "map")
        result = check_charted_log_etale(f).to_payload()
    elif command == "adjoin-root":
        x = workspace.get(target, "prelog")
        degree = options.get("degree")
        if not degree:
            raise UsageError("adjoin-root requires --degree N")
        new, chart = adjoin_root(x, int(degree))
        result = {"prelog": _prelog_payload(new),
                  "chart": check_charted_log_etale(chart).to_payload()}
    elif command == "unramified":
        f = workspace.get(target, "map")
        result = {"vanishes": log_unramified_check(f)}
    else:
        raise UsageError(f"unknown command {command!r}")

    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _split_target(spec: str) -> tuple[str, str]:
    if "#" not in spec:
        raise UsageError(f"target must be FILE#name, got {spec!r}")
    path, _, name = spec.rpartition("#")
    if not path or not name:
        raise UsageError(f"target must be FILE#name, got {spec!r}")
    return path, name


def _load(path: str) -> Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def run_fixture_file(path: str) -> list[tuple[str, bool, str]]:
    """Run every stored fixture; returns (label, ok, detail) rows."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    base = os.path.dirname(path)
    source = os.path.join(base, spec["file"])
    ws = _load(source)
    rows = []
    for run in spec["runs"]:
        label = f"{spec['file']}#{run['target']}:{run['command']}"
        try:
            report = run_command(run["command"], ws, run["target"],
                                 run.get("options", {}))
            ok = dump_report(report) == dump_report(run["report"])
            detail = "" if ok else "report mismatch"
        except Exception as exc:  # noqa: BLE001 - report, do not crash the batch
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        rows.append((label, ok, detail))
    return rows


def run_corpus(directory: str, jobs: int = 4) -> int:
    files = sorted(
        os.path.join(directory, f) for f in os.listdir(directory)
        if f.endswith(".fixtures.json"))
    if not files:
        print(f"no fixture files in {directory}", file=sys.stderr)
        return 1
    failures = 0
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for rows in pool.map(run_fixture_file, files):
            for label, ok, detail in rows:
                print(f"{'PASS' if ok else 'FAIL'} {label}" +
                      (f" ({detail})" if detail else ""))
                if not ok:
                    failures += 1
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="loggeom",
                description="exact log-ring computations with JSON reports")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **extra):
        sp = sub.add_parser(name)
        sp.add_argument("target", help="FILE#name")
        sp.add_argument("--bound", type=int, default=None,
                        help="degree bound for bounded searches (default 12; "
                             "env LOGGEOM_BOUND)")
        sp.add_argument("--order", choices=["degrevlex", "lex"],
                        default="degrevlex")
        for key, kwargs in extra.items():
            sp.add_argument(f"--{key}", **kwargs)
        return sp

    add("gp")
    add("repletion")
    add("logify")
    add("logdiff", over={"default": None, "help": "map name for the base"})
    add("logdiag")
    add("repab")
    add("derivations", module={"default": None, "help": "module name"},
        over={"default": None, "help": "map name for the base"})
    add("classify-sqz")
    add("check-log-etale")
    add("adjoin-root", degree={"type": int, "default": None})
    add("unramified")
    fmt = sub.add_parser("fmt")
    fmt.add_argument("target", help="FILE (canonical reprint to stdout)")
    corpus = sub.add_parser("corpus")
    corpus.add_argument("directory")
    corpus.add_argument("--jobs", type=int, default=4)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--corpus":
        argv = ["corpus"] + argv[1:]
    try:
        args = build_parser().parse_args(argv)
        if args.command == "corpus":
            return run_corpus(args.directory, args.jobs)
        if args.command == "fmt":
            ws = _load(args.target)
            sys.stdout.write(pretty(ws))
            return 0
        path, name = _split_target(args.target)
        ws = _load(path)
        options = {"bound": args.bound, "order": args.order}
        for key in ("over", "module", "degree"):
            if hasattr(args, key):
                options[key] = getattr(args, key)
        report = run_command(args.command, ws, name, options)
        sys.stdout.write(dump_report(report))
        return 0
    except (UsageError, ParseError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (Undetermined, IncompleteComputation) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
