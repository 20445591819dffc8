"""Input language and CLI: parsing, round trips, determinism, exit codes."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import loggeom.cli as cli
from loggeom.cli import dump_report, run_command, run_fixture_file
from loggeom.language import ParseError, parse, pretty


CORPUS = os.path.join(os.path.dirname(cli.__file__), "corpus")

SAMPLE = """
monoid P { gens: x; rels: ; }
monoid Q { gens: a b; rels: 2a+0b = 0a+2b; }
ring Z { coeff: int; vars: ; ideal: ; }
ring A { coeff: fp(3); vars: u; ideal: u^2; }
prelog X { ring: Z; monoid: P; alpha: x -> 3; units: builtin; }
module J { ring: A; gens: g; rels: (u); }
"""


def test_parse_examples():
    ws = parse(SAMPLE)
    assert ws.get("P", "monoid").ngens == 1
    assert ws.get("Q", "monoid").relations == (((2, 0), (0, 2)),)
    x = ws.get("X", "prelog")
    assert x.units is not None
    j = ws.get("J", "module")
    assert j.ngens == 1 and len(j.relations) == 1


def test_round_trip():
    ws = parse(SAMPLE)
    text = pretty(ws)
    assert parse(text) == ws
    assert pretty(parse(text)) == text


def test_round_trip_on_corpus_files():
    for fname in sorted(os.listdir(CORPUS)):
        if not fname.endswith(".lg"):
            continue
        ws = parse(open(os.path.join(CORPUS, fname), encoding="utf-8").read())
        assert parse(pretty(ws)) == ws, fname


@pytest.mark.parametrize("source,fragment", [
    ("monoid P { gens: x; rels: ; }\nmonoid P { gens: y; rels: ; }", "duplicate"),
    ("prelog X { ring: R; monoid: P; alpha: ; units: none; }", "forward references"),
    ("monoid P { gens: x; rels: 1x = 2y; }", "unknown generator"),
    ("ring R { coeff: int; vars: x; ideal: x^; }", "number"),
    ("monoid P { gens: x; rels: x = 0; }", "explicit integer"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert fragment in str(err.value)
    assert "line" in str(err.value) and "col" in str(err.value)


def test_alpha_violation_reported_with_values():
    src = """
monoid T { gens: x; rels: 2x = 0; }
ring Z { coeff: int; vars: ; ideal: ; }
prelog W { ring: Z; monoid: T; alpha: x -> 3; units: builtin; }
"""
    with pytest.raises(ParseError, match="alpha violates relation: 9 != 1"):
        parse(src)


def test_reports_deterministic():
    ws = parse(SAMPLE)
    a = dump_report(run_command("gp", ws, "Q", {}))
    b = dump_report(run_command("gp", ws, "Q", {}))
    assert a == b
    report = json.loads(a)
    assert report["schema"] == 1
    assert report["result"] == {"rank": 1, "torsion": [2]}


def test_corpus_fixtures_match():
    fixture_files = sorted(
        f for f in os.listdir(CORPUS) if f.endswith(".fixtures.json"))
    assert fixture_files
    for fname in fixture_files:
        for label, ok, detail in run_fixture_file(os.path.join(CORPUS, fname)):
            assert ok, f"{label}: {detail}"


def test_fixture_compare_is_byte_exact(tmp_path):
    # a stored 1 equals a computed True as a dict value, but not as JSON text
    with open(os.path.join(CORPUS, "root3.fixtures.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    run = next(r for r in spec["runs"] if r["command"] == "check-log-etale")
    assert run["report"]["result"]["overall"] is True
    run["report"]["result"]["overall"] = 1
    spec["runs"] = [run]
    shutil.copy(os.path.join(CORPUS, spec["file"]), tmp_path / spec["file"])
    fixture = tmp_path / "root3.fixtures.json"
    fixture.write_text(json.dumps(spec))
    [(label, ok, detail)] = run_fixture_file(str(fixture))
    assert not ok and detail == "report mismatch"


def test_gp_with_large_inverted_integer_is_fast(tmp_path, capsys):
    src = tmp_path / "big.lg"
    src.write_text(
        "monoid M { gens: a b; rels: ; }\n"
        "ring R { coeff: int_inv(998244359987710471); vars: ; ideal: ; }\n"
        "prelog X { ring: R; monoid: M; alpha: a -> 2, b -> 3; units: builtin; }\n")
    start = time.perf_counter()
    assert cli.main(["gp", f"{src}#M"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["result"] == {"rank": 2, "torsion": []}


TORIC = """
monoid T {{ gens: a b c; rels: 1a+1b+0c = 0a+0b+2c; }}
ring R {{ coeff: {coeff}; vars: x y z; ideal: x*y - z^2; }}
prelog X {{ ring: R; monoid: T; alpha: a -> x, b -> y, c -> z; units: none; }}
"""

FOLD_N3 = """
monoid N3 { gens: x0 x1 x2; rels: ; }
monoid N1 { gens: y; rels: ; }
ring Z { coeff: int; vars: ; ideal: ; }
prelog D { ring: Z; monoid: N3; alpha: x0 -> 2, x1 -> 2, x2 -> 2; units: builtin; }
prelog C { ring: Z; monoid: N1; alpha: y -> 2; units: builtin; }
map F { from: D; to: C; ring: ; monoid: x0 -> 1y, x1 -> 1y, x2 -> 1y; }
"""


@pytest.mark.parametrize("src, command, target", [
    (TORIC.format(coeff="rat"), "logdiag", "X"),
    (TORIC.format(coeff="int"), "logdiag", "X"),
    (TORIC.format(coeff="fp(3)"), "logdiag", "X"),
    (FOLD_N3, "repab", "F"),
    (FOLD_N3, "logdiag", "D"),
])
def test_fitting_payloads_of_large_presentations_are_fast(src, command, target):
    # 15 x 14 (toric) and 10 x 10 (fold) presentations, nearly all unit pivots
    start = time.perf_counter()
    report = run_command(command, parse(src), target, {})
    assert time.perf_counter() - start < 1.0
    fitting = report["result"]["fitting"]
    assert len(fitting) == len(report["result"]["module"]["generators"]) + 1
    if target == "X":  # free of rank 2: Fitt_0 = Fitt_1 = 0, then (1)
        ideal = report["result"]["module"]["ring"]["ideal"]
        assert fitting[0] == fitting[1] == ideal and all(f == ["1"] for f in fitting[2:])
    else:  # (Z/2)^3 plus a free part
        assert fitting[:4] == [["8"], ["4"], ["2"], ["1"]]


def _run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "loggeom.cli", *args],
        capture_output=True, text=True, cwd=cwd)


def test_cli_exit_codes(tmp_path):
    sample = tmp_path / "w.lg"
    sample.write_text(SAMPLE)
    ok = _run_cli(["gp", f"{sample}#Q"])
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["result"]["torsion"] == [2]

    usage = _run_cli(["gp", f"{sample}#NOPE"])
    assert usage.returncode == 1

    bad = tmp_path / "bad.lg"
    bad.write_text("monoid P { gens: x; rels: x = 0; }")
    syntax = _run_cli(["gp", f"{bad}#P"])
    assert syntax.returncode == 1

    # derivations over the rationals cannot be enumerated: unsupported
    unsupported_src = """
monoid P { gens: x; rels: ; }
ring Q { coeff: rat; vars: ; ideal: ; }
prelog X { ring: Q; monoid: P; alpha: x -> 0; units: none; }
module J { ring: Q; gens: g; rels: ; }
"""
    u = tmp_path / "u.lg"
    u.write_text(unsupported_src)
    unsupported = _run_cli(["derivations", f"{u}#X", "--module", "J"])
    assert unsupported.returncode == 2

    fmt = _run_cli(["fmt", str(sample)])
    assert fmt.returncode == 0 and "monoid P" in fmt.stdout


def test_cli_verdict_fail_still_exits_zero(tmp_path):
    src = """
monoid P { gens: x; rels: ; }
monoid M { gens: t; rels: ; }
ring RZ { coeff: int; vars: ; ideal: ; }
ring AZ { coeff: int; vars: t; ideal: t^2 - 3; }
prelog X { ring: RZ; monoid: P; alpha: x -> 3; units: builtin; }
prelog Y { ring: AZ; monoid: M; alpha: t -> t; units: none; }
map f { from: X; to: Y; ring: ; monoid: x -> 2t; }
"""
    s = tmp_path / "c.lg"
    s.write_text(src)
    res = _run_cli(["check-log-etale", f"{s}#f"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["result"]["overall"] is False


def test_cli_corpus_command():
    res = _run_cli(["corpus", CORPUS])
    assert res.returncode == 0
    assert "FAIL" not in res.stdout


def test_bound_env_override(monkeypatch):
    from loggeom.monoids import degree_bound
    monkeypatch.delenv("LOGGEOM_BOUND", raising=False)
    assert degree_bound() == 12
    monkeypatch.setenv("LOGGEOM_BOUND", "7")
    assert degree_bound() == 7
    assert degree_bound(3) == 3


def test_cli_adjoin_root_and_logdiag(tmp_path):
    src = """
monoid P { gens: x; rels: ; }
ring K { coeff: fp(3); vars: ; ideal: ; }
prelog X { ring: K; monoid: P; alpha: x -> 0; units: builtin; }
"""
    s = tmp_path / "r.lg"
    s.write_text(src)
    root = _run_cli(["adjoin-root", f"{s}#X", "--degree", "2"])
    assert root.returncode == 0
    report = json.loads(root.stdout)
    assert report["result"]["chart"]["overall"] is True
    wild = _run_cli(["adjoin-root", f"{s}#X", "--degree", "3"])
    assert json.loads(wild.stdout)["result"]["chart"]["overall"] is False
    diag = _run_cli(["logdiag", f"{s}#X"])
    assert diag.returncode == 0
    payload = json.loads(diag.stdout)["result"]
    assert payload["fitting"][0] == []          # Fitt0 of a free rank-1 module
    assert payload["fitting"][1] == ["1"]


def test_cli_precondition_violations_exit_one(tmp_path):
    src = """
monoid N { gens: y; rels: ; }
monoid M { gens: x; rels: ; }
ring Z { coeff: int; vars: ; ideal: ; }
prelog A { ring: Z; monoid: N; alpha: y -> 9; units: builtin; }
prelog B { ring: Z; monoid: M; alpha: x -> 3; units: builtin; }
map DBL { from: A; to: B; ring: ; monoid: y -> 2x; }
"""
    s = tmp_path / "p.lg"
    s.write_text(src)
    res = _run_cli(["repletion", f"{s}#DBL"])
    assert res.returncode == 1
    assert "virtually surjective" in res.stderr


def test_cli_logify_with_exact_unit_pullback(tmp_path):
    # alpha hits zero divisors (x and 1 - x in F_3 x F_3, or 2 and 3 in Z)
    # whose images generate the unit ideal; the unit preimage is still exact
    src = """
monoid T { gens: a b c; rels: ; }
ring A { coeff: fp(3); vars: x; ideal: x^2 - x; }
prelog X { ring: A; monoid: T; alpha: a -> x, b -> 1 - x, c -> 2; units: builtin; }
ring Z { coeff: int; vars: ; ideal: ; }
monoid P { gens: a b; rels: ; }
prelog Y { ring: Z; monoid: P; alpha: a -> 2, b -> 3; units: builtin; }
"""
    s = tmp_path / "u2.lg"
    s.write_text(src)
    for name in ("X", "Y"):
        res = _run_cli(["logify", f"{s}#{name}"])
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["result"]


def test_cli_factoring_cap_exits_two(tmp_path):
    # a product of two primes near 10^16: Pollard rho needs about 10^8
    # steps to split it, far past its 2^20-step budget
    n = 10000000000000061 * 10000000000000069
    s = tmp_path / "rho.lg"
    s.write_text(
        "monoid M { gens: a; rels: ; }\n"
        f"ring R {{ coeff: int_inv({n}); vars: ; ideal: ; }}\n"
        "prelog X { ring: R; monoid: M; alpha: a -> 2; units: builtin; }\n")
    res = _run_cli(["logify", f"{s}#X"])
    assert res.returncode == 2
    assert "1048576 Pollard rho steps" in res.stderr


@pytest.mark.parametrize("ring, units, args", [
    ("fp(2); vars: u; ideal: u^24", "builtin", ["logify"]),
    ("fp(3); vars: u v; ideal: u^3, v^3", "none", ["derivations", "--module", "J"]),
])
def test_cli_enumeration_caps_exit_two(tmp_path, ring, units, args):
    s = tmp_path / "cap.lg"
    s.write_text(
        "monoid Q { gens: m; rels: ; }\n"
        f"ring A {{ coeff: {ring}; }}\n"
        f"prelog X {{ ring: A; monoid: Q; alpha: m -> u; units: {units}; }}\n"
        "module J { ring: A; gens: j; rels: ; }\n")
    res = _run_cli([args[0], f"{s}#X", *args[1:]])
    assert res.returncode == 2
    assert "exceed the enumeration bound 100000" in res.stderr
