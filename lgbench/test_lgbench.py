"""Tests of the benchmark itself: python3 -m pytest lgbench"""

import json

import pytest

import run
from oracles import check
from speed import REFERENCE_S, factors
from tracing import covered_length, self_times
from worker import Worker, run_task
from workloads import WORKLOADS, Plan, toric_ws

run.load_program()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = [json.dumps(Plan(workload, 7, run.ROOT).cycle(c), sort_keys=True) for c in (0, 1)]
    b = [json.dumps(Plan(workload, 7, run.ROOT).cycle(c), sort_keys=True) for c in (0, 1)]
    other = json.dumps(Plan(workload, 8, run.ROOT).cycle(0), sort_keys=True)
    assert a == b
    assert a[0] != other


def _first(workload, pred, seed=3):
    for c in range(4):
        for task in Plan(workload, seed, run.ROOT).cycle(c):
            if pred(task):
                return task
    raise AssertionError("no such task in the first cycles")


def _corrupt_and_check(task, mutate):
    result = run_task(task)
    assert result["status"] == "ok", result
    assert check(task, result["output"]) is None
    bad = mutate(json.loads(result["output"]))
    return check(task, json.dumps(bad, indent=2, sort_keys=True) + "\n")


def test_oracle_catches_corrupted_tame_root_verdict():
    task = _first("cli-cold", lambda t: t["family"] == "tame-root")

    def flip(report):
        report["result"]["chart"]["overall"] = not report["result"]["chart"]["overall"]
        return report
    assert _corrupt_and_check(task, flip)


def test_oracle_catches_corrupted_derivation_count():
    task = _first("cli-cold", lambda t: t.get("cmd") == "derivations")

    def drop(report):
        report["result"]["derivations"] = report["result"]["derivations"][1:]
        report["result"]["count"] -= 1
        return report
    assert _corrupt_and_check(task, drop)


def test_oracle_catches_corrupted_gp_torsion():
    task = _first("cli-cold", lambda t: t["family"] == "gp-presented")

    def twist(report):
        report["result"]["torsion"] = report["result"]["torsion"] + [2]
        return report
    assert _corrupt_and_check(task, twist)


def test_oracle_catches_corrupted_snf_certificate():
    task = _first("lattice", lambda t: t["kind"] == "snf" and t["family"].startswith("snf-6x6"))

    def bump(out):
        out["d"][0][0] += 1
        return out
    result = run_task(task)
    assert check(task, result["output"]) is None
    assert check(task, json.dumps(bump(json.loads(result["output"]))))


def test_oracle_catches_a_wrong_groebner_basis():
    task = _first("groebner", lambda t: t["kind"] == "gb" and t["dom"] == "Q")

    def drop(out):
        out["basis"] = out["basis"][:-1]
        return out
    result = run_task(task)
    assert check(task, result["output"]) is None
    assert check(task, json.dumps(drop(json.loads(result["output"]))))


def test_deadline_kills_slow_logdiag_and_respawns():
    task = {"id": "slow", "kind": "cli", "cache": "clear", "family": "toric-rat",
            "src": toric_ws("s", "rat"), "cmd": "logdiag", "target": "X_s",
            "options": {}, "check": {}}
    worker = Worker()
    try:
        first = worker.proc.pid
        result = worker.run(task, 0.5)
        assert result["status"] == "timeout"
        assert result["seconds"] >= 0.5
        assert worker.respawns == 1 and worker.proc.pid != first
        assert worker.run({"id": "p", "kind": "ping", "cache": "keep"}, 10)["status"] == "ok"
    finally:
        worker.close()
    assert not worker.proc.is_alive()


def test_self_time_subtracts_child_cover():
    spans = [
        (1, "root", 0.0, 10.0, None, "t"),
        (2, "child", 1.0, 4.0, 1, "t"),
        (3, "child", 3.0, 6.0, 1, "t"),    # overlaps the first child
        (4, "leaf", 2.0, 2.5, 2, "t"),
        (5, "root", 0.0, 1.0, None, "u"),  # another task: ids do not collide
        (1, "root", 20.0, 21.0, None, "v"),
    ]
    st = self_times(spans)
    assert st["root"][0] == 3
    assert st["root"][1] == pytest.approx((10.0 - 5.0) + 1.0 + 1.0)
    assert st["child"] == (2, pytest.approx((3.0 - 0.5) + 3.0))
    assert st["leaf"] == (1, pytest.approx(0.5))


def test_covered_length_clips_to_the_parent():
    assert covered_length([(-1.0, 2.0), (1.5, 3.0), (5.0, 9.0)], 0.0, 6.0) == pytest.approx(4.0)
    assert covered_length([], 0.0, 1.0) == 0.0


def test_percentile_estimates_the_quantile_smoothly():
    values = list(range(1000))
    assert run.percentile(values, 0.5) == pytest.approx(499.5, abs=0.5)
    assert run.percentile(values, 0.9) == pytest.approx(899.5, abs=2)
    # a gap between two task types: one task changing sides moves the
    # estimate by a small step, not across the whole gap
    low = [1.0] * 95 + [2.0] * 105
    high = [1.0] * 94 + [2.0] * 106
    assert abs(run.percentile(low, 0.5) - run.percentile(high, 0.5)) < 0.1


def test_calibration_uses_the_samples_either_side_of_a_task():
    samples = [(2.0, 0.004), (0.0, 0.001), (1.0, 0.002)]
    got = factors(samples, [(0.2, 0.8), (1.5, 1.9), (2.5, 3.0)])
    assert got == pytest.approx([REFERENCE_S / 0.0015, REFERENCE_S / 0.003, REFERENCE_S / 0.004])
    assert factors([], [(0.0, 1.0)]) == [1.0]
