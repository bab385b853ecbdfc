"""Self-tests of the benchmark's ledger: ``python3 -m pytest perfbench``."""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ledger  # noqa: E402
from hillvallea import BudgetExhausted, cli, get_problem, orchestrator, run_hillvallea  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_nested_self_time_and_evals_subtract_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(ledger.time, "perf_counter", clock)
    led = ledger.Ledger()

    def inner(e):
        clock.t += 2.0
        e.used += 3

    w_inner = led.wrap(inner, "inner", 0)

    def outer(e):
        clock.t += 1.0
        e.used += 1
        w_inner(e)
        w_inner(e)
        clock.t += 4.0
        e.used += 5

    led.wrap(outer, "outer", 0)(SimpleNamespace(used=0))
    assert led.stats["outer"]["self_s"] == 5.0
    assert led.stats["outer"]["evals"] == 6
    assert led.stats["inner"]["self_s"] == 4.0
    assert led.stats["inner"]["evals"] == 6
    assert led.stats["inner"]["calls"] == 2


def test_budget_exhausted_is_recorded_and_reraised(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(ledger.time, "perf_counter", clock)
    led = ledger.Ledger()

    def inner(e):
        clock.t += 2.0
        e.used += 3
        raise BudgetExhausted()

    w_inner = led.wrap(inner, "inner", 0)

    def outer(e):
        clock.t += 1.0
        try:
            w_inner(e)
        except BudgetExhausted:
            clock.t += 1.0
            raise

    with pytest.raises(BudgetExhausted):
        led.wrap(outer, "outer", 0)(e=SimpleNamespace(used=0))
    assert led.stats["inner"]["evals"] == 3
    assert led.stats["outer"]["self_s"] == 2.0
    assert led.stats["outer"]["evals"] == 0


@pytest.mark.parametrize("problem_id, budget", [(4, 3000), (8, 20000)])
def test_layer_evals_sum_to_report_evaluations(problem_id, budget):
    spec = dataclasses.replace(get_problem(problem_id), budget=budget)
    originals = [getattr(m, name) for m, name, *_ in ledger.PATCH_POINTS]
    led = ledger.Ledger()
    with led.patched():
        traced = led.run(spec, 0)
    assert [getattr(m, name) for m, name, *_ in ledger.PATCH_POINTS] == originals
    assert traced.evaluations == budget
    assert led.runs[0]["attributed"] == budget
    assert led.stats[ledger.LOOP]["evals"] == 0
    assert led.stats[ledger.OBJECTIVE]["rows"] == budget
    assert traced.serialize() == run_hillvallea(spec, 0).serialize()


def test_traced_pool_task_spools_its_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv(ledger.SPOOL_ENV, str(tmp_path))
    task = (4, 0, 1e-5)
    report, score = ledger.traced_task(task)
    assert cli.run_hillvallea is orchestrator.run_hillvallea
    assert report.serialize() == cli._single_run(*task)[0].serialize()
    record = ledger.json.loads((tmp_path / "4-0.json").read_text())
    run = record["ledger"]["runs"][0]
    assert run["attributed"] == run["evaluations"] == report.evaluations
    assert record["busy_s"] > 0


def test_emitted_metric_names_match_benchmark_json():
    import run
    bench = ledger.json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layers = set(ledger.Ledger().metrics()) | set(run.POOL_METRICS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: run.layer_unit(name) for name in layers}


def test_workload_names_match_benchmark_json():
    import run
    bench = ledger.json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_round_robin_runs_every_task_and_stops_in_time(monkeypatch):
    import run
    clock = FakeClock()
    monkeypatch.setattr(run.time, "perf_counter", clock)
    cost = {"a": 4.0, "b": 1.0}

    def fake_run(spec, seed):
        clock.t += cost[spec]
        return spec

    passes = []
    times, reports = run.round_robin(12.0, [("a", 0), ("b", 0)], fake_run,
                                     lambda: passes.append(clock.t))
    # a b | a b | a: the next b would be half done at 14.5 > 12 seconds
    assert times == [[4.0, 4.0, 4.0], [1.0, 1.0]]
    assert reports == [["a", "a", "a"], ["b", "b"]]
    assert passes == [5.0]
    times, _ = run.round_robin(1.0, [("a", 0), ("b", 0)], fake_run)
    assert times == [[4.0], [1.0]]
