"""Outside-in per-layer ledger for HillVallEA runs.

Each layer's public functions are wrapped at the module attribute through
which their callers look them up, and the objective is wrapped with
``dataclasses.replace``, so the program itself is not modified. Spans nest:
a layer's self time is its span minus its child spans, and its evals are
the ``BudgetedEvaluator.used`` delta minus the evals of its child spans.
The root span is ``run_hillvallea`` itself (``orchestrator.loop``); every
evaluation of a run must be attributed to a wrapped layer below it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import time
from collections import defaultdict

from hillvallea import amalgam, cli, hillvalley, orchestrator

LOOP = "orchestrator.loop"
OBJECTIVE = "benchmarks.objective"
HVT = "hillvalley.hill_valley_test"


def _count(key):
    def observe(st, result):
        st[key] += bool(result)
    return observe


def _clusters(st, result):
    st["clusters"] += len(result)


def _same_niche(st, result):
    st["same_niche"] += result.same_niche


def _core_search(st, result):
    _, reason, gens = result
    st["generations"] += gens
    st["term." + reason.value] += 1


def _archive_outcome(st, result):
    st[result] += 1


# (module, attribute looked up there, layer, position of the evaluator
# argument, observer of the return value)
PATCH_POINTS = [
    (orchestrator, "uniform_init", "problem.uniform_init", 0, None),
    (orchestrator, "cluster_population", "hillvalley.cluster_population", 1, _clusters),
    (orchestrator, "run_core_search", "amalgam.run_core_search", 3, _core_search),
    (orchestrator, "archive_insert", "orchestrator.archive_insert", 3, _archive_outcome),
    (orchestrator, "_precheck_skip", "orchestrator._precheck_skip", 2, _count("skips")),
    (orchestrator, "hill_valley_test", HVT, 3, _same_niche),
    (hillvalley, "hill_valley_test", HVT, 3, _same_niche),
    (amalgam, "hill_valley_test", HVT, 3, _same_niche),
    (amalgam, "check_reexploration", "amalgam.check_reexploration", 2, _count("hits")),
]


@contextlib.contextmanager
def patch(module, name, value):
    """Set ``module.name`` to ``value`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


class Ledger:
    """Per-layer time, eval and outcome counters, collected from spans."""

    def __init__(self):
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.runs: list[dict] = []  # one entry per traced run_hillvallea call
        self._stack: list[list] = []  # [start, used at start, child s, child evals]

    def _enter(self, used: int) -> list:
        frame = [time.perf_counter(), used, 0.0, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list, used: int) -> float:
        duration = time.perf_counter() - frame[0]
        self._stack.pop()
        evals = used - frame[1]
        st = self.stats[layer]
        st["calls"] += 1
        st["self_s"] += duration - frame[2]
        st["evals"] += evals - frame[3]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3] += evals
        return duration

    def wrap(self, fn, layer: str, e_pos: int, observe=None):
        """Wrap ``fn`` so each call is a span of ``layer``.

        The evaluator is read from positional argument ``e_pos`` (or the
        keyword ``e``). Exceptions, ``BudgetExhausted`` included, are
        recorded with the span and re-raised.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            e = args[e_pos] if len(args) > e_pos else kwargs["e"]
            frame = self._enter(e.used)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, frame, e.used)
            if observe is not None:
                observe(self.stats[layer], result)
            return result
        return wrapper

    def wrap_objective(self, fn):
        @functools.wraps(fn)
        def objective(X):
            frame = self._enter(0)
            try:
                return fn(X)
            finally:
                self._exit(OBJECTIVE, frame, 0)
                self.stats[OBJECTIVE]["rows"] += len(X)
        return objective

    @contextlib.contextmanager
    def patched(self):
        """Install every layer wrapper; all are removed on exit."""
        with contextlib.ExitStack() as stack:
            for module, name, layer, e_pos, observe in PATCH_POINTS:
                wrapped = self.wrap(getattr(module, name), layer, e_pos, observe)
                stack.enter_context(patch(module, name, wrapped))
            yield self

    def attributed_evals(self) -> int:
        return int(sum(st["evals"] for layer, st in self.stats.items()
                       if layer != LOOP))

    def run(self, spec, seed):
        """``run_hillvallea`` as the root span, with the objective wrapped.

        Call inside ``patched()`` so the layers below are traced. Records
        the run's evaluations next to the evals its layers account for.
        """
        before = self.attributed_evals()
        traced = dataclasses.replace(spec, objective=self.wrap_objective(spec.objective))
        frame = self._enter(0)
        report = None
        try:
            report = orchestrator.run_hillvallea(traced, seed)
        finally:
            used = report.evaluations if report is not None else frame[3]
            duration = self._exit(LOOP, frame, used)
        self.runs.append({"problem": spec.id, "seed": seed, "wall_s": duration,
                          "evaluations": report.evaluations,
                          "attributed": self.attributed_evals() - before})
        return report

    def to_dict(self) -> dict:
        return {"stats": {k: dict(v) for k, v in self.stats.items()},
                "runs": self.runs}

    def merge(self, data: dict) -> None:
        for layer, st in data["stats"].items():
            for key, value in st.items():
                self.stats[layer][key] += value
        self.runs.extend(data["runs"])

    def metrics(self) -> dict[str, float]:
        """Flatten the counters into per-layer metric values."""
        s = self.stats
        out: dict[str, float] = {}
        for layer, keys in [
                ("problem.uniform_init", ()),
                ("hillvalley.cluster_population", ("clusters",)),
                (HVT, ()),
                ("amalgam.run_core_search", ("generations",)),
                ("amalgam.check_reexploration", ()),
                ("orchestrator.archive_insert", ("appended", "replaced", "discarded")),
                ("orchestrator._precheck_skip", ())]:
            for key in ("self_s", "calls", "evals") + keys:
                out[f"{layer}.{key}"] = s[layer][key]
        for reason in amalgam.TerminationReason:
            out[f"amalgam.run_core_search.term.{reason.value}"] = \
                s["amalgam.run_core_search"]["term." + reason.value]
        out[f"{HVT}.same_niche_ratio"] = _ratio(s[HVT]["same_niche"], s[HVT]["calls"])
        reexp = s["amalgam.check_reexploration"]
        out["amalgam.check_reexploration.hit_ratio"] = _ratio(reexp["hits"], reexp["calls"])
        ins = s["orchestrator.archive_insert"]
        out["orchestrator.archive_insert.useful_ratio"] = _ratio(
            ins["appended"] + ins["replaced"], ins["calls"])
        pre = s["orchestrator._precheck_skip"]
        out["orchestrator._precheck_skip.skip_ratio"] = _ratio(pre["skips"], pre["calls"])
        out["orchestrator.rounds"] = s["problem.uniform_init"]["calls"]
        out["orchestrator.loop.self_s"] = s[LOOP]["self_s"]
        obj = s[OBJECTIVE]
        out[f"{OBJECTIVE}.self_s"] = obj["self_s"]
        out[f"{OBJECTIVE}.calls"] = obj["calls"]
        out[f"{OBJECTIVE}.rows"] = obj["rows"]
        out[f"{OBJECTIVE}.rows_per_call"] = _ratio(obj["rows"], obj["calls"])
        out[f"{OBJECTIVE}.us_per_row"] = 1e6 * _ratio(obj["self_s"], obj["rows"])
        traced_wall = sum(r["wall_s"] for r in self.runs)
        out["outside_objective_s"] = traced_wall - obj["self_s"]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Pool-worker replacements for ``hillvallea.cli._single_run_star``. They are
# module-level so the pool can pickle them by name; each writes its record
# to the directory named by SPOOL_ENV, which the parent reads after the pool
# has shut down.
SPOOL_ENV = "PERFBENCH_SPOOL"


def _spool(task, busy_s: float, ledger: Ledger | None) -> None:
    record = {"busy_s": busy_s,
              "ledger": ledger.to_dict() if ledger is not None else None}
    path = os.path.join(os.environ[SPOOL_ENV], f"{task[0]}-{task[1]}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)


def timed_task(task):
    """``cli._single_run`` with only its busy time recorded."""
    start = time.perf_counter()
    result = cli._single_run(*task)
    _spool(task, time.perf_counter() - start, None)
    return result


def traced_task(task):
    """``cli._single_run`` with every layer traced."""
    ledger = Ledger()
    start = time.perf_counter()
    with ledger.patched(), patch(cli, "run_hillvallea", ledger.run):
        result = cli._single_run(*task)
    _spool(task, time.perf_counter() - start, ledger)
    return result
