#!/usr/bin/env python3
"""HillVallEA benchmark on the CEC2013 niching problems 1-7 and 10.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lowd_sweep --seed 0 --seconds 45 --trace 0

With ``--trace 0`` it times whole runs with nothing patched and prints the
end-to-end metrics. The in-process workload runs its (problem, seed) runs in
turn, over and over, until the time is up, and ``wall_s`` adds up each run's
mean time; the campaign is repeated whole. With ``--trace 1`` it alternates
untraced and traced passes and prints the per-layer ledger (see ledger.py)
and the tracing overhead. ``--workload all`` runs every workload in turn.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run fails when it raises, uses more evaluations than the budget, has a
static F1 below 1.0, differs between its repeated runs, differs between its
traced and untraced passes, leaves evaluations unattributed in the ledger,
or (campaign) differs from the ``--jobs 1`` campaign of the same tasks.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Only the campaign's pool workers may keep cores busy; this is set before
# numpy is imported, here and in every child process.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

DEFAULT_SEED = 0
HELD_OUT_SEED = 1000  # for confirming a claim on inputs not tuned against
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    problems: tuple[int, ...]
    runs: int = 1  # seeds per problem: base seed, base seed + 1, ...
    jobs: int = 0  # 0: runs in this process; N: `hillvallea run --jobs N`

    def tasks(self, seed: int) -> list[tuple[int, int]]:
        return [(p, seed + k) for p in self.problems for k in range(self.runs)]


# A run's time depends on its seed: over seeds 0-11, problem 1 took from
# 1.3 to 2.7 s. lowd_sweep averages six seeds per problem, so that its time
# varies little with the base seed. Problems 8 and 9 have no workload: on a
# shared 2-core host the wall time of the same run of problem 8 varies by a
# tenth, and the time limit of all runs leaves room for two workloads of 45
# seconds (see README.md).
WORKLOADS = {
    "lowd_sweep": Workload((1, 2, 3, 4, 5), runs=6),
    "campaign_jobs2": Workload((6, 7, 10), jobs=2),
}
WARMUP_BUDGET = 2000  # evaluations of the untimed warm-up run per problem

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "us_per_eval": "us",
             "peak_ratio": "ratio", "static_f1": "ratio", "peaks_found": "count",
             "pass_ratio": "ratio", "peak_rss_mb": "MB"}
POOL_METRICS = ("cli.pool.busy_s", "cli.pool.efficiency", "trace.overhead_ratio")

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hillvallea
specs = [hillvallea.get_problem(int(p)) for p in sys.argv[2].split(",")]
print(time.perf_counter() - start)
"""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith(".efficiency"):
        return "ratio"
    if name.endswith("rows_per_call"):
        return "rows/call"
    if name.endswith("us_per_row"):
        return "us"
    return "count"


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def measure_setup(problems) -> float:
    """Median fresh-interpreter time to import hillvallea and get the specs."""
    arg = ",".join(map(str, problems))
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first one fills the bytecode cache
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), arg],
                             check=True, capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.strip()))
    return statistics.median(times[1:])


def warm_up(tasks) -> None:
    """Run each problem once on a small budget, untimed, so that lazy
    imports and first calls are not in the timings."""
    from hillvallea import run_hillvallea
    for spec in {spec.id: spec for spec, _ in tasks}.values():
        run_hillvallea(dataclasses.replace(
            spec, budget=min(spec.budget, WARMUP_BUDGET)), 0)
    gc.collect()


def repeat_for(seconds: float, fn):
    """Call ``fn`` at least once, and again while the next call is expected
    to be half done within ``seconds``, so that on average the calls take
    ``seconds``; return the list of its results."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) / 2 > seconds:
            return results


class Checks:
    """Failure reasons per (problem, seed) run."""

    def __init__(self, keys):
        self.reasons = {k: [] for k in keys}

    def fail(self, key, reason: str) -> None:
        self.reasons[key].append(reason)

    def score(self, key, spec, evaluations: int, static_f1: float) -> None:
        if evaluations > spec.budget:
            self.fail(key, f"used {evaluations} > budget {spec.budget} evaluations")
        if static_f1 < 1.0:
            self.fail(key, f"static F1 {static_f1} < 1.0")

    def same(self, key, a, b, what: str) -> None:
        if a != b:
            self.fail(key, f"{what} differ")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reasons.values() if r)

    def report(self) -> None:
        for key, reasons in self.reasons.items():
            for reason in reasons:
                print(f"FAIL problem {key[0]} seed {key[1]}: {reason}", file=sys.stderr)


# -- in-process workloads ------------------------------------------------

def run_task(run, spec, seed):
    """``run(spec, seed)``: (wall, report or the exception raised)."""
    start = time.perf_counter()
    try:
        report = run(spec, seed)
    except Exception as exc:  # a raising run is counted, not fatal
        traceback.print_exc()
        report = exc
    return time.perf_counter() - start, report


def round_robin(seconds: float, tasks, run, after_first_pass=None):
    """Run the tasks in turn, every one at least once, then over and over
    while the next one is expected to be half done within ``seconds``.
    Returns per task the list of its wall times and the list of its
    reports."""
    times = [[] for _ in tasks]
    reports = [[] for _ in tasks]
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(tasks)
        if i == len(tasks) and after_first_pass is not None:
            after_first_pass()
        if i >= len(tasks) and (time.perf_counter() - start
                                + statistics.fmean(times[k]) / 2 > seconds):
            return times, reports
        wall, report = run_task(run, *tasks[k])
        times[k].append(wall)
        reports[k].append(report)


def inprocess_pass(tasks, run):
    """One pass of ``run(spec, seed)`` over the tasks:
    (wall, busy, reports or the exceptions raised)."""
    reports, busy = [], 0.0
    start = time.perf_counter()
    for spec, seed in tasks:
        wall, report = run_task(run, spec, seed)
        reports.append(report)
        busy += wall
    return time.perf_counter() - start, busy, reports


def check_reports(checks, tasks, runs, label):
    """Per task, score the first of its reports in ``runs`` and compare the
    others against it; return the scores."""
    from hillvallea import score
    scores = []
    for (spec, seed), reports in zip(tasks, runs):
        key = (spec.id, seed)
        for report in reports:
            if isinstance(report, Exception):
                checks.fail(key, f"raised {report!r}")
        first = reports[0]
        if isinstance(first, Exception):
            continue
        sc = score(first.solutions, spec, evaluations_used=first.evaluations)
        checks.score(key, spec, first.evaluations, sc.static_f1)
        scores.append(sc)
        for report in reports[1:]:
            if not isinstance(report, Exception):
                checks.same(key, first.serialize(), report.serialize(), label)
    return scores


def run_inprocess(workload, seed, seconds, trace):
    from hillvallea import get_problem, run_hillvallea
    import ledger as ledger_mod
    tasks = [(get_problem(p), s) for p, s in workload.tasks(seed)]
    checks = Checks(workload.tasks(seed))
    warm_up(tasks)
    if not trace:
        # Peak RSS after the first pass over the tasks, so that the figure
        # does not depend on how many runs fit in the time.
        rss = []
        times, runs = round_robin(seconds, tasks, run_hillvallea, lambda: rss.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        scores = check_reports(checks, tasks, runs, "repeated runs")
        metrics = {
            "wall_s": sum(statistics.fmean(t) for t in times),
            "peak_ratio": mean_or_zero(s.peak_ratio for s in scores),
            "static_f1": mean_or_zero(s.static_f1 for s in scores),
            "peaks_found": sum(s.peaks_found for s in scores),
            "evaluations": sum(s.evaluations_used for s in scores),
            "peak_rss_mb": rss[0] / 1024}
        return checks, metrics

    def pair():
        untraced = inprocess_pass(tasks, run_hillvallea)
        led = ledger_mod.Ledger()
        with led.patched():
            traced = inprocess_pass(tasks, led.run)
        return untraced, traced, led, dict(
            led.metrics(), **pool_metrics(untraced[1], 1, untraced[0], traced[0]))

    pairs = repeat_for(seconds, pair)
    for untraced, traced, led, _ in pairs:
        check_reports(checks, tasks, zip(untraced[2], traced[2]),
                      "traced and untraced reports")
        check_ledger(checks, led)
    return checks, median_metrics([p[3] for p in pairs])


def mean_or_zero(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def pool_metrics(busy, jobs, wall, traced_wall) -> dict:
    """``cli.pool.*`` from an untraced pass, and the tracing overhead."""
    return dict(zip(POOL_METRICS, (busy, busy / (jobs * wall), traced_wall / wall)))


def check_ledger(checks, led) -> None:
    for r in led.runs:
        if r["attributed"] != r["evaluations"]:
            checks.fail((r["problem"], r["seed"]),
                        f"ledger attributes {r['attributed']} of "
                        f"{r['evaluations']} evaluations")


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- campaign workload ---------------------------------------------------

def read_campaign(csv_path: Path, reports_dir: Path) -> dict:
    """Per-(problem, seed) CSV row and report bytes of one campaign."""
    out = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["seed"] == "mean":
                continue
            key = (int(row["problem"]), int(row["seed"]))
            report = reports_dir / f"problem{key[0]:02d}_seed{key[1]}.txt"
            out[key] = (row, report.read_bytes() if report.exists() else None)
    return out


def check_campaign(checks, first, others):
    """Check the rows of campaign ``first`` and compare each of ``others``,
    a list of (campaign, label), against them."""
    from hillvallea import get_problem
    for key in checks.reasons:
        if key not in first:
            checks.fail(key, "missing from the campaign CSV")
            continue
        row = first[key][0]
        checks.score(key, get_problem(key[0]), int(row["evals"]), float(row["static_f1"]))
        for other, label in others:
            checks.same(key, first[key], other.get(key), label)


def tree_rss_bytes(pid: int) -> int:
    """Resident bytes of ``pid`` and all its descendants (Linux /proc)."""
    parent_of, rss = {}, {}
    page = os.sysconf("SC_PAGE_SIZE")
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        with contextlib.suppress(OSError, ValueError, IndexError):
            stat = Path(f"/proc/{entry}/stat").read_text()
            parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
            rss[int(entry)] = int(Path(f"/proc/{entry}/statm").read_text().split()[1]) * page
    total = 0
    for p in rss:
        q = p
        while q in parent_of and q != pid:
            q = parent_of[q]
        if q == pid:
            total += rss[p]
    return total


def run_cli(args, tmp: Path, tag: str):
    """Run the `hillvallea run` CLI; return wall, peak tree RSS and results."""
    out_csv, reports = tmp / f"{tag}.csv", tmp / tag
    cmd = [sys.executable, "-m", "hillvallea.cli", "run", *args,
           "--out", str(out_csv), "--reports-dir", str(reports)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    peak = 0
    done = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)

    def sample():
        nonlocal peak
        while not done.wait(0.05):
            peak = max(peak, tree_rss_bytes(proc.pid))

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        code = proc.wait(timeout=170)
    finally:
        wall = time.perf_counter() - start
        done.set()
        sampler.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {code}")
    return wall, peak, read_campaign(out_csv, reports)


def run_pool(workload, seed, tmp: Path, tag: str, task_fn):
    """One campaign through ``cli.cmd_run`` in this process, with each pool
    task replaced by ``task_fn`` (see ledger.py); returns wall, spool
    records and results."""
    from hillvallea import cli
    import ledger as ledger_mod
    spool = tmp / f"{tag}-spool"
    spool.mkdir()
    config = cli.CampaignConfig(
        problem_ids=list(workload.problems), runs=workload.runs, base_seed=seed,
        out_path=str(tmp / f"{tag}.csv"), jobs=workload.jobs,
        reports_dir=str(tmp / tag))
    os.environ[ledger_mod.SPOOL_ENV] = str(spool)
    try:
        with ledger_mod.patch(cli, "_single_run_star", task_fn):
            start = time.perf_counter()
            code = cli.cmd_run(config, out=io.StringIO())
            wall = time.perf_counter() - start
    finally:
        del os.environ[ledger_mod.SPOOL_ENV]
    if code != 0:
        raise RuntimeError(f"campaign exited with {code}")
    records = [json.loads(p.read_text()) for p in sorted(spool.iterdir())]
    return wall, records, read_campaign(tmp / f"{tag}.csv", tmp / tag)


def run_campaign(workload, seed, seconds, trace, tmp: Path):
    import ledger as ledger_mod
    checks = Checks(workload.tasks(seed))
    tags = itertools.count()
    if not trace:
        args = ["--problems", ",".join(map(str, workload.problems)),
                "--runs", str(workload.runs), "--seed", str(seed)]
        passes = repeat_for(seconds, lambda: run_cli(
            args + ["--jobs", str(workload.jobs)], tmp, f"pass{next(tags)}"))
        reference = run_cli(args + ["--jobs", "1"], tmp, "jobs1")
        check_campaign(checks, passes[0][2],
                       [(p[2], "repeated campaigns") for p in passes[1:]]
                       + [(reference[2], "--jobs 1 and --jobs N campaigns")])
        rows = [row for row, _ in passes[0][2].values()]
        metrics = {
            "wall_s": statistics.median(p[0] for p in passes),
            "peak_ratio": mean_or_zero(float(r["peak_ratio"]) for r in rows),
            "static_f1": mean_or_zero(float(r["static_f1"]) for r in rows),
            "peaks_found": sum(int(r["peaks_found"]) for r in rows),
            "evaluations": sum(int(r["evals"]) for r in rows),
            "peak_rss_mb": statistics.median(p[1] for p in passes) / 2 ** 20}
        return checks, metrics

    def pair():
        i = next(tags)
        untraced = run_pool(workload, seed, tmp, f"untraced{i}", ledger_mod.timed_task)
        traced = run_pool(workload, seed, tmp, f"traced{i}", ledger_mod.traced_task)
        led = ledger_mod.Ledger()
        for record in traced[1]:
            led.merge(record["ledger"])
        busy = sum(r["busy_s"] for r in untraced[1])
        return untraced, traced, led, dict(
            led.metrics(), **pool_metrics(busy, workload.jobs, untraced[0], traced[0]))

    pairs = repeat_for(seconds, pair)
    for untraced, traced, led, _ in pairs:
        check_campaign(checks, untraced[2], [(traced[2], "traced and untraced campaigns")])
        check_ledger(checks, led)
    return checks, median_metrics([p[3] for p in pairs])


# -- driver --------------------------------------------------------------

def run_workload(name, seed, seconds, trace, tmp: Path):
    workload = WORKLOADS[name]
    if workload.jobs:
        checks, metrics = run_campaign(workload, seed, seconds, trace, tmp)
    else:
        checks, metrics = run_inprocess(workload, seed, seconds, trace)
    checks.report()
    attempted = len(checks.reasons)
    if not trace:
        evals = metrics.pop("evaluations")
        metrics["us_per_eval"] = 1e6 * metrics["wall_s"] / evals if evals else 0.0
        metrics["pass_ratio"] = (attempted - checks.failed) / attempted
        metrics["setup_s"] = measure_setup(workload.problems)
        units = E2E_UNITS
    else:
        units = {k: layer_unit(k) for k in metrics}
    return attempted, checks.failed, {
        k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base seed of the runs (held-out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hillvallea" / "__init__.py").is_file():
        print(f"error: no hillvallea sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import hillvallea
    if Path(hillvallea.__file__).resolve().parent != SRC / "hillvallea":
        print(f"error: imported hillvallea from {hillvallea.__file__}", file=sys.stderr)
        return 2

    print("machine", json.dumps(machine_record()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in names:
            (tmp / name).mkdir()
            a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                   tmp / name)
            attempted += a
            failed += f
            prefix = f"{name}." if args.workload == "all" else ""
            for key, v in m.items():
                print(f"{name} {key} {v['value']!r} {v['unit']}")
                metrics[prefix + key] = v
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
