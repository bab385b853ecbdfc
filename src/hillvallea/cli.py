"""Command-line harness: `list` the catalog, `run` seeded benchmark
campaigns to CSV, and `score` stored run reports offline.
"""

from __future__ import annotations

import argparse
import csv
import math
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import benchmarks
from .benchmarks import UnavailableProblem, get_problem
from .orchestrator import RunReport, run_hillvallea
from .scoring import DEFAULT_EPSILON, Score, aggregate, score

CSV_HEADER = ["problem", "seed", "evals", "peaks_found", "peak_ratio",
              "static_f1", "f1_harmonic"]


@dataclass
class CampaignConfig:
    problem_ids: list[int]
    runs: int = 50
    base_seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    out_path: str = "results.csv"
    jobs: int = 1
    reports_dir: str | None = None

    def __post_init__(self):
        ids = self.problem_ids
        if not ids:
            raise ValueError("no problems selected")
        for name, minimum, value in (("runs", 1, self.runs), ("jobs", 1, self.jobs),
                                     ("seed", 0, self.base_seed),  # numpy: seed >= 0
                                     *(("problem id", -math.inf, pid) for pid in ids)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            check_int(name, minimum, value)
        repeated = [pid for i, pid in enumerate(ids) if pid in ids[:i]]
        if repeated:
            raise ValueError(f"problem {repeated[0]} is selected more than once")
        check_epsilon(self.epsilon)


def check_int(name: str, minimum: float, value: int | str) -> int:
    """``value`` as an integer, if it is one and at least ``minimum``."""
    try:
        value = int(value)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer ({exc})") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_epsilon(epsilon: float) -> float:
    """``epsilon``, if it is finite and at least ``DEFAULT_EPSILON``."""
    if not (math.isfinite(epsilon) and epsilon >= DEFAULT_EPSILON):
        raise ValueError(f"epsilon must be finite and >= {DEFAULT_EPSILON}, "
                         f"got {epsilon}")
    return epsilon


def problem_id(text: str) -> int:
    """``text`` as a problem id: any integer. An unknown one is not a usage
    error but the command's failure (status 1)."""
    return check_int("problem id", -math.inf, text)


def parse_problem_ids(text: str) -> list[int]:
    """Parse '1-5,7,10' style problem selections.

    A range is split at its first '-' after the first character, so a
    leading '-' is an id's sign ('-3' is the id -3, an unknown one). A
    reversed range such as '5-1' and a selection of no problems raise
    ``ValueError``.
    """
    ids: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        cut = part.find("-", 1)
        if cut > 0:
            lo, hi = problem_id(part[:cut]), problem_id(part[cut + 1:])
            if lo > hi:
                raise ValueError(f"reversed problem range '{part}'")
            ids.extend(range(lo, hi + 1))
        else:
            ids.append(problem_id(part))
    if not ids:
        raise ValueError(f"no problems selected by '{text}'")
    return sorted(set(ids))


def _arg(parse, *args):
    """An argparse type: ``parse(*args, text)``, its ValueError a usage error."""
    def convert(text: str):
        try:
            return parse(*args, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _single_run(problem_id: int, seed: int, epsilon: float) -> tuple[RunReport, Score]:
    spec = get_problem(problem_id)
    report = run_hillvallea(spec, seed)
    return report, score(report.solutions, spec, epsilon, report.evaluations)


def pool_workers(jobs: int, n_tasks: int, cpu_count: int | None) -> int:
    """Worker processes for a campaign: ``jobs``, capped by the task
    count and the CPU count (taken as 1 when unknown)."""
    return max(1, min(jobs, n_tasks, cpu_count or 1))


def _fail(message: object) -> int:
    """Report a command failure: one ``error:`` line on stderr, status 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_list(problem_ids: list[int] | None = None, out=None) -> int:
    for pid in problem_ids or ():
        if pid not in benchmarks.ALL_IDS:
            return _fail(f"unknown problem id {pid}")
    for entry in benchmarks.catalog():
        if problem_ids and entry.id not in problem_ids:
            continue
        status = "available" if entry.available else "unavailable"
        print(f"{entry.id:3d}  {entry.name:<26s} d={entry.dimension:<3d} "
              f"gopt={entry.num_global_optima:<4d} budget={entry.budget:<7d} "
              f"{status}", file=out)
    return 0


def cmd_run(config: CampaignConfig, out=None) -> int:
    for pid in config.problem_ids:
        try:
            get_problem(pid)
        except (UnavailableProblem, ValueError) as exc:
            return _fail(exc)
    csv_path = Path(config.out_path)
    if csv_path.is_dir() or not csv_path.parent.is_dir():
        why = ("it is a directory" if csv_path.is_dir()
               else f"{csv_path.parent} is not a directory")
        return _fail(f"cannot write {csv_path}: {why}")
    tasks = [(pid, config.base_seed + i, config.epsilon)
             for pid in config.problem_ids for i in range(config.runs)]
    paths = []  # of the reports, in task order
    if config.reports_dir is not None:
        rdir = Path(config.reports_dir)
        try:
            rdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _fail(f"cannot create {rdir}: {exc}")
        paths = [rdir / f"problem{pid:02d}_seed{seed}.txt" for pid, seed, _ in tasks]
    for path in paths:
        if path.is_dir():
            return _fail(f"cannot write {path}: it is a directory")

    workers = pool_workers(config.jobs, len(tasks), os.cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_single_run_star, tasks))
    else:
        results = [_single_run(*t) for t in tasks]

    rows = []
    per_problem: dict[int, list[Score]] = {pid: [] for pid in config.problem_ids}
    for (pid, seed, _), (report, sc) in zip(tasks, results):
        per_problem[pid].append(sc)
        rows.append([pid, seed, report.evaluations, sc.peaks_found,
                     repr(sc.peak_ratio), repr(sc.static_f1), repr(sc.f1_harmonic)])
    aggs = {pid: aggregate(scores) for pid, scores in per_problem.items()}
    for pid, agg in aggs.items():
        rows.append([pid, "mean", repr(agg.mean_evaluations),
                     repr(agg.mean_peak_ratio * get_problem(pid).num_global_optima),
                     repr(agg.mean_peak_ratio), repr(agg.mean_static_f1),
                     repr(agg.mean_f1_harmonic)])

    try:
        for path, (report, _) in zip(paths, results):
            path.write_text(report.serialize())
        path = config.out_path
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc}")
    for pid, agg in aggs.items():
        print(f"problem {pid}: mean PR = {agg.mean_peak_ratio:.4f}, "
              f"mean static F1 = {agg.mean_static_f1:.4f} over {agg.runs} runs",
              file=out)
    return 0


# A wrapper only so that perfbench's ledger can swap in a timed pool task;
# it goes once the ledger reads a run trace.
def _single_run_star(task):
    return _single_run(*task)


def cmd_score(report_path: str, problem_id: int,
              epsilon: float = DEFAULT_EPSILON, out=None) -> int:
    try:
        spec = get_problem(problem_id)
        report = RunReport.parse(Path(report_path).read_text())
    except (OSError, ValueError, UnavailableProblem) as exc:
        return _fail(exc)
    if report.problem_id != problem_id:
        return _fail(f"report is for problem {report.problem_id}, not {problem_id}")
    if report.evaluations < 0:
        return _fail(f"report has a negative evaluation count ({report.evaluations})")
    try:
        sc = score(report.solutions, spec, epsilon, report.evaluations)
    except ValueError as exc:
        return _fail(exc)
    print(f"peak_ratio = {sc.peak_ratio}", file=out)
    print(f"static_f1 = {sc.static_f1}", file=out)
    print(f"f1_harmonic = {sc.f1_harmonic}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    problem_ids = _arg(parse_problem_ids)
    epsilon = _arg(lambda text: check_epsilon(float(text)))
    parser = argparse.ArgumentParser(
        prog="hillvallea",
        description="Multimodal optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the benchmark catalog")
    p_list.add_argument("--problems", type=problem_ids, default=None)

    p_run = sub.add_parser("run", help="run a seeded benchmark campaign")
    p_run.add_argument("--problems", type=problem_ids, required=True)
    p_run.add_argument("--runs", type=_arg(check_int, "runs", 1), default=50)
    p_run.add_argument("--seed", type=_arg(check_int, "seed", 0), default=0)
    p_run.add_argument("--epsilon", type=epsilon, default=DEFAULT_EPSILON)
    p_run.add_argument("--out", default="results.csv")
    p_run.add_argument("--jobs", type=_arg(check_int, "jobs", 1), default=1)
    p_run.add_argument("--reports-dir", default=None)

    p_score = sub.add_parser("score", help="score a stored run report")
    p_score.add_argument("report")
    p_score.add_argument("--problem", type=_arg(problem_id), required=True)
    p_score.add_argument("--epsilon", type=epsilon, default=DEFAULT_EPSILON)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(args.problems)
    if args.command == "run":
        # argparse has validated every field, so the config cannot reject them
        return cmd_run(CampaignConfig(
            problem_ids=args.problems, runs=args.runs, base_seed=args.seed,
            epsilon=args.epsilon, out_path=args.out, jobs=args.jobs,
            reports_dir=args.reports_dir))
    # the subcommand is required, so the only one left is "score"
    return cmd_score(args.report, args.problem, args.epsilon)


if __name__ == "__main__":
    sys.exit(main())
