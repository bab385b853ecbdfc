import csv
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hillvallea import cli
from hillvallea.benchmarks import UnavailableProblem, get_problem
from hillvallea.cli import (CSV_HEADER, CampaignConfig, cmd_list, main,
                            parse_problem_ids, pool_workers)
from hillvallea.orchestrator import RunReport, run_hillvallea


def assert_failed(capfd, rc, message):
    """The command failure convention: status 1, nothing on stdout and
    exactly one ``error: message`` line on stderr."""
    out, err = capfd.readouterr()
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def raised(fn, *args):
    """The exception ``fn(*args)`` raises, for the message a command
    reports."""
    with pytest.raises((OSError, ValueError, UnavailableProblem)) as exc_info:
        fn(*args)
    return exc_info.value


class TestParseProblemIds:
    def test_single(self):
        assert parse_problem_ids("4") == [4]

    def test_range(self):
        assert parse_problem_ids("1-5") == [1, 2, 3, 4, 5]

    def test_mixed_with_duplicates(self):
        assert parse_problem_ids("3,1-3,10") == [1, 2, 3, 10]

    def test_whitespace_and_empty_parts(self):
        assert parse_problem_ids(" 2 , 4 ,") == [2, 4]

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="problem id must be an integer"):
            parse_problem_ids("two")

    @pytest.mark.parametrize("text, ids", [("-3", [-3]), ("-3--1", [-3, -2, -1]),
                                           ("-1-1", [-1, 0, 1]), ("2,-3", [-3, 2])])
    def test_leading_minus_is_a_sign(self, text, ids):
        # a range is split at a '-' after the first character only
        assert parse_problem_ids(text) == ids

    @pytest.mark.parametrize("text, bad", [("1-x", "x"), ("3-", ""), ("--3", "-")])
    def test_non_integer_id_message(self, text, bad):
        with pytest.raises(ValueError) as exc_info:
            parse_problem_ids(text)
        assert str(exc_info.value) == ("problem id must be an integer (invalid "
                                       f"literal for int() with base 10: '{bad}')")

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="reversed"):
            parse_problem_ids("5-1")

    @pytest.mark.parametrize("text", ["", " , ,"])
    def test_empty_selection_rejected(self, text):
        with pytest.raises(ValueError, match="no problems"):
            parse_problem_ids(text)


class TestCampaignConfig:
    def test_rejects_empty_selection(self):
        with pytest.raises(ValueError, match="no problems"):
            CampaignConfig(problem_ids=[])

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            CampaignConfig(problem_ids=[1], runs=0)

    def test_rejects_epsilon_below_scoring_floor(self):
        with pytest.raises(ValueError):
            CampaignConfig(problem_ids=[1], epsilon=1e-6)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="finite"):
            CampaignConfig(problem_ids=[1], epsilon=epsilon)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            CampaignConfig(problem_ids=[1], jobs=jobs)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            CampaignConfig(problem_ids=[1], base_seed=-1)

    @pytest.mark.parametrize("field, name", [("runs", "runs"), ("jobs", "jobs"),
                                             ("base_seed", "seed")])
    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(3.0), "2", None, True])
    def test_rejects_non_integer_counts(self, field, name, value):
        # 1.5 used to pass int() and fail later inside cmd_run or numpy; True
        # passed as 1
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            CampaignConfig(problem_ids=[3], **{field: value})

    @pytest.mark.parametrize("field", ["runs", "jobs", "base_seed"])
    def test_accepts_numpy_integers(self, field):
        config = CampaignConfig(problem_ids=[3], **{field: np.int64(2)})
        assert getattr(config, field) == 2

    @pytest.mark.parametrize("pid", [1.0, True, "1"])
    def test_rejects_non_integer_problem_ids(self, pid):
        # 1.0 and True used to run and write "1.0" or "True" in the CSV (1.0
        # failed naming its report files), and "1" failed as unknown
        with pytest.raises(ValueError) as exc_info:
            CampaignConfig(problem_ids=[pid])
        assert str(exc_info.value) == f"problem id must be an integer, got {pid!r}"

    @pytest.mark.parametrize("ids, repeated", [([3, 1, 3], 3), ([2, 2], 2),
                                               ([1, 4, 5, 4, 1], 4)])
    def test_rejects_repeated_problem_ids(self, ids, repeated):
        # [3, 1, 3] used to run problem 3 twice at each seed and write its
        # CSV row twice
        with pytest.raises(ValueError, match=f"problem {repeated} is selected "
                                              f"more than once"):
            CampaignConfig(problem_ids=ids, runs=1)


def usage_error(capfd, argv):
    """The stderr of a usage error: status 2 and nothing on stdout."""
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    out, err = capfd.readouterr()
    assert (exc_info.value.code, out) == (2, "")
    return err


@pytest.mark.parametrize("argv, error", [
    (["list", "--problems", "x"], "argument --problems: problem id must be an integer"),
    (["run", "--problems", "1-x"], "argument --problems: problem id must be an integer"),
    (["score", "r.txt", "--problem", "x"], "argument --problem: problem id must be an integer"),
    (["run", "--problems", "2", "--runs", "x"], "argument --runs: runs must be an integer")])
def test_non_integer_is_one_usage_error(capfd, argv, error):
    # a problem id used to read "invalid literal ..." alone, or argparse's
    # "invalid int value: 'x'"; the usage lines are the subcommand's, as
    # for any of its usage errors
    usage = usage_error(capfd, argv[:-1]).splitlines(keepends=True)[:-1]
    assert usage_error(capfd, argv) == "".join(usage) + (
        f"hillvallea {argv[0]}: error: {error} "
        "(invalid literal for int() with base 10: 'x')\n")


class TestPoolWorkers:
    @pytest.mark.parametrize("jobs, n_tasks, cpus, expected", [
        (1, 10, 8, 1),
        (4, 10, 8, 4),
        (4, 3, 8, 3),    # no more workers than tasks
        (8, 10, 2, 2),   # no more workers than cores
        (4, 10, None, 1),  # unknown core count
    ])
    def test_caps_by_tasks_and_cores(self, jobs, n_tasks, cpus, expected):
        assert pool_workers(jobs, n_tasks, cpus) == expected


class TestListCommand:
    def test_lists_all_twenty(self):
        buf = io.StringIO()
        assert cmd_list(out=buf) == 0
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 20
        assert sum("unavailable" in ln for ln in lines) == 10

    def test_filters_selection(self):
        buf = io.StringIO()
        assert cmd_list([2, 11], out=buf) == 0
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split()[0] == "2"
        assert "unavailable" in lines[1]

    @pytest.mark.parametrize("text, bad", [("25", 25), ("0,3", 0), ("3,21-22", 21),
                                           ("-3", -3), ("-3-2", -3)])
    def test_unknown_problem_fails_cleanly(self, capfd, text, bad):
        rc = main(["list", f"--problems={text}"])
        assert_failed(capfd, rc, f"unknown problem id {bad}")


class TestRunCommand:
    def _run(self, tmp_path, extra=()):
        out = tmp_path / "results.csv"
        rc = main(["run", "--problems", "2", "--runs", "2", "--seed", "3",
                   "--out", str(out), *extra])
        return rc, out

    def test_csv_schema_and_rows(self, tmp_path, capfd):
        rc, out = self._run(tmp_path)
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 4  # header + 2 runs + aggregate
        assert [r[:2] for r in rows[1:]] == [["2", "3"], ["2", "4"],
                                             ["2", "mean"]]
        for r in rows[1:3]:
            assert int(r[2]) <= 50_000
            assert 0.0 <= float(r[4]) <= 1.0
        assert "problem 2" in capfd.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        rc1, out = self._run(tmp_path)
        first = out.read_bytes()
        rc2, out = self._run(tmp_path)
        assert rc1 == rc2 == 0
        assert out.read_bytes() == first

    def test_unavailable_problem_fails_cleanly(self, tmp_path, capfd):
        rc = main(["run", "--problems", "11", "--runs", "1",
                   "--out", str(tmp_path / "r.csv")])
        exc = raised(get_problem, 11)
        assert "unavailable" in str(exc)
        assert_failed(capfd, rc, exc)
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_problem_fails_cleanly(self, tmp_path, capfd):
        rc = main(["run", "--problems", "21", "--runs", "1",
                   "--out", str(tmp_path / "r.csv")])
        assert_failed(capfd, rc, "unknown problem id 21")
        assert not (tmp_path / "r.csv").exists()

    def test_negative_problem_fails_cleanly(self, tmp_path, capfd):
        # an unknown id, as in `score --problem -3`, not a usage error
        rc = main(["run", "--problems=-3", "--runs", "1",
                   "--out", str(tmp_path / "r.csv")])
        assert_failed(capfd, rc, "unknown problem id -3")
        assert not (tmp_path / "r.csv").exists()

    def test_invalid_epsilon_fails_cleanly(self, tmp_path, capfd):
        # rejected by the argument parser, which exits 2
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--problems", "2", "--epsilon", "1e-9",
                  "--out", str(tmp_path / "r.csv")])
        assert exc_info.value.code == 2
        assert "epsilon" in capfd.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_fails_cleanly(self, tmp_path, capfd, epsilon):
        # nan used to pass the floor check, spend a run and write PR 0.0
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--problems", "2", "--epsilon", epsilon,
                  "--out", str(tmp_path / "r.csv")])
        assert exc_info.value.code == 2
        assert "finite" in capfd.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("problems, message", [("5-1", "reversed"),
                                                   (",", "no problems")])
    def test_bad_selection_fails_without_csv(self, tmp_path, capfd,
                                             problems, message):
        # used to write a header-only CSV and exit 0
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--problems", problems, "--out", str(tmp_path / "r.csv")])
        assert exc_info.value.code == 2
        assert message in capfd.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("seed, message", [("-1", "seed must be >= 0"),
                                               ("x", "invalid literal")])
    def test_bad_seed_fails_without_csv(self, tmp_path, capfd, seed, message):
        # -1 used to reach numpy and die with a ValueError traceback
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--problems", "3", "--runs", "1", "--seed", seed,
                  "--out", str(tmp_path / "r.csv")])
        assert exc_info.value.code == 2
        assert message in capfd.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_reports_dir_on_a_file_fails_before_any_run(self, tmp_path, capfd,
                                                         monkeypatch):
        # used to run the whole campaign, then die in mkdir
        taken = tmp_path / "taken"
        taken.write_text("")
        runs = []
        monkeypatch.setattr(cli, "_single_run", lambda *a: runs.append(a))
        rc = main(["run", "--problems", "2", "--runs", "1",
                   "--reports-dir", str(taken), "--out", str(tmp_path / "r.csv")])
        exc = raised(lambda: taken.mkdir(parents=True, exist_ok=True))
        assert_failed(capfd, rc, f"cannot create {taken}: {exc}")
        assert runs == []
        assert not (tmp_path / "r.csv").exists()

    def test_zero_jobs_fails_cleanly(self, tmp_path, capfd):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--problems", "2", "--jobs", "0",
                  "--out", str(tmp_path / "r.csv")])
        assert exc_info.value.code == 2
        assert "jobs" in capfd.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--runs", "0", "argument --runs: runs must be >= 1"),
        ("--runs", "-3", "argument --runs: runs must be >= 1"),
        ("--runs", "two", "argument --runs: runs must be an integer"),
        ("--jobs", "1.5", "argument --jobs: jobs must be an integer"),
        ("--seed", "0x1", "argument --seed: seed must be an integer")])
    def test_bad_count_is_a_usage_error(self, tmp_path, capfd, flag, value,
                                        message):
        # --runs 0 and --jobs 0 used to exit 1 from CampaignConfig
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--problems", "2", flag, value,
                  "--out", str(tmp_path / "r.csv")])
        assert exc_info.value.code == 2
        assert message in capfd.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_report_path_on_a_directory_fails_before_any_run(
            self, tmp_path, capfd, monkeypatch):
        # used to run the whole campaign, then die with IsADirectoryError
        (tmp_path / "rep" / "problem02_seed0.txt").mkdir(parents=True)
        runs = []
        monkeypatch.setattr(cli, "_single_run", lambda *a: runs.append(a))
        rc = main(["run", "--problems", "2", "--runs", "1",
                   "--reports-dir", str(tmp_path / "rep"),
                   "--out", str(tmp_path / "r.csv")])
        report = tmp_path / "rep" / "problem02_seed0.txt"
        assert_failed(capfd, rc, f"cannot write {report}: it is a directory")
        assert runs == []
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("out, why", [("taken", "it is a directory"),
                                          ("missing/r.csv", "is not a directory")])
    def test_unwritable_csv_fails_before_any_run(self, tmp_path, capfd,
                                                 monkeypatch, out, why):
        # used to run the whole campaign (and write the reports), then fail
        (tmp_path / "taken").mkdir()
        runs = []
        monkeypatch.setattr(cli, "_single_run", lambda *a: runs.append(a))
        rc = main(["run", "--problems", "2", "--runs", "2",
                   "--reports-dir", str(tmp_path / "rep"),
                   "--out", str(tmp_path / out)])
        parent = "" if out == "taken" else f"{tmp_path / 'missing'} "
        assert_failed(capfd, rc, f"cannot write {tmp_path / out}: {parent}{why}")
        assert runs == []
        assert not (tmp_path / "rep").exists()
        assert not (tmp_path / "missing").exists()

    def test_empty_reports_dir_is_the_working_directory(self, tmp_path, capfd,
                                                        monkeypatch):
        # "" used to ask for reports, write none and exit 0
        monkeypatch.chdir(tmp_path)
        config = CampaignConfig(problem_ids=[2], runs=1, out_path="r.csv",
                                reports_dir="")
        assert cli.cmd_run(config) == 0
        capfd.readouterr()
        report = RunReport.parse((tmp_path / "problem02_seed0.txt").read_text())
        assert (report.problem_id, report.seed) == (2, 0)

    def test_report_write_error_fails_cleanly(self, tmp_path, capfd, monkeypatch):
        # the report path becomes a directory while the campaign runs
        real = cli._single_run

        def run_then_block(*task):
            (tmp_path / "rep" / "problem02_seed0.txt").mkdir()
            return real(*task)

        monkeypatch.setattr(cli, "_single_run", run_then_block)
        rc = main(["run", "--problems", "2", "--runs", "1",
                   "--reports-dir", str(tmp_path / "rep"),
                   "--out", str(tmp_path / "r.csv")])
        report = tmp_path / "rep" / "problem02_seed0.txt"
        exc = raised(report.write_text, "")
        assert_failed(capfd, rc, f"cannot write {report}: {exc}")
        assert not (tmp_path / "r.csv").exists()


class TestScoreCommand:
    def test_roundtrip_via_reports_dir(self, tmp_path, capfd):
        rc = main(["run", "--problems", "2", "--runs", "1", "--seed", "0",
                   "--out", str(tmp_path / "r.csv"),
                   "--reports-dir", str(tmp_path / "reports")])
        assert rc == 0
        capfd.readouterr()
        report = tmp_path / "reports" / "problem02_seed0.txt"
        assert report.exists()
        assert main(["score", str(report), "--problem", "2"]) == 0
        out = capfd.readouterr().out
        assert "peak_ratio = 1.0" in out
        assert "static_f1 = 1.0" in out

    def test_huge_coordinate_scores_quietly(self, tmp_path, capfd):
        report = tmp_path / "huge.txt"
        report.write_text("1 0 100\n1e200 200.0\n")
        rc = main(["score", str(report), "--problem", "1"])
        assert (rc, *capfd.readouterr()) == (
            0, "peak_ratio = 0.0\nstatic_f1 = 0.0\nf1_harmonic = 0.0\n", "")

    def test_problem_mismatch_fails(self, tmp_path, capfd):
        report = tmp_path / "r.txt"
        report.write_text("2 0 100\n0.1 1.0\n")
        rc = main(["score", str(report), "--problem", "3"])
        assert_failed(capfd, rc, "report is for problem 2, not 3")

    def test_missing_file_fails(self, tmp_path, capfd):
        rc = main(["score", str(tmp_path / "nope.txt"), "--problem", "2"])
        assert_failed(capfd, rc, raised((tmp_path / "nope.txt").read_text))

    def test_malformed_report_fails(self, tmp_path, capfd):
        report = tmp_path / "bad.txt"
        report.write_text("this is not a report\n")
        rc = main(["score", str(report), "--problem", "2"])
        assert_failed(capfd, rc, raised(RunReport.parse, "this is not a report\n"))

    @pytest.mark.parametrize("text, problem, message", [
        ("1 0 3.5\n0.1 1.0\n", "1",
         "line 1: invalid literal for int() with base 10: '3.5'"),
        ("2 0 100\n0.1 abc\n", "2",
         "line 2: could not convert string to float: 'abc'")])
    def test_unreadable_number_names_its_line(self, tmp_path, capfd, text,
                                              problem, message):
        report = tmp_path / "r.txt"
        report.write_text(text)
        rc = main(["score", str(report), "--problem", problem])
        assert_failed(capfd, rc, message)

    def test_coordinate_count_mismatch_fails(self, tmp_path, capfd):
        # problem 4 is 2-D; a 1-D report must not be broadcast and scored
        report = tmp_path / "r.txt"
        report.write_text("4 0 100\n3.0 200.0\n")
        rc = main(["score", str(report), "--problem", "4"])
        assert_failed(capfd, rc, "report solutions have 1 coordinates; "
                                 "problem 4 has dimension 2")

    def test_negative_evaluation_count_fails(self, tmp_path, capfd):
        report = tmp_path / "r.txt"
        report.write_text("2 0 -5\n0.1 1.0\n")
        rc = main(["score", str(report), "--problem", "2"])
        assert_failed(capfd, rc, "report has a negative evaluation count (-5)")

    @pytest.mark.parametrize("problem, message", [(11, "unavailable"),
                                                  (99, "unknown"), (-5, "unknown")])
    def test_problem_without_spec_fails(self, tmp_path, capfd, problem, message):
        report = tmp_path / "r.txt"
        report.write_text(f"{problem} 0 100\n0.1 1.0\n")
        rc = main(["score", str(report), "--problem", str(problem)])
        exc = raised(get_problem, problem)
        assert message in str(exc)
        assert_failed(capfd, rc, exc)

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e-9"])
    def test_invalid_epsilon_fails(self, tmp_path, capfd, epsilon):
        report = tmp_path / "r.txt"
        report.write_text("2 0 100\n0.1 1.0\n")
        with pytest.raises(SystemExit) as exc_info:
            main(["score", str(report), "--problem", "2", "--epsilon", epsilon])
        assert exc_info.value.code == 2
        assert "epsilon must be finite" in capfd.readouterr().err


# `list`, `score` and 1-D runs build no KD-tree, so they must not import
# scipy; the first 2-D clustering does. One 1-D run is on a box centred at
# -3e8, whose gaps are multiples of its spacing of floats, so its samples
# have points whose left and right gaps tie, and their rows are left
# empty; the script counts those points.
FRESH_PROCESS = """\
import contextlib, dataclasses, io, sys
import numpy as np
from hillvallea import cli, get_problem, hillvalley, run_hillvallea
from hillvallea.problem import ProblemSpec

def cut(problem, budget):
    return run_hillvallea(dataclasses.replace(get_problem(problem), budget=budget), 0)

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["list"])]
    with open("r2.txt", "w") as fh:
        fh.write(cut(2, 3000).serialize())
    codes.append(cli.main(["score", "r2.txt", "--problem", "2"]))
print(codes, "scipy" in sys.modules)
far = ProblemSpec(id=0, name="far line", dimension=1, lower=[-3e8 - 5e-5],
                  upper=[-3e8 + 5e-5], budget=2000, known_optima=[[-3e8]],
                  optimum_fitness=-1.0, niche_radius=1e-6, maximize=False,
                  objective=lambda X: np.cos(4e5 * (X[:, 0] + 3e8)))
ties, neighbour_rows = [], hillvalley.neighbour_rows

def spy(coords):
    gaps = np.diff(np.sort(coords[:, 0]))
    ties.append(int((gaps[1:] == gaps[:-1]).sum()))
    return neighbour_rows(coords)

hillvalley.neighbour_rows = spy
run_hillvallea(far, 0)
print(sum(ties) > 0, "scipy" in sys.modules)
report = cut(4, 2000).serialize()
print("scipy" in sys.modules)
sys.stdout.write(report)
"""


def test_scipy_is_imported_with_the_first_tree(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", FRESH_PROCESS], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    before, far, after, report = out.split("\n", 3)
    assert (before, far, after) == ("[0, 0] False", "True False", "True")
    want = run_hillvallea(dataclasses.replace(get_problem(4), budget=2000), 0)
    assert report == want.serialize()
