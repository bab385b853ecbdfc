"""End-to-end acceptance suite.

Each test class covers one numbered exit criterion; tolerances are stated
inline. The ten-runs-per-problem campaign is shared across criteria 4-6.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from hillvallea import cli
from hillvallea.amalgam import (TARGET_GAP, GENERATION_CEILING,
                                TerminationReason, estimate_rate,
                                run_core_search, time_to_optimum)
from hillvallea.benchmarks import get_problem
from hillvallea.cli import main
from hillvallea.hillvalley import (cluster_population, hill_valley_test,
                                   hill_valley_tests)
from hillvallea.orchestrator import ElitistArchive
from hillvallea.problem import BudgetedEvaluator, uniform_init
from hillvallea.scoring import DEFAULT_EPSILON

from conftest import double_well, evaluate_point, sphere, synthetic_spec


class TestCriterion1RateEstimatorOracle:
    @pytest.mark.parametrize("r", [0.01, 0.1, 0.5])
    def test_recovers_synthetic_rates_within_1e9(self, r):
        delta0 = 3.7
        deltas = [delta0 * (1.0 - r) ** g for g in range(11)]
        for g in range(5, 11):
            est = estimate_rate(deltas[g - 5], deltas[g])
            assert abs(est - r) < 1e-9

    def test_worked_case(self):
        r5 = estimate_rate(1.0, 0.5)
        assert r5 == pytest.approx(0.129449, abs=1e-6)
        tto = time_to_optimum(0.5, 1.0)
        # independent extrapolation: 0.5 * (1 - r5)^t = 1e-12
        independent = math.log(1e-12 / 0.5) / math.log(1.0 - r5)
        assert abs(tto - independent) < 1e-9
        assert tto == pytest.approx(194.31, abs=0.01)

    def test_brute_force_extrapolation_agrees(self):
        r5 = estimate_rate(1.0, 0.5)
        gap, steps = 0.5, 0
        while gap > TARGET_GAP:
            gap *= 1.0 - r5
            steps += 1
        assert steps == math.floor(time_to_optimum(0.5, 1.0)) + 1


class TestCriterion2HillValleyCorrectness:
    def test_unimodal_same_niche_for_every_pair_and_test_count(self,
                                                               sphere_eval):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            xa, xb = rng.uniform(-2.0, 2.0, 2)
            a = evaluate_point(sphere_eval, xa)
            b = evaluate_point(sphere_eval, xb)
            n = int(rng.integers(1, 6))
            assert hill_valley_test(a, b, n, sphere_eval).same_niche

    @pytest.mark.parametrize("n_test", [1, 2, 3, 4, 5])
    def test_double_well_minima_are_distinct(self, double_well_eval, n_test):
        a = evaluate_point(double_well_eval, -1.0)
        b = evaluate_point(double_well_eval, 1.0)
        assert not hill_valley_test(a, b, n_test, double_well_eval).same_niche

    def test_double_well_random_pairs(self, double_well_eval):
        # same-side pairs share a monotone slope down into their well, so
        # a same-niche verdict is guaranteed; any different-niche verdict
        # must be backed by a genuinely separating evaluated point
        rng = np.random.default_rng(1)
        for _ in range(1000):
            xa, xb = rng.uniform(-2.0, 2.0, 2)
            a = evaluate_point(double_well_eval, xa)
            b = evaluate_point(double_well_eval, xb)
            n = int(rng.integers(1, 6))
            out = hill_valley_test(a, b, n, double_well_eval)
            worst = max(a[1], b[1])
            _, _, tf, ok = hill_valley_tests(
                a[0][None, :], b[0][None, :], np.array([worst]),
                np.array([n]), double_well_eval)
            assert out.same_niche == ok.all()
            if xa * xb >= 0.0:
                assert out.same_niche
            elif not out.same_niche:
                assert tf[-1] > worst


class TestCriterion3ClusteringOracle:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_k_wells_recovered(self, k):
        centers = (2.0 * np.arange(k) + 1.0) / (2.0 * k)

        def wells(X):
            d = np.abs(X[:, :1] - centers[None, :])
            return (d.min(axis=1) ** 2).ravel()

        spec = synthetic_spec(wells, [0.0], [1.0],
                              [[c] for c in centers], budget=10_000_000,
                              radius=0.05, name=f"{k}-well")
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            e = BudgetedEvaluator(spec)
            xs = np.concatenate([
                rng.uniform(i / k, (i + 1) / k, 64) for i in range(k)])
            pop = e.evaluate_batch(xs[:, None])
            if len(cluster_population(pop, e)) == k:
                hits += 1
        assert hits >= 95, f"{k} wells recovered in only {hits}/100 trials"


@pytest.fixture(scope="module")
def campaign():
    """Ten seeded runs of each analytic benchmark, shared by criteria 4-6.

    Two worker processes share the runs; each run is deterministic per
    seed, so the reports and scores are those of a sequential campaign.
    """
    pids, seeds = zip(*[(pid, seed) for pid in range(1, 11) for seed in range(10)])
    with ProcessPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(cli._single_run, pids, seeds,
                             [DEFAULT_EPSILON] * len(pids)))
    return {pid: runs[10 * (pid - 1):10 * pid] for pid in range(1, 11)}


class TestCriterion4BenchmarkReproduction:
    @pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 10])
    def test_easy_problems_solve_perfectly(self, campaign, pid):
        prs = [sc.peak_ratio for _, sc in campaign[pid]]
        f1s = [sc.static_f1 for _, sc in campaign[pid]]
        assert np.mean(prs) == 1.0, f"problem {pid} mean PR {np.mean(prs)}"
        assert np.mean(f1s) == 1.0

    @pytest.mark.parametrize("pid,target", [(6, 0.95), (7, 0.95),
                                            (8, 0.80), (9, 0.85)])
    def test_hard_problems_meet_relaxed_targets(self, campaign, pid, target):
        mean_pr = np.mean([sc.peak_ratio for _, sc in campaign[pid]])
        assert mean_pr >= target, f"problem {pid} mean PR {mean_pr} < {target}"


class TestCriterion5NoDuplicateOptima:
    def test_static_f1_is_one_on_every_run(self, campaign):
        for pid, runs in campaign.items():
            for report, sc in runs:
                assert sc.static_f1 == 1.0, \
                    f"problem {pid} seed {report.seed}: F1 {sc.static_f1}"


class TestCriterion6BudgetInvariant:
    def test_evaluations_never_exceed_budget(self, campaign):
        for pid, runs in campaign.items():
            budget = get_problem(pid).budget
            for report, _ in runs:
                assert report.evaluations <= budget, \
                    f"problem {pid} seed {report.seed}: " \
                    f"{report.evaluations} > {budget}"


class TestCriterion7Determinism:
    def test_repeated_campaign_is_byte_identical(self, tmp_path):
        # the repeat runs in the process pool, which must write the
        # sequential campaign's bytes
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p, jobs in zip(paths, ["1", "2"]):
            rc = main(["run", "--problems", "1-10", "--runs", "3",
                       "--seed", "7", "--out", str(p), "--jobs", jobs])
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCriterion8TerminationBehavior:
    def _double_well_eval(self):
        spec = synthetic_spec(double_well, [-2.0], [2.0],
                              [[-1.0], [1.0]], budget=10_000_000, radius=0.2)
        return BudgetedEvaluator(spec)

    def test_reexploration_fires_within_ten_generations(self):
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            e = self._double_well_eval()
            elite_x, elite_f = evaluate_point(e, 1.0)
            archive = ElitistArchive(x=elite_x[None, :], f=np.array([elite_f]),
                                     max_generation=20)
            xs = rng.uniform(0.3, 1.7, 12)
            cluster = e.evaluate_batch(xs[:, None])
            _, reason, gens = run_core_search(
                cluster, 20, archive, e, rng, np.zeros(1))
            if reason is TerminationReason.REEXPLORED_NICHE and gens <= 10:
                hits += 1
        assert hits >= 95, f"re-exploration stop in only {hits}/100 trials"

    def test_local_minimum_predicted_in_strictly_local_basin(self):
        # tilting the double well makes the right basin strictly local;
        # with the global elite archived, the convergence predictor must
        # stop the doomed search long before the generation ceiling
        def tilted(X):
            x = X[:, 0]
            return (x * x - 1.0) ** 2 + 0.1 * x

        spec = synthetic_spec(tilted, [-2.0], [2.0], [[-1.0]],
                              fopt=-0.1, budget=10_000_000, radius=0.2)
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(2000 + trial)
            e = BudgetedEvaluator(spec)
            elite_x, elite_f = evaluate_point(e, -1.0124699)
            archive = ElitistArchive(x=elite_x[None, :], f=np.array([elite_f]))
            xs = rng.uniform(0.5, 1.5, 12)
            cluster = e.evaluate_batch(xs[:, None])
            _, reason, gens = run_core_search(
                cluster, 20, archive, e, rng, np.zeros(1))
            if (reason is TerminationReason.LOCAL_MINIMUM_PREDICTED
                    and gens < GENERATION_CEILING):
                hits += 1
        assert hits >= 90, f"local-minimum stop in only {hits}/100 trials"
