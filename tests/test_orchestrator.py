import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hillvallea import orchestrator
from hillvallea.amalgam import check_reexploration
from hillvallea.hillvalley import hill_valley_test
from hillvallea.orchestrator import (ElitistArchive, RunReport,
                                     archive_insert, initial_population_size,
                                     min_core_population, postprocess_archive,
                                     run_hillvallea)
from hillvallea.problem import BudgetedEvaluator

import reference_clustering as ref
from conftest import (double_well, evaluate_point, fallback_spans, sphere,
                      synthetic_spec)


class TestRestartScheme:
    def test_first_round_sizes(self):
        assert initial_population_size(1) == 64
        assert initial_population_size(2) == 128
        assert initial_population_size(5) == 320

    def test_doubles_each_round(self):
        assert initial_population_size(2, 1) == 256
        assert initial_population_size(2, 2) == 512
        assert initial_population_size(3, 4) == 64 * 3 * 16

    def test_min_core_population(self):
        assert min_core_population(1) == 10
        assert min_core_population(4) == 12
        assert min_core_population(9) == 14


class TestArchiveInsert:
    def test_first_insert_appends(self, double_well_eval):
        a = ElitistArchive()
        assert archive_insert(a, evaluate_point(double_well_eval, 1.0), 7,
                              double_well_eval) == "appended"
        assert len(a) == 1
        assert a.max_generation == 7

    def test_distinct_niche_appends(self, double_well_eval):
        a = ElitistArchive()
        archive_insert(a, evaluate_point(double_well_eval, 1.0), 7, double_well_eval)
        assert archive_insert(a, evaluate_point(double_well_eval, -1.0), 5,
                              double_well_eval) == "appended"
        assert len(a) == 2

    def test_same_niche_improvement_replaces(self, double_well_eval):
        a = ElitistArchive()
        archive_insert(a, evaluate_point(double_well_eval, 0.9), 7, double_well_eval)
        assert archive_insert(a, evaluate_point(double_well_eval, 1.0), 9,
                              double_well_eval) == "replaced"
        assert len(a) == 1
        assert a.x[0, 0] == pytest.approx(1.0)
        assert a.max_generation == 9

    def test_same_niche_worse_discarded(self, double_well_eval):
        a = ElitistArchive()
        archive_insert(a, evaluate_point(double_well_eval, 1.0), 7, double_well_eval)
        assert archive_insert(a, evaluate_point(double_well_eval, 0.9), 2,
                              double_well_eval) == "discarded"
        assert len(a) == 1

    def test_nearest_elite(self, double_well_eval):
        a = ElitistArchive()
        for x in (1.0, -1.0):
            archive_insert(a, evaluate_point(double_well_eval, x), 1, double_well_eval)
        assert a.x.shape == (2, 1)
        assert a.x[a.nearest_index(np.array([0.8])), 0] == pytest.approx(1.0)
        assert a.nearest_index(np.array([-0.4])) == 1

    @staticmethod
    def _tied_elites(k, d, nudge, seed):
        """Grid elites, which tie at equal distances, and a grid point; a
        nudged copy lies one ulp off its row, where the sqrt can merge two
        squared distances."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, (k, d)) / 4.0
        if nudge:
            x = x + rng.uniform(0.0, 1.0)
            x = np.vstack([x, np.nextafter(x, np.inf)])[rng.permutation(2 * k)]
        return x, rng.integers(0, 4, d) / 4.0

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 30), d=st.integers(1, 7), nudge=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_nearest_index_is_the_norm_argmin(self, k, d, nudge, seed):
        x, p = self._tied_elites(k, d, nudge, seed)
        a = ElitistArchive(x=x, f=np.zeros(len(x)))
        assert a.nearest_index(p) == int(np.argmin(np.linalg.norm(x - p, axis=1)))

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 30), d=st.integers(8, 12), nudge=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_nearest_index_sums_long_rows_left_to_right(self, k, d, nudge, seed):
        # from eight coordinates on, numpy's norm sums pairwise; the lookup
        # adds each row's squares left to right, as clustering does
        x, p = self._tied_elites(k, d, nudge, seed)
        dists = []
        for row in x:
            total = 0.0
            for xi, pi in zip(row.tolist(), p.tolist()):
                total += (xi - pi) ** 2
            dists.append(math.sqrt(total))
        a = ElitistArchive(x=x, f=np.zeros(len(x)))
        assert a.nearest_index(p) == dists.index(min(dists))

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 2), wells=st.integers(1, 4), k=st.integers(1, 6),
           place=st.sampled_from(["anywhere", "near", "on"]),
           seed=st.integers(0, 2 ** 16))
    def test_insert_and_explored_niche_follow_one_rule(self, d, wells, k, place,
                                                       seed):
        # One rule decides both calls: a point that shares a niche with its
        # nearest elite and is no fitter is discarded by the insert and is
        # in an explored niche for the check, and no other point is.
        def k_wells(X):
            return np.cos(np.pi * wells * X).sum(axis=1)

        spec = synthetic_spec(k_wells, [-1.0] * d, [1.0] * d, [[0.0] * d])
        rng = np.random.default_rng(seed)
        ex, ef = BudgetedEvaluator(spec).evaluate_batch(rng.uniform(-1, 1, (k, d)))
        x = rng.uniform(-1.0, 1.0, d)
        if place != "anywhere":  # on an elite, or a small step off one
            x = ex[rng.integers(k)] + (place == "near") * rng.normal(0.0, 0.05, d)
        s = evaluate_point(BudgetedEvaluator(spec), spec.clamp(x))
        sx, sf = s

        def archive():
            return ElitistArchive(x=ex.copy(), f=ef.copy())

        a = archive()
        nearest = a.nearest_index(sx)
        outcome = archive_insert(a, s, 5, BudgetedEvaluator(spec))
        explored = check_reexploration(s, archive(), BudgetedEvaluator(spec))
        assert (outcome == "discarded") == explored
        if outcome == "replaced":
            assert sf < ef[nearest]
            assert a.x[nearest].tolist() == sx.tolist() and a.f[nearest] == sf
            assert len(a) == k
        elif outcome == "appended":
            assert len(a) == k + 1
            assert a.x[-1].tolist() == sx.tolist() and a.f[-1] == sf
        else:
            assert outcome == "discarded"
            assert a.x.tobytes() == ex.tobytes() and a.f.tobytes() == ef.tobytes()


class TestPostprocess:
    def _archive(self, fitnesses):
        a = ElitistArchive()
        for i, f in enumerate(fitnesses):
            a.add((np.array([float(i)]), f), 1)
        return a

    def test_filters_local_optima(self):
        x, f = postprocess_archive(self._archive([0.0, 0.0, 0.3]))
        assert x.tolist() == [[0.0], [1.0]]
        assert f.tolist() == [0.0, 0.0]

    def test_keeps_all_when_equal(self):
        x, f = postprocess_archive(self._archive([0.5] * 4))
        assert x.shape == (4, 1)
        assert len(f) == 4

    def test_tolerance_boundary(self):
        x, f = postprocess_archive(self._archive([0.0, 1e-5, 2e-5]))
        assert x.shape == (2, 1)
        assert f.tolist() == [0.0, 1e-5]

    def test_empty_archive(self):
        x, f = postprocess_archive(ElitistArchive())
        assert x.shape == (0, 0)
        assert f.shape == (0,)

    def test_kept_rows_do_not_alias_the_archive(self):
        a = self._archive([0.0, 0.3])
        x, f = postprocess_archive(a)
        a.replace(0, (np.array([9.0]), -1.0), 1)
        assert x.tolist() == [[0.0]]
        assert f.tolist() == [0.0]


class TestRunReport:
    def _report(self):
        return RunReport(problem_id=4, seed=11, evaluations=12345,
                         solutions=(np.array([[3.0, 2.0], [-2.805118, 3.131312]]),
                                    np.array([200.0, 199.99999999])))

    def test_roundtrip_is_exact(self):
        r = self._report()
        back = RunReport.parse(r.serialize())
        assert back.problem_id == r.problem_id
        assert back.seed == r.seed
        assert back.evaluations == r.evaluations
        assert back.solutions[0].shape == (2, 2)
        assert np.array_equal(back.solutions[0], r.solutions[0])
        assert np.array_equal(back.solutions[1], r.solutions[1])  # bitwise via repr

    def test_equality_compares_the_serialized_text(self):
        # the generated ``==`` raised on two reports of two or more rows
        text = self._report().serialize()
        assert RunReport.parse(text) == RunReport.parse(text)
        x, f = self._report().solutions
        x[1, 0] = np.nextafter(x[1, 0], np.inf)  # one ulp
        assert RunReport(4, 11, 12345, (x, f)) != RunReport.parse(text)

    def test_header_only_report_is_empty(self):
        r = RunReport.parse("4 11 100\n")
        assert r.solutions[0].shape == (0, 0)
        assert r.solutions[1].shape == (0,)
        assert r.serialize() == "4 11 100\n"

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RunReport.parse("")

    def test_malformed_header_names_line(self):
        with pytest.raises(ValueError, match="line 1"):
            RunReport.parse("4 11\n1.0 2.0\n")

    def test_inconsistent_width_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            RunReport.parse("4 11 100\n1.0 2.0 5.0\n1.0 5.0\n")

    def test_error_line_counts_blank_lines(self):
        with pytest.raises(ValueError, match="^line 4: inconsistent"):
            RunReport.parse("4 11 100\n\n1.0 2.0 5.0\n1.0 5.0\n")
        with pytest.raises(ValueError, match="^line 2: expected 'problem_id"):
            RunReport.parse("\n4 11\n1.0 5.0\n")

    @given(coords=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False,
                           width=64), min_size=2, max_size=2),
        min_size=0, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_any_floats(self, coords):
        r = RunReport(1, 0, 9, (np.array([c[:-1] + [0.0] for c in coords]).reshape(-1, 2),
                                np.array([c[-1] for c in coords])))
        back = RunReport.parse(r.serialize())
        assert len(back.solutions[1]) == len(coords)
        if coords:  # a header-only report has no width to keep
            assert np.array_equal(back.solutions[0], r.solutions[0])
        assert np.array_equal(back.solutions[1], r.solutions[1])

    @given(d=st.integers(1, 3), data=st.data(),
           head=st.tuples(*[st.integers(0, 2 ** 40)] * 3))
    @settings(max_examples=100, deadline=None)
    def test_serialize_parse_roundtrip_is_bitwise(self, d, data, head):
        finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
        rows = data.draw(st.lists(st.lists(finite, min_size=d + 1, max_size=d + 1),
                                  max_size=20))
        table = np.array(rows).reshape(len(rows), d + 1)
        r = RunReport(*head, (table[:, :d], table[:, d]))
        back = RunReport.parse(r.serialize())
        assert (back.problem_id, back.seed, back.evaluations) == head
        assert len(back.solutions[1]) == len(rows)
        for a, b in zip(back.solutions, r.solutions):
            assert a.tobytes() == b.tobytes()  # -0.0 and 0.0 differ here
        if rows:
            assert back.solutions[0].shape == (len(rows), d)


class TestFullRun:
    def _spec(self, budget=20000):
        return synthetic_spec(double_well, [-2.0], [2.0],
                              [[-1.0], [1.0]], fopt=0.0, budget=budget,
                              radius=0.2)

    def test_finds_both_wells(self):
        report = run_hillvallea(self._spec(), seed=0)
        x, _ = report.solutions
        assert x.shape[1] == 1
        xs = sorted(x[:, 0])
        assert len(xs) == 2
        assert xs[0] == pytest.approx(-1.0, abs=1e-4)
        assert xs[1] == pytest.approx(1.0, abs=1e-4)

    def test_respects_budget(self):
        spec = self._spec(budget=3000)
        report = run_hillvallea(spec, seed=1)
        assert report.evaluations <= spec.budget

    def test_deterministic_per_seed(self):
        a = run_hillvallea(self._spec(), seed=42).serialize()
        b = run_hillvallea(self._spec(), seed=42).serialize()
        assert a == b

    def test_distinct_seeds_explore_differently(self):
        a = run_hillvallea(self._spec(), seed=1).serialize()
        b = run_hillvallea(self._spec(), seed=2).serialize()
        assert a != b

    def test_reported_solutions_span_distinct_niches(self):
        spec = self._spec()
        report = run_hillvallea(spec, seed=3)
        e = BudgetedEvaluator(spec)
        sols = [(x, spec.to_internal(f)) for x, f in zip(*report.solutions)]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                assert not hill_valley_test(sols[i], sols[j], 5, e).same_niche

    def test_tiny_budget_still_reports(self):
        # not even one full initial sample: best of the partial sample
        spec = self._spec(budget=10)
        report = run_hillvallea(spec, seed=4)
        assert report.evaluations <= 10
        assert report.solutions[0].shape == (1, 1)
        assert len(report.solutions[1]) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nan_region_counts_as_worst(self, seed):
        # NaN left of the ridge used to poison the archive: seed 2
        # returned an empty report
        def nan_left(X):
            return np.where(X[:, 0] < 0.0, np.nan, double_well(X))

        spec = synthetic_spec(nan_left, [-2.0], [2.0], [[1.0]], budget=20000,
                              radius=0.2)
        report = run_hillvallea(spec, seed=seed)
        assert report.solutions[0].tolist() == [[pytest.approx(1.0, abs=1e-4)]]

    def test_published_orientation(self):
        # synthetic specs minimize, so published fitness equals internal
        spec = self._spec()
        report = run_hillvallea(spec, seed=5)
        f = report.solutions[1]
        assert len(f)
        assert f.tolist() == [pytest.approx(0.0, abs=1e-6)] * len(f)


def _wells(X):
    return np.cos(5.0 * X).sum(axis=1)


def _phase_spans(spec, seed):
    """Evaluation spans ``(used before, used after)`` of each phase of a run.

    Clustering runs as the sequential reference, which evaluates the same
    points in another order, so a span inside it lies inside the batched
    clustering's span too (see ``conftest.fallback_spans``). The archive
    spans are the pre-checks and the archive inserts.
    """
    spans = {"clustering": [], "archive": []}

    def spy(fn, phase):
        def wrapper(*args):
            e = args[-1]
            before = e.used
            try:
                return fn(*args)
            finally:
                spans[phase].append((before, e.used))
        return wrapper

    with mock.patch.object(orchestrator, "cluster_population",
                           spy(ref.cluster_population, "clustering")), \
            mock.patch.object(orchestrator, "hill_valley_test",
                              spy(orchestrator.hill_valley_test, "archive")), \
            mock.patch.object(orchestrator, "_precheck_skip",
                              spy(orchestrator._precheck_skip, "archive")), \
            fallback_spans() as fallback:
        run_hillvallea(spec, seed)
    return dict(spans, fallback=fallback)


class TestRunInvariants:
    """Whole runs on random budgets and boxes: the budget is spent exactly,
    every evaluation is counted, every reported point lies in the box, and
    a seed fixes the report to the byte."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 2), fn=st.sampled_from([double_well, sphere, _wells]),
           seed=st.integers(0, 2 ** 16),
           phase=st.sampled_from([None, "clustering", "fallback", "archive"]),
           budget=st.integers(1, 4000), pick=st.integers(0, 10 ** 6))
    def test_budget_count_and_determinism(self, d, fn, seed, phase, budget, pick):
        spec = synthetic_spec(fn, [-2.0] * d, [2.0] * d, [[0.0] * d],
                              budget=budget, radius=0.2)
        if phase is not None:
            # end the budget after the first evaluation of a phase that
            # evaluates at least two points, so it runs out inside it
            spans = [(a, b) for a, b in _phase_spans(replace(spec, budget=4000),
                                                     seed)[phase] if b - a >= 2]
            if spans:
                start, _ = spans[pick % len(spans)]
                spec = replace(spec, budget=start + 1)
        rows = []

        def counted(X):
            rows.append(len(X))
            return fn(X)

        report = run_hillvallea(replace(spec, objective=counted), seed)
        assert report.evaluations == spec.budget
        assert report.evaluations == sum(rows)
        again = run_hillvallea(spec, seed)
        assert again.serialize() == report.serialize()

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 2), family=st.sampled_from(["wells", "plateau", "slope"]),
           exponent=st.floats(-6.0, 6.0), centre=st.sampled_from([0.0, 1.0, -300.0]),
           budget=st.integers(1, 3000), seed=st.integers(0, 2 ** 16))
    def test_any_box_spends_the_budget_inside_it(self, d, family, exponent, centre,
                                                 budget, seed):
        # Box widths from 1e-6 to 1e6, every decade alike, off the origin too;
        # the plateau has a NaN region and steps of equal fitness, and the
        # slope's optimum is a corner of the box.
        width = 10.0 ** exponent
        lower, upper = np.full(d, centre - width / 2), np.full(d, centre + width / 2)

        def objective(X):
            u = (X - lower) / (upper - lower)  # the box scaled to [0, 1]
            if family == "wells":
                return np.cos(5.0 * u).sum(axis=1)
            if family == "slope":
                return u[:, 0] - 2.0 * u[:, -1]
            return np.where(u[:, 0] < 0.3, np.nan, np.floor(3.0 * u).sum(axis=1))

        spec = synthetic_spec(objective, lower, upper, [np.full(d, centre)],
                              budget=budget, radius=0.1 * width)
        report = run_hillvallea(spec, seed)
        x = report.solutions[0]
        assert report.evaluations == budget
        assert len(x) >= 1
        assert ((lower <= x) & (x <= upper)).all()
        assert run_hillvallea(spec, seed).serialize() == report.serialize()

    def test_lopsided_box_counts_test_points(self):
        # The edge length of this box is about 1e-26, so two points far
        # apart on its wide axis are more than 2**63 edge lengths apart;
        # their tests take the capped count, as in the sequential reference.
        lower, upper = np.zeros(2), np.array([1e-200, 1e150])

        def objective(X):
            return np.cos(5.0 * (X - lower) / (upper - lower)).sum(axis=1)

        spec = synthetic_spec(objective, lower, upper, [[0.0, 0.0]], budget=3000)
        report = run_hillvallea(spec, 0)
        assert report.evaluations == 3000
        with mock.patch.object(orchestrator, "cluster_population",
                               ref.cluster_population):
            assert run_hillvallea(spec, 0).serialize() == report.serialize()


def _rows(x):
    """The shape and bytes of a matrix of reported rows: equal for two
    matrices with the same rows, bit for bit."""
    return x.shape, x.tobytes()


def _precheck_spans(spec, seed):
    """``(used before, used after, reported)`` of every pre-check of a run
    that evaluates, where ``reported`` is what the run would report from
    the archive as it stood when that pre-check began."""
    spans = []
    real = orchestrator._precheck_skip

    def spy(cluster_best, archive, e):
        before = e.used
        x, f = postprocess_archive(archive)
        reported = (x, spec.to_published(f))
        try:
            return real(cluster_best, archive, e)
        finally:
            if e.used > before:
                spans.append((before, e.used, reported))

    with mock.patch.object(orchestrator, "_precheck_skip", spy):
        run_hillvallea(spec, seed)
    return spans


class TestPrecheckBudget:
    """A budget that runs out inside a pre-check's hill-valley test ends the
    run there: it reports the archive it held when that test began and has
    spent the whole budget."""

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 2), fn=st.sampled_from([double_well, sphere, _wells]),
           seed=st.integers(0, 2 ** 16), pick=st.integers(0, 10 ** 6))
    def test_run_ends_with_the_archive_of_that_test(self, d, fn, seed, pick):
        spec = synthetic_spec(fn, [-2.0] * d, [2.0] * d, [[0.0] * d],
                              budget=4000, radius=0.2)
        spans = _precheck_spans(spec, seed)
        assume(spans)
        start, end, reported = spans[pick % len(spans)]
        budget = start + pick % (end - start)
        report = run_hillvallea(replace(spec, budget=budget), seed)
        at_start = run_hillvallea(replace(spec, budget=start), seed)
        assert report.evaluations == budget
        assert _rows(report.solutions[0]) == _rows(at_start.solutions[0]) == \
            _rows(reported[0])
        assert report.solutions[1].tolist() == at_start.solutions[1].tolist() == \
            reported[1].tolist()


def _recorded_run(spec, seed):
    """Run ``spec`` and return the report, the evaluated rows in order and
    their fitness."""
    rows, values = [], []

    def recorded(X):
        rows.append(X.copy())
        values.append(spec.objective(X))
        return values[-1]

    report = run_hillvallea(replace(spec, objective=recorded), seed)
    return report, np.concatenate(rows), np.concatenate(values)


class TestBudgetCut:
    """A run ends at the evaluation that exhausts its budget, so a shorter
    budget cuts the same seed's longer run short, and what it reports is
    the archive of the last insert that finished in time."""

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 2), fn=st.sampled_from([double_well, sphere, _wells]),
           seed=st.integers(0, 2 ** 16), cut=st.integers(1, 3999))
    def test_shorter_budget_evaluates_a_prefix(self, d, fn, seed, cut):
        spec = synthetic_spec(fn, [-2.0] * d, [2.0] * d, [[0.0] * d],
                              budget=4000, radius=0.2)
        _, rows, _ = _recorded_run(spec, seed)
        _, short, _ = _recorded_run(replace(spec, budget=cut), seed)
        assert len(rows) == spec.budget
        assert short.shape == (cut, d)
        assert short.tobytes() == rows[:cut].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 2), fn=st.sampled_from([double_well, sphere, _wells]),
           seed=st.integers(0, 2 ** 16), cut=st.integers(1, 3999))
    def test_report_is_the_last_insert_within_the_budget(self, d, fn, seed, cut):
        spec = synthetic_spec(fn, [-2.0] * d, [2.0] * d, [[0.0] * d],
                              budget=4000, radius=0.2)
        inserts = []  # (used after the insert, the archive it left)
        real = orchestrator.archive_insert

        def spy(a, s, gens, e):
            outcome = real(a, s, gens, e)
            inserts.append((e.used, postprocess_archive(a)))
            return outcome

        with mock.patch.object(orchestrator, "archive_insert", spy):
            _, rows, f = _recorded_run(spec, seed)
        report = run_hillvallea(replace(spec, budget=cut), seed)
        finished = [kept for used, kept in inserts if used <= cut]
        if finished:
            want = finished[-1]
        else:
            i = int(np.argmin(f[:cut]))
            want = (rows[i:i + 1], f[i:i + 1])
        assert report.evaluations == cut
        assert _rows(report.solutions[0]) == _rows(want[0])
        assert report.solutions[1].tolist() == want[1].tolist()


def _generated_objective(family, scale, lower, upper):
    """A landscape of ``family`` over the box, its values in [-1, 1] times
    ``scale``, so that even ``scale`` 1.7e308 never overflows inside it."""
    def objective(X):
        u = (X - lower) / (upper - lower)  # the box scaled to [0, 1]
        if family == "slope":  # optimum at a corner
            return scale * ((u[:, 0] - 2.0 * u[:, -1]) / 2.0)
        if family == "plateau":  # steps of equal fitness, a NaN region
            steps = np.floor(3.0 * u).sum(axis=1) / (3.0 * u.shape[1])
            return np.where(u[:, 0] < 0.3, np.nan, scale * steps)
        # about 2.5 periods per axis: many clusters and core searches
        wells = scale * (np.add.reduce(np.cos(16.0 * u), axis=1) / u.shape[1])
        if family == "inf":  # a +inf region
            return np.where(u[:, 0] > 0.7, np.inf, wells)
        return wells
    return objective


class TestGeneratedProblems:
    """Whole runs on generated problems of 1 to 5 dimensions, with NaN and
    +inf regions and finite values up to +-1.7e308: the budget is spent
    exactly and nothing warns (a RuntimeWarning fails tier 1), and a
    shorter budget evaluates a prefix of the longer run and reports the
    archive of its last insert within the budget (see ``TestBudgetCut``)."""

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 5),
           family=st.sampled_from(["wells", "plateau", "slope", "inf"]),
           scale=st.sampled_from([1.0, -1.0, 1e300, -1e307, 1.7e308, -1.7e308]),
           exponent=st.floats(-6.0, 6.0), centre=st.sampled_from([0.0, 1.0, -300.0]),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_shorter_budget_is_a_prefix(self, d, family, scale, exponent, centre,
                                        seed, data):
        # budgets up to 3,000, and now and then up to 20,000 below d = 3,
        # mostly near the top; cuts near either end
        longest = data.draw(st.sampled_from([3000] * 4 + [20_000 if d < 3 else 3000]))
        budget = longest + 1 - data.draw(st.integers(1, longest), label="top - budget + 1")
        cut = data.draw(st.integers(1, budget) | st.integers(1, budget).map(
            lambda k: budget + 1 - k), label="cut")
        width = 10.0 ** exponent
        lower, upper = np.full(d, centre - width / 2), np.full(d, centre + width / 2)
        spec = synthetic_spec(_generated_objective(family, scale, lower, upper),
                              lower, upper, [np.full(d, centre)], budget=budget,
                              radius=0.1 * width)
        inserts = []  # (used after the insert, the archive it left)
        real = orchestrator.archive_insert

        def spy(a, s, gens, e):
            outcome = real(a, s, gens, e)
            inserts.append((e.used, postprocess_archive(a)))
            return outcome

        with mock.patch.object(orchestrator, "archive_insert", spy):
            report, rows, f = _recorded_run(spec, seed)
        assert report.evaluations == len(rows) == budget
        x = report.solutions[0]
        assert len(x) >= 1 and ((lower <= x) & (x <= upper)).all()

        short, short_rows, _ = _recorded_run(replace(spec, budget=cut), seed)
        assert short_rows.tobytes() == rows[:cut].tobytes()
        finished = [kept for used, kept in inserts if used <= cut]
        if finished:
            want = finished[-1]
        else:  # the best of the first rows, non-finite values the worst (+inf)
            f = np.where(np.isfinite(f), f, np.inf)
            i = int(np.argmin(f[:cut]))
            want = (rows[i:i + 1], f[i:i + 1])
        assert short.evaluations == cut
        assert _rows(short.solutions[0]) == _rows(want[0])
        assert short.solutions[1].tolist() == want[1].tolist()
