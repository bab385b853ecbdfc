#!/bin/bash
# Compare two source trees byte for byte on fixed runs.
#
#     scripts/byte_gate.sh BASE_SRC HEAD_SRC OUT
#
# BASE_SRC and HEAD_SRC are source trees (each put on PYTHONPATH in turn)
# and OUT a directory for the records of both. Five comparisons:
#   1. `hillvallea run --problems 1-10 --runs 1 --jobs 2` at seeds 0 and
#      1000: the CSV, stdout, stderr (a stray warning from a worker shows
#      there) and the reports;
#   2. runs that end mid-search: every problem, 1, 2, 3 (1-D), 4, 5, 6, 7,
#      10 (2-D), 8 and 9 (3-D), at budgets 3, 300, 3000 and 12345, both
#      seeds, so every shortlist width (k = 16, 24, 32) and every problem,
#      whether its rows come from the sorted sample or a KD-tree, meets
#      budgets that end mid-run; problem 8 is where most core searches end
#      on a predicted local minimum, and at 3 and 300 evaluations a run
#      ends before its first archive insert and reports the best point it
#      evaluated;
#   3. `hillvallea list`, and `hillvallea score` of every seed-0 report
#      (each side scores its own): stdout, stderr and exit status;
#   4. the failing invocations of `scripts/error_paths.sh` (this tree's
#      list for both sides): stdout, stderr and exit status of each;
#   5. samples that tie distances, which no CEC sample does: runs of two
#      user problems on narrow boxes centred at -3e8, a line and a plane,
#      at budgets 3, 300, 3000, 12345 and 50000, both seeds (their
#      coordinates are multiples of the spacing of floats there, so the
#      samples repeat values); and `cluster_population` of 8192 points
#      drawn, with duplicates, from grids in [-2, 2]^d: spacing 0.001 in
#      1-D, 0.25 and 0.01 in 2-D, 0.25 in 3-D, each cluster's size and the
#      SHA-256 of its rows and fitness, and the evaluations made. Many of
#      their neighbor rows are cut at a tie.
# Every difference is reported; the exit status is 1 if there is any.
set -u
here=$(cd "$(dirname "$0")" && pwd)
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$(mkdir -p "$3" && cd "$3" && pwd)
status=0

differ() {  # report a difference and remember it
  echo "DIFFERS: $1"
  status=1
}

for side in base head; do
  src=$base
  if [ "$side" = head ]; then src=$head; fi
  for seed in 0 1000; do
    PYTHONPATH="$src" python -m hillvallea.cli run --problems 1-10 --runs 1 --seed "$seed" \
      --jobs 2 --out "$out/$side-$seed.csv" --reports-dir "$out/$side-reports-$seed" \
      > "$out/$side-$seed.stdout" 2> "$out/$side-$seed.stderr"
  done
  PYTHONPATH="$src" python -c 'import dataclasses, sys; from hillvallea import get_problem, run_hillvallea; sys.stdout.writelines(run_hillvallea(dataclasses.replace(get_problem(p), budget=b), s).serialize() for s in (0, 1000) for p in range(1, 11) for b in (3, 300, 3000, 12345))' \
    > "$out/$side-cuts.txt"
  PYTHONPATH="$src" python - > "$out/$side-tied.txt" <<'PY'
import dataclasses, hashlib, sys
import numpy as np
from hillvallea import cluster_population, run_hillvallea
from hillvallea.problem import BudgetedEvaluator, ProblemSpec

line = ProblemSpec(id=0, name="far line", dimension=1, lower=[-3e8 - 5e-5],
                   upper=[-3e8 + 5e-5], budget=2000, known_optima=[[-3e8]],
                   optimum_fitness=-1.0, niche_radius=1e-6, maximize=False,
                   objective=lambda X: np.cos(4e5 * (X[:, 0] + 3e8)))
plane = ProblemSpec(id=0, name="far plane", dimension=2, lower=[-3e8 - 1e-5] * 2,
                    upper=[-3e8 + 1e-5] * 2, budget=2000, known_optima=[[-3e8] * 2],
                    optimum_fitness=-2.0, niche_radius=1e-6, maximize=False,
                    objective=lambda X: np.cos(2e6 * (X + 3e8)).sum(axis=1))
sys.stdout.writelines(run_hillvallea(dataclasses.replace(spec, budget=b), s).serialize()
                      for s in (0, 1000) for spec in (line, plane)
                      for b in (3, 300, 3000, 12345, 50000))
for d, spacing in ((1, 0.001), (2, 0.25), (2, 0.01), (3, 0.25)):
    spec = ProblemSpec(id=0, name="grid", dimension=d, lower=[-2.0] * d,
                       upper=[2.0] * d, budget=10 ** 6, known_optima=[[0.0] * d],
                       optimum_fitness=0.0, niche_radius=0.1, maximize=False,
                       objective=lambda X: np.cos(16 * X).sum(axis=1) + 0.1 * (X * X).sum(axis=1))
    steps = round(4 / spacing)
    xs = np.random.default_rng(d).integers(0, steps + 1, (8192, d)) * spacing - 2.0
    e = BudgetedEvaluator(spec)
    clusters = cluster_population(e.evaluate_batch(xs), e)
    print(f"grid d={d} spacing={spacing}: {len(clusters)} clusters, {e.used} evaluations")
    for x, f in clusters:
        print(len(f), hashlib.sha256(x.tobytes() + f.tobytes()).hexdigest())
PY
  mkdir -p "$out/$side-commands"
  PYTHONPATH="$src" python -m hillvallea.cli list \
    > "$out/$side-commands/list.out" 2> "$out/$side-commands/list.err"
  echo $? > "$out/$side-commands/list.status"
  for report in "$out/$side-reports-0"/problem*_seed0.txt; do
    name=$(basename "$report" .txt)
    problem=${name#problem}
    problem=$((10#${problem%%_*}))
    # from inside the reports directory, so both sides name the file alike
    (cd "$out/$side-reports-0" && PYTHONPATH="$src" python -m hillvallea.cli score \
      "$name.txt" --problem "$problem" \
      > "$out/$side-commands/$name.out" 2> "$out/$side-commands/$name.err"
     echo $? > "$out/$side-commands/$name.status")
  done
  "$here/error_paths.sh" "$src" "$out/$side-errors" > /dev/null
done

for seed in 0 1000; do
  cmp "$out/base-$seed.csv" "$out/head-$seed.csv" || differ "campaign CSV, seed $seed"
  cmp "$out/base-$seed.stdout" "$out/head-$seed.stdout" || differ "campaign stdout, seed $seed"
  cmp "$out/base-$seed.stderr" "$out/head-$seed.stderr" || differ "campaign stderr, seed $seed"
  diff -r "$out/base-reports-$seed" "$out/head-reports-$seed" || differ "campaign reports, seed $seed"
done
cmp "$out/base-cuts.txt" "$out/head-cuts.txt" || differ "reports at cut budgets"
cmp "$out/base-tied.txt" "$out/head-tied.txt" || differ "reports of tied samples"
diff -r "$out/base-commands" "$out/head-commands" || differ "list and score"
diff -r "$out/base-errors" "$out/head-errors" || differ "error paths"
if [ "$status" -eq 0 ]; then echo "byte-identical"; fi
exit "$status"
