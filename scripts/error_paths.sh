#!/bin/bash
# Run a fixed list of failing `hillvallea` invocations and record, per
# case, its stdout (NN.out), stderr (NN.err) and exit status (NN.status).
#
#     scripts/error_paths.sh SRC OUT
#
# SRC is the source tree to run (put on PYTHONPATH) and OUT an empty
# directory for the records. The cases run inside OUT/work, with relative
# paths, so two trees give comparable records: `diff -r BASE_OUT HEAD_OUT`.
# The cases cover every failure of `list`, `run` and `score` (status 1)
# and a sample of argument errors (argparse, status 2).
set -u
src=$(cd "$1" && pwd)
out=$(mkdir -p "$2" && cd "$2" && pwd)
work="$out/work"
rm -rf "$work"
mkdir -p "$work/taken" "$work/rep/problem02_seed0.txt"
cd "$work"
touch afile
printf 'this is not a report\n' > bad.txt
printf '2 0 100\n0.1 1.0\n' > r2.txt
printf '2 0 -5\n0.1 1.0\n' > neg.txt
printf '4 0 100\n3.0 200.0\n' > wide.txt
printf '11 0 100\n0.1 1.0\n' > r11.txt
printf '1 0 3.5\n0.1 1.0\n' > frac.txt
printf '2 0 100\n0.1 abc\n' > word.txt

cases=(
  # list
  "list --problems 25"
  "list --problems 0,3"
  "list --problems x"
  ""
  "bogus"
  # run: status 1
  "run --problems 11 --runs 1 --out r.csv"
  "run --problems 21 --runs 1 --out r.csv"
  "run --problems=-3 --runs 1 --out r.csv"
  "run --problems 2 --runs 1 --out taken"
  "run --problems 2 --runs 1 --out missing/r.csv"
  "run --problems 2 --runs 1 --reports-dir afile --out r.csv"
  "run --problems 2 --runs 1 --reports-dir rep --out r.csv"
  "run --problems 2 --runs 1 --out /dev/full"
  # run: usage errors
  "run"
  "run --problems 5-1"
  "run --problems , --out r.csv"
  "run --problems 1-x --out r.csv"
  "run --problems 2 --runs 0 --out r.csv"
  "run --problems 2 --runs two --out r.csv"
  "run --problems 2 --jobs 1.5 --out r.csv"
  "run --problems 2 --seed -1 --out r.csv"
  "run --problems 2 --epsilon nan --out r.csv"
  # score: status 1
  "score missing.txt --problem 2"
  "score bad.txt --problem 2"
  "score r2.txt --problem 3"
  "score neg.txt --problem 2"
  "score wide.txt --problem 4"
  "score r11.txt --problem 11"
  "score r2.txt --problem 99"
  "score frac.txt --problem 1"
  "score word.txt --problem 2"
  # score: usage errors
  "score r2.txt"
  "score r2.txt --problem x"
  "score r2.txt --problem 2 --epsilon 1e-9"
)
n=0
for args in "${cases[@]}"; do
  n=$((n + 1))
  id=$(printf '%02d' "$n")
  # shellcheck disable=SC2086  # the case is split into arguments on purpose
  PYTHONPATH="$src" python -m hillvallea.cli $args > "$out/$id.out" 2> "$out/$id.err"
  echo "$?" > "$out/$id.status"
  printf '%s\n' "$args" > "$out/$id.args"
done
cd "$out" && rm -rf "$work"
echo "$n failing invocations recorded in $out"
