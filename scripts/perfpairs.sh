#!/usr/bin/env bash
# Runs the benchmark on two commits in alternating pairs:
#
#   bash scripts/perfpairs.sh PARENT CHANGE WORKLOAD N [SEED]
#
# Both commits are exported with git archive into a temporary directory
# outside the tree, where each builds its own benchmark. Pair i runs
# `perfbench/run.sh --workload WORKLOAD --seconds 25` once on each, with
# seed SEED+i-1 (SEED defaults to 1); odd pairs run PARENT first, even
# pairs CHANGE first. Each output is saved under A/ (PARENT) or B/
# (CHANGE) in that directory. The script prints every pair's job_s,
# how many pairs CHANGE won (a lower job_s), and ends with
# `perfbench -compare A B` against CHANGE's BENCHMARK.json, whose exit
# status it returns. Run it from inside the repository.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 PARENT CHANGE WORKLOAD N [SEED]" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 n=$4 seed=${5:-1}

dir=$(mktemp -d)
echo "perfpairs: exports and outputs in $dir" >&2
for side in A B; do
	rev=$parent
	[ "$side" = B ] && rev=$change
	mkdir -p "$dir/$side" "$dir/tree-$side"
	git archive "$rev" | tar -x -C "$dir/tree-$side"
done

# job_s of one saved output: the value of its result line's job_s metric.
job_s() {
	sed -n 's/.*"job_s":{"value":\([^,}]*\).*/\1/p' "$1"
}

run() { # run SIDE SEED
	(cd "$dir/tree-$1" && bash perfbench/run.sh --workload "$workload" --seconds 25 --seed "$2") \
		>"$dir/$1/$workload-$2.json"
}

won=0
for i in $(seq 1 "$n"); do
	s=$((seed + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		run A "$s"
		run B "$s"
	else
		run B "$s"
		run A "$s"
	fi
	a=$(job_s "$dir/A/$workload-$s.json")
	b=$(job_s "$dir/B/$workload-$s.json")
	if awk -v a="$a" -v b="$b" 'BEGIN { exit !(b < a) }'; then
		won=$((won + 1))
	fi
	echo "pair $i seed $s: job_s $a -> $b"
done
echo "$change won $won of $n pairs on $workload"
cd "$dir/tree-B" && .bench_build/perfbench -compare -config BENCHMARK.json "$dir/A" "$dir/B"
