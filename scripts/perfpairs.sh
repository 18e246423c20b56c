#!/usr/bin/env bash
# Runs the benchmark on two commits in alternating pairs:
#
#   bash scripts/perfpairs.sh PARENT CHANGE WORKLOADS N [SEED]
#
# WORKLOADS is one workload or a comma-separated list of them, such as
# paper,engine,verify,service. Both commits are exported with git
# archive into a temporary directory outside the tree, where each builds
# its own benchmark. Pair i runs `perfbench/run.sh --workload W
# --seconds 25` once on each commit for every listed workload W, with
# seed SEED+i-1 (SEED defaults to 1); odd pairs run PARENT first, even
# pairs CHANGE first. Each output is saved under A/ (PARENT) or B/
# (CHANGE) in that directory. The script prints every pair's job_s for
# each workload, how many pairs CHANGE won on each (a lower job_s), and
# ends with one `perfbench -compare A B` over all of them against
# CHANGE's BENCHMARK.json, whose exit status it returns. Run it from
# inside the repository.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 PARENT CHANGE WORKLOADS N [SEED]" >&2
	exit 2
fi
parent=$1 change=$2 n=$4 seed=${5:-1}
IFS=, read -r -a workloads <<<"$3"

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

run() { # run SIDE WORKLOAD SEED
	(cd "$dir/tree-$1" && bash perfbench/run.sh --workload "$2" --seconds 25 --seed "$3") \
		>"$dir/$1/$2-$3.json"
}

declare -A won
for w in "${workloads[@]}"; do
	won[$w]=0
done
for i in $(seq 1 "$n"); do
	s=$((seed + i - 1))
	first=A second=B
	if [ $((i % 2)) -eq 0 ]; then
		first=B second=A
	fi
	for w in "${workloads[@]}"; do
		run "$first" "$w" "$s"
		run "$second" "$w" "$s"
		a=$(job_s "$dir/A/$w-$s.json")
		b=$(job_s "$dir/B/$w-$s.json")
		if awk -v a="$a" -v b="$b" 'BEGIN { exit !(b < a) }'; then
			won[$w]=$((won[$w] + 1))
		fi
		echo "pair $i seed $s $w: job_s $a -> $b"
	done
done
for w in "${workloads[@]}"; do
	echo "$change won ${won[$w]} of $n pairs on $w"
done
cd "$dir/tree-B" && .bench_build/perfbench -compare -config BENCHMARK.json "$dir/A" "$dir/B"
