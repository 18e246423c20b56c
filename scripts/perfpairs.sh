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
# seed SEED+i-1 (SEED defaults to 1): every workload on one commit, then
# every workload on the other in the same order, PARENT first in odd
# pairs and CHANGE first in even ones. A run can carry over into the
# next, so with two or more workloads no run follows the other commit's
# run of its own workload, and the order changes from pair to pair (see
# order), so no workload always runs right after the same one. Each
# output is saved under A/ (PARENT) or B/ (CHANGE) in that directory.
# The script prints every pair's job_s for each workload, how many pairs
# CHANGE won on each (a lower job_s), and ends with one `perfbench
# -compare A B` over all of them against CHANGE's BENCHMARK.json, whose
# exit status it returns. Run it from inside the repository.
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

# order I: the workloads of pair I, in the order they run. The orders
# are the rows of a balanced Latin square (a Williams design: the row
# 0, 1, k-1, 2, k-2, ... shifted by the row's number, and for an odd
# count k also each shifted row reversed), and each row serves two
# consecutive pairs, one with each commit first. Over every k rows (2k
# for odd k) each workload runs right after each other one equally
# often, whichever commit runs first.
order() {
	local k=${#workloads[@]} rows=${#workloads[@]} row j v
	local -a idx=()
	if [ $((k % 2)) -eq 1 ]; then
		rows=$((2 * k))
	fi
	row=$((($1 - 1) / 2 % rows))
	for ((j = 0; j < k; j++)); do
		if [ "$j" -eq 0 ]; then
			v=0
		elif [ $((j % 2)) -eq 1 ]; then
			v=$(((j + 1) / 2))
		else
			v=$((k - j / 2))
		fi
		idx+=($(((v + row) % k)))
	done
	for ((j = 0; j < k; j++)); do
		if [ "$row" -ge "$k" ]; then
			echo "${workloads[${idx[k - 1 - j]}]}"
		else
			echo "${workloads[${idx[j]}]}"
		fi
	done
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
	mapfile -t ws < <(order "$i")
	for side in "$first" "$second"; do
		for w in "${ws[@]}"; do
			run "$side" "$w" "$s"
		done
	done
	for w in "${ws[@]}"; do
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
