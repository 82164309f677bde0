#!/bin/sh
# pairs.sh measures a change against its parent with tcfbench in alternating
# pairs and prints the record: every run's raw JSON line, a table of the
# pairs and, per metric both sides report, the medians, the parent's quartile
# spread, the ratio and the wins out of n (scripts/pairs.go).
#
#   scripts/pairs.sh PARENT CHANGE [-workload W] [-seed S] [-n N] [-seconds T]
#
# PARENT and CHANGE are commits (anything git rev-parse takes; for an
# uncommitted tree, `git stash create` names one). Each side is exported with
# git archive into a directory of its own under WORK (default: a fresh
# temporary directory, removed at the end unless KEEP=1), and its tcfbench is
# built once from that side's bench/ and run there: each side measures
# itself with its own benchmark. Pair i runs both sides one after the other,
# the parent first in odd pairs and the change first in even ones, each run
# `-workload W -seed S -seconds T` (defaults engine-thick, 1, 20; n = 10).
# The comparison fails — exit status 1, the record still printed — when a
# run is not correct or failed an operation.
set -eu

usage() {
	echo "usage: scripts/pairs.sh PARENT CHANGE [-workload W] [-seed S] [-n N] [-seconds T]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
shift 2
workload=engine-thick seed=1 n=10 seconds=20
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	-workload) workload=$2 ;;
	-seed) seed=$2 ;;
	-n) n=$2 ;;
	-seconds) seconds=$2 ;;
	*) usage ;;
	esac
	shift 2
done

GO=${GO:-go}
root=$(git rev-parse --show-toplevel)
WORK=${WORK:-$(mktemp -d)}
[ "${KEEP:-0}" = 1 ] || trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/raw"

for side in parent change; do
	eval rev=\$$side
	rm -rf "${WORK:?}/$side"
	mkdir -p "$WORK/$side"
	git archive "$rev" | tar -x -C "$WORK/$side"
	(cd "$WORK/$side/bench" && "$GO" build -o "$WORK/$side.bin" .)
done

# run SIDE I: one run of SIDE in pair I; its last line is the raw record.
run() {
	out="$WORK/raw/$1.$2.json"
	(cd "$WORK/$1/bench" && "$WORK/$1.bin" -workload "$workload" -seed "$seed" -seconds "$seconds") >"$WORK/raw/$1.$2.log" 2>&1 || true
	tail -n 1 "$WORK/raw/$1.$2.log" >"$out"
}

i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) = 1 ]; then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
	echo "pair $i/$n done" >&2
	i=$((i + 1))
done

"$GO" run "$root/scripts/pairs.go" -raw "$WORK/raw" -n "$n" \
	-spec "$WORK/change/BENCHMARK.json" \
	-title "\`$workload\`, seed $seed, $n pairs of $seconds s: $(git rev-parse --short "$parent") → $(git rev-parse --short "$change"), $(nproc) CPUs ($(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1))"
