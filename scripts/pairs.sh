#!/bin/sh
# pairs.sh measures a change against its parent with tcfbench in alternating
# pairs and prints the record: every run's raw JSON line, a table of the
# pairs and, per metric both sides report, the medians, the parent's quartile
# spread, the ratio and the wins out of n (scripts/pairs.go).
#
#   scripts/pairs.sh PARENT CHANGE [-workload W] [-seed S] [-n N] [-seconds T] [-control K]
#
# PARENT and CHANGE are commits (anything git rev-parse takes; for an
# uncommitted tree, `git stash create` names one). Each side is exported with
# git archive into a directory of its own under WORK (default: a fresh
# temporary directory, removed at the end unless KEEP=1), and its tcfbench is
# built once from that side's bench/ and run there: each side measures
# itself with its own benchmark. Pair i runs the sides one after the other,
# the parent first in odd pairs and the change first in even ones, each run
# `-workload W -seed S -seconds T` (defaults engine-thick, 1, 20; n = 10).
# The comparison fails — exit status 1, the record still printed — when a
# run is not correct or failed an operation.
#
# -control K adds a third side, the layout control: the parent plus a
# generated function of about K bytes of machine code that nothing calls,
# first in internal/machine and in internal/mem, so that every function after
# it moves and no instruction a benchmark runs changes. The three sides take
# turns at going first, and the record gives the control's ratio to the
# parent beside the change's: a change whose median lies inside the range the
# control spans over two values of K has shown no more than code layout does.
# Pair i then starts with the side after the one pair i-1 started with.
set -eu

usage() {
	echo "usage: scripts/pairs.sh PARENT CHANGE [-workload W] [-seed S] [-n N] [-seconds T] [-control K]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
shift 2
workload=engine-thick seed=1 n=10 seconds=20 control=
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	-workload) workload=$2 ;;
	-seed) seed=$2 ;;
	-n) n=$2 ;;
	-seconds) seconds=$2 ;;
	-control) control=$2 ;;
	*) usage ;;
	esac
	shift 2
done
case $control in
'' | *[!0-9]*) [ -z "$control" ] || usage ;;
esac
sides="parent change${control:+ control}"

GO=${GO:-go}
root=$(git rev-parse --show-toplevel)
WORK=${WORK:-$(mktemp -d)}
[ "${KEEP:-0}" = 1 ] || trap 'rm -rf "$WORK"' EXIT
rm -rf "${WORK:?}/raw"
mkdir -p "$WORK/raw"

# layout PKGDIR NAME writes into PKGDIR a file that sorts before the others,
# holding a function of about $control bytes of code that an init function
# keeps in the binary without calling it.
layout() {
	awk -v pkg="$(basename "$1")" -v name="$2" -v k="$control" 'BEGIN {
		printf "package %s\n\n// Layout control of scripts/pairs.sh: never called.\n", pkg
		printf "var %sSink func(*[64]int64)\n\nfunc init() { %sSink = %s }\n\n", name, name, name
		printf "func %s(x *[64]int64) {\n", name
		for (i = 0; i < k / 16; i++)
			printf "\tx[%d] ^= x[%d] + %d\n", (i * 7) % 64, (i * 13 + 5) % 64, i * 7919 % 100003
		print "}"
	}' >"$1/0_layout_control.go"
}

for side in $sides; do
	rev=$parent
	[ "$side" = change ] && rev=$change
	rm -rf "${WORK:?}/$side"
	mkdir -p "$WORK/$side"
	git archive "$rev" | tar -x -C "$WORK/$side"
	if [ "$side" = control ]; then
		layout "$WORK/control/internal/machine" machineLayoutControl
		layout "$WORK/control/internal/mem" memLayoutControl
	fi
	(cd "$WORK/$side/bench" && "$GO" build -o "$WORK/$side.bin" .)
done
if [ -n "$control" ]; then
	# The size the linker gave the two functions, for the record's title.
	got=$("$GO" tool nm -size "$WORK/control.bin" | awk '/LayoutControl$/ { s = s " " $2 } END { print s }')
fi

# run SIDE I: one run of SIDE in pair I; its last line is the raw record.
run() {
	out="$WORK/raw/$1.$2.json"
	(cd "$WORK/$1/bench" && "$WORK/$1.bin" -workload "$workload" -seed "$seed" -seconds "$seconds") >"$WORK/raw/$1.$2.log" 2>&1 || true
	tail -n 1 "$WORK/raw/$1.$2.log" >"$out"
}

# Pair i starts with the side after the one pair i-1 started with.
i=1
while [ "$i" -le "$n" ]; do
	set -- $sides
	k=1
	while [ "$k" -lt "$i" ]; do
		first=$1
		shift
		set -- "$@" "$first"
		k=$((k + 1))
	done
	for side in "$@"; do
		run "$side" "$i"
	done
	echo "pair $i/$n done" >&2
	i=$((i + 1))
done

title="\`$workload\`, seed $seed, $n pairs of $seconds s: $(git rev-parse --short "$parent") → $(git rev-parse --short "$change")"
[ -z "$control" ] || title="$title, control K = $control (machine and mem functions of$got bytes)"
"$GO" run "$root/scripts/pairs.go" -raw "$WORK/raw" -n "$n" \
	-spec "$WORK/change/BENCHMARK.json" \
	-title "$title, $(nproc) CPUs ($(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1))"
