#!/bin/sh
# stress-tier1.sh runs tier-1 (go test ./...) N times under load and reports
# how often each test failed. While it runs, a loop of
# `go test -count=1 ./internal/chaos` keeps the CPUs busy, and every run is
# `go test -count=1 -cpu 1,2 ./...`, so each test runs at GOMAXPROCS 1 and 2.
# It exits non-zero when a run failed; the runs' output stays in OUT.
#
#   N=20 scripts/stress-tier1.sh       (what `make stress-tier1` runs)
set -u
N=${N:-20}
GO=${GO:-go}
OUT=${OUT:-$(mktemp -d)}
mkdir -p "$OUT"
rm -f "$OUT/stop"

(while [ ! -e "$OUT/stop" ]; do "$GO" test -count=1 ./internal/chaos >/dev/null 2>&1; done) &
load=$!
trap 'touch "$OUT/stop"' EXIT INT TERM

failed=0
i=1
while [ "$i" -le "$N" ]; do
	start=$(date +%s)
	if "$GO" test -count=1 -cpu 1,2 ./... >"$OUT/run$i.txt" 2>&1; then
		verdict=ok
	else
		verdict=FAIL
		failed=$((failed + 1))
	fi
	echo "run $i/$N: $verdict ($(($(date +%s) - start)) s)"
	i=$((i + 1))
done
touch "$OUT/stop"
wait "$load"

echo "$failed of $N loaded runs failed (output in $OUT)"
# Failures per test, and per package for failures outside any test (a build
# error, a panic, a timeout).
grep -h -e '--- FAIL:' -e '^FAIL	' "$OUT"/run*.txt | sed -e 's/^ *--- FAIL: //' -e 's/ (.*//' | sort | uniq -c | sort -rn
[ "$failed" -eq 0 ]
