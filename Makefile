# Convenience targets for the tcfpram reproduction.

GO ?= go

.PHONY: all build test race bench-smoke bench-compile bench-engine benchall table figures net examples fuzz fmtcheck lint detlint vet serve serve-test clean

# Pinned linter versions, fetched on demand with `go run` so the repo adds
# no module dependencies. Bump deliberately; CI uses the same pins.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.4

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# bench-smoke builds, vets and smoke-tests tcfbench (bench/, the repository's
# benchmark: `go run -C bench .`). It is a module of its own that `build` and
# `test` never compile; run this when an internal/ API it imports changes.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-compile runs the compile path's per-layer benchmarks (lexer to fused
# program, over internal/lang/testdata/cold.te) and BenchmarkServeCold, the
# whole cold request through the tcfserve handler with the same program. It
# is a smoke at -benchtime=20x, as CI's bench job runs it, and gates nothing:
# raise -benchtime and alternate two checkouts for numbers worth reading.
bench-compile:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=20x \
		./internal/lang ./internal/sema ./internal/analysis ./internal/codegen ./internal/fuse ./internal/serve

# bench-engine runs the step engine's per-layer benchmarks: the step commit's
# (BenchmarkApplyStep in internal/mem — unit stride, stride 2, two runs
# disjoint and overlapping, an 8-way scatter, 2048 runs of 4 — and
# BenchmarkResolve in internal/multiop — few addresses, one address with
# prefixes, two flows on one address; 2^17 references per step through the
# write and combining logs; ns/ref, B/ref buffered and allocs per step) and the
# step loop's fixed cost (BenchmarkStepFixedCost in internal/machine: one busy
# group of four, 2048 queued flows, 2048 flows created and retired, 16 flows
# at a barrier, one scalar flow, a NUMA bunch of eight, and a store, a
# multioperation and an output every step; ns/step and allocs per step;
# BenchmarkResetRun: Reset, load and a whole run on one machine, a thick
# register file, 2048 thin flows and a program of three steps; ns/op and B/op
# across Reset) and the lane kernels' (BenchmarkBulk in internal/isa
# — the bulk forms next to the per-lane call they replaced — and BenchmarkKern
# in internal/fuse — one compiled kernel per operand shape at 4 and 2^17
# lanes; ns/lane), then what a flow's lifecycle costs through the facade
# (BenchmarkTable1_FlowBranch and BenchmarkS4g_Multitask of the root package;
# B/op and allocs/op are the figures: split_2048 above is the same cost per
# step). It is a smoke at -benchtime=20x, as CI's bench job runs it, and gates
# nothing.
bench-engine:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=20x ./internal/mem ./internal/multiop ./internal/machine ./internal/isa ./internal/fuse
	$(GO) test -run '^$$' -bench 'BenchmarkTable1_FlowBranch|BenchmarkS4g_Multitask' -benchmem -benchtime=20x .

# benchall runs the paper-figure benchmarks of bench_test.go/ablation_test.go.
benchall:
	$(GO) test -bench=. -benchmem ./...

table:
	$(GO) run ./cmd/tablegen

figures:
	$(GO) run ./cmd/figgen all

net:
	$(GO) run ./cmd/netbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/prefixsum
	$(GO) run ./examples/mergesort
	$(GO) run ./examples/multitask
	$(GO) run ./examples/variants
	$(GO) run ./examples/bfs
	$(GO) run ./examples/matmul

fuzz:
	$(GO) test -fuzz=FuzzAssemble -fuzztime=30s ./internal/isa/
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/isa/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/lang/
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=30s ./internal/analysis/
	$(GO) test -fuzz=FuzzCostAnalyze -fuzztime=30s ./internal/analysis/
	$(GO) test -race -fuzz=FuzzApplyStepVsSorted -fuzztime=20s ./internal/mem/
	$(GO) test -fuzz=FuzzResolveVsSorted -fuzztime=20s ./internal/multiop/
	$(GO) test -fuzz=FuzzBulkVsEval -fuzztime=20s ./internal/isa/
	$(GO) test -fuzz=FuzzRestore -fuzztime=30s ./internal/chaos/
	$(GO) test -fuzz=FuzzLattice -fuzztime=90s ./internal/chaos/
	$(GO) test -fuzz=FuzzRunBody -fuzztime=30s ./internal/serve/

# fmtcheck fails, naming the files, when gofmt would change any.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# lint checks formatting, then runs the pinned static checkers on top of go
# vet (requires network access the first time, to fetch the pinned tools),
# then the in-tree determinism linter over the engine packages.
lint: fmtcheck
	$(GO) vet ./...
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...
	$(GO) run ./cmd/detlint

# detlint runs only the in-tree determinism linter (no network needed): it
# flags map ranges, wall-clock reads and math/rand in the deterministic
# engine packages.
detlint:
	$(GO) run ./cmd/detlint

# vet runs tcfvet over every checked-in tcf-e program (codegen corpus and
# example sources) and compares against the expected-findings file, so new
# analyzer findings on the corpus are caught as regressions.
vet:
	$(GO) run ./cmd/tcfvet -discipline crew \
		-expect internal/analysis/testdata/expected_findings.txt \
		internal/codegen/testdata examples

# serve runs the multi-tenant execution server; serve-test is the CI smoke
# (race-enabled unit + integration tests incl. SIGTERM drain and
# goroutine-leak checks).
serve:
	$(GO) run ./cmd/tcfserve

serve-test:
	$(GO) test -race -count=1 ./internal/serve ./cmd/tcfserve ./cmd/tcfrun

clean:
	rm -f test_output.txt bench_output.txt
