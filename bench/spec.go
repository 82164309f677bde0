package main

import (
	"encoding/json"
	"fmt"

	"tcfpram"
	"tcfpram/bench/gen"
)

// This file is the single definition of the benchmark's workloads and
// metrics. BENCHMARK.json at the repository root is generated from it
// (-write-spec) and the smoke test fails when the two disagree.

// runSeconds is how long one run measures: ten segments of a tenth each.
const runSeconds = 20

// segments is the number of measured segments of a serve run. It is fixed:
// a shorter run shortens the segment, never the count.
const segments = 10

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"serve-hot", "16 corpus programs round-robin over POST /run: every request a compile-cache and pool hit, so HTTP, JSON, admission, Reset and load dominate and the frontend is bypassed"},
	{"serve-cold", "48 generated 150-300 line programs round-robin on the fused backend, each request under a first line never sent before: always a cache miss, so lang, sema, analysis, codegen and fuse dominate"},
	{"engine-thick", "five kernels at thickness 2^17 on both backends, lockstep, serial: operation generation, mem.Shared resolution and multiop combining do nearly all the work"},
	{"engine-flows", "five kernels of many thin flows and many steps on both backends: storage-buffer rotation, split/join, barriers and per-step fixed cost dominate and lanes do little"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md defines each on each workload. The
// bounds are the contract's maximum: the shared 2-core box the baseline was
// taken on slows whole runs by up to a fifth at times, and ten runs of one
// metric spread by up to 0.12 of their median (README.md, "Noise").
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"run_p50_us", "us", lower, 0.25},
	{"run_p95_us", "us", lower, 0.25},
	{"run_rps", "1/s", higher, 0.25},
	{"sim_ns_per_op.interp", "ns", lower, 0.25},
	{"sim_ns_per_op.fused", "ns", lower, 0.25},
	{"sim_ns_per_cycle.interp", "ns", lower, 0.25},
	{"sim_ns_per_cycle.fused", "ns", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

var (
	backends = []tcfpram.Backend{tcfpram.BackendInterp, tcfpram.BackendFused}
	scheds   = []tcfpram.Sched{tcfpram.SchedLockstep, tcfpram.SchedDataflow}
)

func parName(parallel bool) string {
	if parallel {
		return "parallel"
	}
	return "serial"
}

// perLayer lists the metrics of single layers (layer = package name), taken
// by the traced pass. Like the end-to-end ones, every workload reports all
// of them: those of the compile and request path on the workload's own
// programs, the fixed probes (kernel rows, variant, mem, multiop,
// checkpoint) on the inputs README.md names.
func perLayer() []metricSpec {
	ms := []metricSpec{
		{"lang.lex_us", "us", lower, 0},
		{"lang.parse_us", "us", lower, 0},
		{"lang.tokens", "count", lower, 0},
		{"lang.src_bytes", "count", lower, 0},
		{"sema.check_us", "us", lower, 0},
		{"analysis.vet_us", "us", lower, 0},
		{"analysis.cost_us", "us", lower, 0},
		{"analysis.cost_resolved_share", "ratio", higher, 0},
		{"analysis.cost_cycle_err", "count", lower, 0},
		{"codegen.compile_us", "us", lower, 0},
		{"codegen.instrs", "count", lower, 0},
		{"fuse.compile_us", "us", lower, 0},
		{"fuse.reg_instr_share", "ratio", higher, 0},
		{"fuse.mean_run_len", "count", higher, 0},
		{"machine.new_us", "us", lower, 0},
		{"machine.reset_us", "us", lower, 0},
		{"machine.load_us", "us", lower, 0},
		{"machine.ns_per_step.thick", "ns", lower, 0},
		{"machine.ns_per_step.thin", "ns", lower, 0},
		{"machine.allocs_per_step", "count", lower, 0},
		{"machine.sim_steps", "count", lower, 0},
		{"machine.sim_cycles", "count", lower, 0},
		{"machine.sim_ops", "count", lower, 0},
	}
	for s := tcfpram.Stage(0); s <= tcfpram.StageCommit; s++ {
		ms = append(ms, metricSpec{"machine.stage_cycles." + s.String(), "count", lower, 0})
	}
	for _, k := range append(append([]string(nil), gen.ThickKernelNames...), gen.FlowKernelNames...) {
		for _, b := range backends {
			ms = append(ms, metricSpec{fmt.Sprintf("machine.ns_per_op.%s.%s", k, b), "ns", lower, 0})
		}
	}
	for _, b := range backends {
		for _, s := range scheds {
			for _, par := range []bool{false, true} {
				ms = append(ms, metricSpec{fmt.Sprintf("machine.ns_per_op.%s-%s-%s", b, s, parName(par)), "ns", lower, 0})
			}
		}
	}
	ms = append(ms, metricSpec{"machine.lane_chunks", "count", higher, 0})
	for _, v := range tcfpram.Variants() {
		ms = append(ms, metricSpec{"variant.ns_per_op." + v.String(), "ns", lower, 0})
	}
	return append(ms,
		metricSpec{"mem.applystep_ns_per_write.disjoint", "ns", lower, 0},
		metricSpec{"mem.applystep_ns_per_write.conflict", "ns", lower, 0},
		metricSpec{"mem.load_ns_per_word", "ns", lower, 0},
		metricSpec{"mem.peek_ns", "ns", lower, 0},
		metricSpec{"multiop.resolve_ns_per_ref.few_addr", "ns", lower, 0},
		metricSpec{"multiop.resolve_ns_per_ref.one_addr", "ns", lower, 0},
		metricSpec{"checkpoint.snapshot_ms", "ms", lower, 0},
		metricSpec{"checkpoint.restore_ms", "ms", lower, 0},
		metricSpec{"checkpoint.snapshot_kb", "KB", lower, 0},
		metricSpec{"serve.handler_us", "us", lower, 0},
		metricSpec{"serve.http_overhead_us", "us", lower, 0},
		metricSpec{"serve.json_us", "us", lower, 0},
		metricSpec{"serve.cache_get_hit_ns", "ns", lower, 0},
		metricSpec{"serve.pool_cycle_ns", "ns", lower, 0},
		metricSpec{"serve.cache_hit_share", "ratio", higher, 0},
		metricSpec{"serve.pool_hit_share", "ratio", higher, 0},
		metricSpec{"serve.alloc_kb_per_req", "KB", lower, 0},
		metricSpec{"serve.run_p99_us", "us", lower, 0},
		metricSpec{"serve.journal_us_per_req", "us", lower, 0},
		metricSpec{"trace.sum_vs_whole", "ratio", higher, 0},
		metricSpec{"trace.unattributed_share", "ratio", lower, 0},
		metricSpec{"trace.overhead_share", "ratio", lower, 0},
	)
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type layerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layerSpec
	for _, m := range perLayer() {
		layers = append(layers, layerSpec{m.Name, m.Unit, m.Better})
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// specByName indexes a metric list.
func specByName(ms []metricSpec) map[string]metricSpec {
	idx := make(map[string]metricSpec, len(ms))
	for _, m := range ms {
		idx[m.Name] = m
	}
	return idx
}
