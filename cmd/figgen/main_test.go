package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestEmitTargets(t *testing.T) {
	cases := map[string]string{
		"table1":    "task switch",
		"fig2":      "step speedup",
		"fig7":      "Single-instruction variant",
		"fig8":      "Balanced variant",
		"fig9":      "Multi-instruction",
		"fig12":     "both branch paths",
		"fig13":     "fetches per TCF",
		"autosplit": "threshold",
		"storage":   "cached-regfile",
		"summary":   "deploop",
		"fig1":      "avg hops",
		"fig3":      "flow spans",
		"fig4":      "thickness timeline",
		"fig6":      "single-processor view",
		"fig10":     "utilization",
		"fig11":     "NUMA bunch",
		"s4":        "S4h allocation",
		"scaling":   "speedup",
	}
	for target, want := range cases {
		target, want := target, want
		t.Run(target, func(t *testing.T) {
			var out bytes.Buffer
			if err := emit(target, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%s output missing %q:\n%s", target, want, out.String())
			}
		})
	}
}

func TestEmitUnknownTarget(t *testing.T) {
	var out bytes.Buffer
	if err := emit("fig99", &out); err == nil {
		t.Fatal("unknown target accepted")
	}
}
