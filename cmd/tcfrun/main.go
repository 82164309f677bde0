// Command tcfrun compiles and executes a tcf-e (.te) or TCF assembler
// (.tasm) program on a chosen execution variant of the extended PRAM-NUMA
// machine, then reports results and statistics.
//
// Usage:
//
//	tcfrun [flags] program.te
//	tcfrun [flags] program.tasm
//	echo 'func main() { print(42); }' | tcfrun -lang tcfe -
//
// Flags select the variant (-variant tcf|balanced|xmt|esm|pram-numa|simd),
// machine shape (-groups, -procs), and diagnostics (-trace, -gantt, -dis).
// -vet statically analyzes a tcf-e program before running it (errors abort
// the run); -predict runs the cost analyzer and prints the predicted
// bounds next to the measured statistics (with per-field error) after the
// run; -discipline erew|crew enables the runtime memory-discipline
// cross-checker, stopping the run on same-step conflicts the selected PRAM
// model forbids. -max-steps and -timeout bound runaway programs through the
// same governance path (SetLimits + RunContext) the tcfserve execution
// server enforces tenant quotas with.
//
// -checkpoint FILE writes a complete machine snapshot to FILE every
// -checkpoint-every steps (atomic replace; the file always holds the latest
// checkpoint). -resume FILE restores from such a snapshot — the program is
// embedded, so no program argument is given — and continues the run
// bit-identically to the uninterrupted one:
//
//	tcfrun -checkpoint run.ckpt -checkpoint-every 512 program.te
//	tcfrun -resume run.ckpt                 # after a crash
//	tcfrun -resume run.ckpt -checkpoint run.ckpt   # resume and keep checkpointing
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tcfpram"
	"tcfpram/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tcfrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tcfrun", flag.ContinueOnError)
	variantName := fs.String("variant", "tcf", "execution variant: tcf|balanced|xmt|esm|pram-numa|simd (or full names)")
	groups := fs.Int("groups", 0, "processor groups P (0 = variant default)")
	procs := fs.Int("procs", 0, "TCF processor slots per group Tp (0 = default)")
	bound := fs.Int("bound", 0, "balanced variant operation bound b (0 = default)")
	langSel := fs.String("lang", "", "force source language: tcfe|asm (default: by extension)")
	showTrace := fs.Bool("trace", false, "print the step timeline")
	showStages := fs.Bool("stages", false, "print the per-stage cost attribution (Figure 13 pipeline)")
	showGantt := fs.Bool("gantt", false, "print the occupancy gantt")
	showDis := fs.Bool("dis", false, "print the compiled program listing")
	showMem := fs.String("mem", "", "dump shared memory range, e.g. -mem 300:8")
	svgPath := fs.String("svg", "", "write the schedule as an SVG file (implies tracing)")
	vet := fs.Bool("vet", false, "statically analyze tcf-e source before running (error findings abort)")
	predict := fs.Bool("predict", false, "print predicted vs measured cost after the run")
	discName := fs.String("discipline", "", "memory discipline checked at runtime (and by -vet): erew|crew|crcw|off")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the run, e.g. 5s (0 = none)")
	maxSteps := fs.Int64("max-steps", 0, "abort after this many machine steps (0 = default bound)")
	ckptPath := fs.String("checkpoint", "", "write a machine checkpoint to this file periodically (atomic replace)")
	ckptEvery := fs.Int64("checkpoint-every", 1024, "steps between checkpoints (with -checkpoint)")
	resumePath := fs.String("resume", "", "resume from a checkpoint file instead of loading a program")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "tcfrun:", perr)
		}
	}()
	if *resumePath != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("-resume restores the program from the checkpoint; no program file expected")
		}
	} else if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one program file (or '-' for stdin)")
	}

	kind, err := tcfpram.ParseVariant(*variantName)
	if err != nil {
		return err
	}
	cfg := tcfpram.DefaultConfig(kind)
	if *groups > 0 {
		cfg.Groups = *groups
	}
	if *procs > 0 {
		cfg.ProcsPerGroup = *procs
	}
	if *bound > 0 {
		cfg.BalancedBound = *bound
	}
	cfg.TraceEnabled = *showTrace || *showGantt || *svgPath != ""
	disc, err := tcfpram.ParseDiscipline(*discName)
	if err != nil {
		return err
	}
	cfg.MemDiscipline = disc

	// Checkpoint wiring rides in the Config so it applies uniformly to fresh
	// and restored machines (it is result-neutral: restore ignores it when
	// comparing the snapshot's config).
	if *ckptPath != "" {
		if *ckptEvery <= 0 {
			return fmt.Errorf("-checkpoint-every must be positive, got %d", *ckptEvery)
		}
		cfg.CheckpointEvery = *ckptEvery
		cfg.CheckpointSink = &tcfpram.FileCheckpointSink{Path: *ckptPath}
	}

	var m *tcfpram.Machine
	if *resumePath != "" {
		// Behavior-relevant limits must match the snapshot; route -max-steps
		// through the config so RestoreMachine can verify it.
		if *maxSteps > 0 {
			cfg.MaxSteps = *maxSteps
		}
		// The checkpoint embeds the program; the flags must describe the
		// same machine shape the snapshot was taken with (RestoreMachine
		// verifies and names any mismatch).
		f, err := os.Open(*resumePath)
		if err != nil {
			return err
		}
		m, err = tcfpram.RestoreMachine(f, cfg)
		f.Close()
		if err != nil {
			return fmt.Errorf("resume %s: %w", *resumePath, err)
		}
	} else {
		path := fs.Arg(0)
		var src []byte
		if path == "-" {
			src, err = io.ReadAll(os.Stdin)
		} else {
			src, err = os.ReadFile(path)
		}
		if err != nil {
			return err
		}

		lang := ""
		switch {
		case strings.HasSuffix(path, ".tasm"):
			lang = "asm"
		case strings.HasSuffix(path, ".tbin"):
			lang = "bin"
		default:
			lang = "tcfe"
		}
		switch *langSel {
		case "asm", "tcfe", "bin":
			lang = *langSel
		case "":
		default:
			return fmt.Errorf("unknown -lang %q (want tcfe, asm or bin)", *langSel)
		}

		if *vet && lang == "tcfe" {
			// Without an explicit -discipline, vet under CREW (the tcfvet
			// default); an explicit "off" runs the hygiene checks only.
			vetDisc := disc
			if *discName == "" {
				vetDisc = tcfpram.DisciplineCREW
			}
			ds := tcfpram.Vet(path, string(src), tcfpram.VetOptions{
				Discipline: vetDisc,
				Variant:    kind,
			})
			if r := tcfpram.RenderDiagnostics(ds); r != "" {
				fmt.Fprint(out, r)
			}
			if tcfpram.DiagnosticsHaveErrors(ds) {
				return fmt.Errorf("vet: %d finding(s); not running", len(ds))
			}
		}

		if m, err = tcfpram.NewMachine(cfg); err != nil {
			return err
		}
		switch lang {
		case "asm":
			err = m.LoadAssembly(path, string(src))
		case "bin":
			err = m.LoadBinary(src)
		default:
			err = m.LoadSource(path, string(src))
		}
		if err != nil {
			return err
		}
	}
	if *showDis {
		fmt.Fprintln(out, m.Disassembly())
	}
	// -max-steps and -timeout route through SetLimits and RunContext — the
	// same governance path the tcfserve execution server stamps per-tenant
	// quotas and deadlines through. A restored machine got its bound from
	// the config above (SetLimits only applies before Boot).
	if *maxSteps > 0 && *resumePath == "" {
		if err := m.SetLimits(*maxSteps, 0); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	stats, runErr := m.RunContext(ctx)
	for _, o := range m.Outputs() {
		fmt.Fprintln(out, o)
	}
	if *showMem != "" {
		var addr int64
		var n int
		if _, err := fmt.Sscanf(*showMem, "%d:%d", &addr, &n); err != nil {
			return fmt.Errorf("bad -mem %q (want addr:count)", *showMem)
		}
		fmt.Fprintf(out, "mem[%d:%d] = %v\n", addr, addr+int64(n), m.Words(addr, n))
	}
	if *showStages {
		fmt.Fprintf(out, "%s\n%s\n%s\n%s\n", m.StageTable(), m.CommitStats(), m.KernelStats(), m.TailStats())
	}
	if *showTrace {
		fmt.Fprintln(out, m.Timeline())
	}
	if *showGantt {
		fmt.Fprintln(out, m.Gantt())
	}
	if *svgPath != "" {
		if werr := os.WriteFile(*svgPath, []byte(m.TraceSVG()), 0o644); werr != nil {
			return werr
		}
		fmt.Fprintf(out, "wrote schedule SVG to %s\n", *svgPath)
	}
	if stats != nil {
		fmt.Fprintf(out, "variant=%s %s\n", kind, stats)
	}
	if *predict {
		rep, perr := m.PredictCost()
		if perr != nil {
			return perr
		}
		fmt.Fprint(out, tcfpram.PredictionTable(rep, stats))
	}
	return runErr
}
