package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
)

// runImage captures everything observable about one finished run that a
// pooled machine must reproduce bit-identically against a fresh build.
type runImage struct {
	stats   machine.Stats
	outputs []machine.Output
	memory  []int64
	errText string
}

// loadAndRun mirrors the server's execute path: program + local data
// segments, then a context run.
func loadAndRun(m *machine.Machine, c *codegen.Compiled) runImage {
	img := runImage{}
	if err := m.LoadProgram(c.Program); err != nil {
		img.errText = err.Error()
		return img
	}
	for _, seg := range c.LocalData {
		for g := 0; g < m.Config().Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				img.errText = err.Error()
				return img
			}
		}
	}
	_, err := m.RunContext(context.Background())
	if err != nil {
		img.errText = err.Error()
	}
	st := *m.Stats()
	st.PerGroupOps = append([]int64(nil), st.PerGroupOps...)
	st.PerGroupCycles = append([]int64(nil), st.PerGroupCycles...)
	img.stats = st
	img.outputs = append([]machine.Output(nil), m.Outputs()...)
	img.memory = m.Shared().Snapshot(0, 4096)
	return img
}

// corpusPrograms compiles every tcf-e program in the codegen corpus.
func corpusPrograms(tb testing.TB) map[string]*codegen.Compiled {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "codegen", "testdata", "*.te"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no corpus programs: %v", err)
	}
	progs := make(map[string]*codegen.Compiled)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := codegen.CompileSource(filepath.Base(f), string(src))
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		progs[filepath.Base(f)] = c
	}
	return progs
}

// spinCompiled is an unbounded loop that keeps committing shared writes, so
// it makes progress (no watchdog) until a quota or deadline stops it.
func spinCompiled(tb testing.TB) *codegen.Compiled {
	tb.Helper()
	c, err := codegen.CompileSource("spin.te", `
shared int beat[1] @ 900;
func main() {
	int n = 0;
	while (1) {
		n += 1;
		beat[0] = n;
	}
}
`)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestPoolReuseBitIdentity interleaves pooled runs of the whole corpus
// across goroutines (run under -race in CI) and asserts every reused
// machine reproduces the fresh-machine result bit for bit — stats, outputs
// and the shared-memory image. Reuse after quota-faulted and canceled runs
// is part of the schedule.
func TestPoolReuseBitIdentity(t *testing.T) {
	// Every Release resets a machine: none may leave a word for the next lease.
	mem.ResetAudit.Store(true)
	t.Cleanup(func() { mem.ResetAudit.Store(false) })
	progs := corpusPrograms(t)
	spin := spinCompiled(t)
	cfg := machine.Default(variant.SingleInstruction)

	// Fresh-machine baselines, one per program.
	want := make(map[string]runImage, len(progs))
	names := make([]string, 0, len(progs))
	for name, c := range progs {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		img := loadAndRun(m, c)
		if img.errText != "" {
			t.Fatalf("%s baseline: %s", name, img.errText)
		}
		want[name] = img
		names = append(names, name)
	}

	pool := NewMachinePool(3)
	const workers, iters = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lease, err := pool.Get(cfg)
				if err != nil {
					errs <- err
					return
				}
				if err := lease.M.SetLimits(0, 0); err != nil {
					errs <- err
					return
				}
				// Every third iteration dirties the machine with an
				// abnormal stop first: a MaxSteps-quota abort or a
				// canceled run. Release resets it either way.
				switch (w + i) % 3 {
				case 1:
					if err := lease.M.SetLimits(5, 0); err != nil {
						errs <- err
						return
					}
					img := loadAndRun(lease.M, spin)
					if !strings.Contains(img.errText, machine.ErrMaxSteps.Error()) {
						errs <- fmt.Errorf("worker %d iter %d: spin err = %q, want ErrMaxSteps", w, i, img.errText)
					}
					lease.Release()
					continue
				case 2:
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if err := lease.M.LoadProgram(spin.Program); err != nil {
						errs <- err
						return
					}
					if _, err := lease.M.RunContext(ctx); !errors.Is(err, machine.ErrCanceled) {
						errs <- fmt.Errorf("worker %d iter %d: canceled err = %v", w, i, err)
					}
					lease.Release()
					continue
				}
				name := names[(w*iters+i)%len(names)]
				img := loadAndRun(lease.M, progs[name])
				if !reflect.DeepEqual(img, want[name]) {
					errs <- fmt.Errorf("worker %d iter %d: %s on a pooled machine differs from fresh\ngot  %+v\nwant %+v",
						w, i, name, img.stats, want[name].stats)
				}
				lease.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	c := pool.Counters()
	if c.Hits == 0 {
		t.Error("pool never reused a machine across 96 interleaved runs")
	}
	if c.Discards != 0 {
		t.Errorf("pool discarded %d machines without a panic", c.Discards)
	}
}

// TestPoolRejectsUnpoolableConfigs: configs carrying run-specific state
// (topology objects, fault plans, observers, traces) must not enter the
// pool.
func TestPoolRejectsUnpoolableConfigs(t *testing.T) {
	pool := NewMachinePool(2)
	cfg := machine.Default(variant.SingleInstruction)
	cfg.TraceEnabled = true
	if _, err := pool.Get(cfg); err == nil {
		t.Fatal("traced config accepted into the pool")
	}
}

// TestPoolDiscardAndClose: discarded leases never return to the idle set,
// and a closed pool drops releases instead of growing.
func TestPoolDiscardAndClose(t *testing.T) {
	pool := NewMachinePool(2)
	cfg := machine.Default(variant.SingleInstruction)

	lease, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lease.Discard()
	lease.Release() // second settle is a no-op
	if c := pool.Counters(); c.Discards != 1 || c.Idle != 0 {
		t.Fatalf("after discard: %+v", c)
	}

	lease, err = pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	lease.Release()
	if c := pool.Counters(); c.Idle != 0 {
		t.Fatalf("release after close kept a machine idle: %+v", c)
	}
}
