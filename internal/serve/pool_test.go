package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

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

// TestPoolLeasesAreExclusive: goroutines leasing, running and releasing
// machines of one shape at once (under -race in CI) never hold the same
// machine together, and released machines are leased again. That a pooled
// machine runs as a fresh one is the lattice's pooled row (internal/chaos).
func TestPoolLeasesAreExclusive(t *testing.T) {
	spin := spinCompiled(t)
	cfg := machine.Default(variant.SingleInstruction)
	pool := NewMachinePool(3)
	var mu sync.Mutex
	held := map[*machine.Machine]bool{}
	hold := func(m *machine.Machine, on bool) bool {
		mu.Lock()
		defer mu.Unlock()
		was := held[m]
		held[m] = on
		return was == on
	}
	const workers, iters = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lease, err := pool.Get(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if hold(lease.M, true) {
					t.Errorf("worker %d iter %d: leased a machine another lease holds", w, i)
				}
				if err := lease.M.SetLimits(5, 0); err != nil {
					t.Error(err)
				} else if err := lease.M.LoadProgram(spin.Program); err != nil {
					t.Error(err)
				} else if _, err := lease.M.RunContext(context.Background()); !errors.Is(err, machine.ErrMaxSteps) {
					t.Errorf("worker %d iter %d: spin err = %v, want ErrMaxSteps", w, i, err)
				}
				hold(lease.M, false)
				lease.Release()
			}
		}()
	}
	wg.Wait()

	c := pool.Counters()
	if c.Hits == 0 {
		t.Errorf("pool never reused a machine across %d leases", workers*iters)
	}
	if c.Discards != 0 {
		t.Errorf("pool discarded %d machines without a panic", c.Discards)
	}
}

// TestPoolRejectsUnpoolableConfigs: configs carrying run-specific state
// (topology objects, observers, traces) must not enter the pool.
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
