package serve

import (
	"fmt"
	"io"
	"sync"

	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
)

// poolKey is the machine-shape identity of a pooled machine: every Config
// field that survives Reset. The per-run governance bounds (MaxSteps,
// MaxThickness) are deliberately excluded — they are re-stamped on every
// lease through SetLimits, so tenants with different quotas share one pool.
type poolKey struct {
	variant       variant.Kind
	groups, procs int
	sharedWords   int
	localWords    int
	writePolicy   mem.Policy
	pipelineDepth int
	memLatency    int
	balancedBound int
	multiWindow   int
	vectorWidth   int
	timeSlice     int64
	autoSplit     int
	watchdog      int64
	discipline    mem.Discipline
}

// keyOf projects a Config onto its pool identity. Configurations carrying
// non-comparable or run-specific state (custom topology, fault plans, stage
// observers, tracing) are not poolable.
func keyOf(cfg machine.Config) (poolKey, error) {
	if cfg.Topology != nil || cfg.FaultPlan != nil || cfg.StageObserver != nil || cfg.TraceEnabled || cfg.CheckpointSink != nil {
		return poolKey{}, fmt.Errorf("serve: config with topology/faults/observer/trace/checkpointing is not poolable")
	}
	return poolKey{
		variant:       cfg.Variant,
		groups:        cfg.Groups,
		procs:         cfg.ProcsPerGroup,
		sharedWords:   cfg.SharedWords,
		localWords:    cfg.LocalWords,
		writePolicy:   cfg.WritePolicy,
		pipelineDepth: cfg.PipelineDepth,
		memLatency:    cfg.MemLatencyBase,
		balancedBound: cfg.BalancedBound,
		multiWindow:   cfg.MultiInstrWindow,
		vectorWidth:   cfg.VectorWidth,
		timeSlice:     cfg.TimeSliceSteps,
		autoSplit:     cfg.AutoSplitThreshold,
		watchdog:      cfg.WatchdogSteps,
		discipline:    cfg.MemDiscipline,
	}, nil
}

// MachinePool reuses machines across requests, keyed by configuration shape.
// Reuse depends on machine.Reset being bit-identical to a fresh build — the
// property the differential lattice's pooled row (internal/chaos) holds on
// every program and variant of its list: a lease stopped by its quota,
// Released, and leased again.
type MachinePool struct {
	mu      sync.Mutex
	idle    map[poolKey][]*machine.Machine
	maxIdle int
	closed  bool

	hits     int64 // leases served from the idle set
	misses   int64 // leases that built a new machine
	discards int64 // leases dropped as poisoned (panic during a run)
	full     int64 // releases dropped because the idle set was full

	hookRelease func(m *machine.Machine) // test seam: sees each released machine before its Reset
}

// NewMachinePool builds a pool keeping at most maxIdlePerKey machines per
// configuration shape (minimum 1).
func NewMachinePool(maxIdlePerKey int) *MachinePool {
	if maxIdlePerKey < 1 {
		maxIdlePerKey = 1
	}
	return &MachinePool{idle: make(map[poolKey][]*machine.Machine), maxIdle: maxIdlePerKey}
}

// Lease is one checked-out machine. Exactly one of Release or Discard must
// be called when the run is over; Release returns the machine to the pool
// after a full Reset, Discard drops it (use after a panic, when the
// machine's internal state can no longer be trusted).
type Lease struct {
	M        *machine.Machine
	Pooled   bool // the lease reused an idle machine
	Restored bool // the machine was restored mid-run from a checkpoint
	key      poolKey
	pool     *MachinePool
	done     bool
}

// Get leases a machine for cfg, reusing an idle one of the same shape when
// available. The caller should stamp per-run quotas with SetLimits before
// loading a program.
func (p *MachinePool) Get(cfg machine.Config) (*Lease, error) {
	key, err := keyOf(cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if list := p.idle[key]; len(list) > 0 {
		m := list[len(list)-1]
		p.idle[key] = list[:len(list)-1]
		p.hits++
		p.mu.Unlock()
		return &Lease{M: m, Pooled: true, key: key, pool: p}, nil
	}
	p.misses++
	p.mu.Unlock()

	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Lease{M: m, key: key, pool: p}, nil
}

// Restore leases a machine for cfg restored from the checkpoint r, booted
// and loaded; Release pools it like any other.
func (p *MachinePool) Restore(r io.Reader, cfg machine.Config) (*Lease, error) {
	key, err := keyOf(cfg)
	if err != nil {
		return nil, err
	}
	m, err := machine.Restore(r, cfg)
	if err != nil {
		return nil, err
	}
	return &Lease{M: m, Restored: true, key: key, pool: p}, nil
}

// Release resets the machine and returns it to the pool (dropped silently
// if the pool is closed or the idle set for its shape is full).
func (l *Lease) Release() {
	if l.done {
		return
	}
	l.done = true
	p := l.pool
	if p.hookRelease != nil {
		p.hookRelease(l.M)
	}
	l.M.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed && len(p.idle[l.key]) < p.maxIdle {
		p.idle[l.key] = append(p.idle[l.key], l.M)
		return
	}
	p.full++
}

// Discard drops the machine without returning it to the pool.
func (l *Lease) Discard() {
	if l.done {
		return
	}
	l.done = true
	l.pool.mu.Lock()
	l.pool.discards++
	l.pool.mu.Unlock()
}

// Close empties the pool and stops accepting releases.
func (p *MachinePool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.idle = make(map[poolKey][]*machine.Machine)
}

// PoolCounters is a point-in-time snapshot of the pool's reuse accounting.
type PoolCounters struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Discards int64 `json:"discards"`
	Full     int64 `json:"full"`
	Idle     int   `json:"idle"`
}

// Counters returns the pool's reuse accounting.
func (p *MachinePool) Counters() PoolCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for _, list := range p.idle {
		idle += len(list)
	}
	return PoolCounters{Hits: p.hits, Misses: p.misses, Discards: p.discards, Full: p.full, Idle: idle}
}
