package machine

import "fmt"

// Reset returns the machine to its just-built state while keeping every
// internal arena: the shared-memory pages and local blocks the run wrote are
// zeroed, the group execution arenas are truncated, the traffic the memory and
// the combiners retain of a step that never committed is dropped, the flows'
// registers and call stacks go back to the register arena, the first chunks of
// flows (maxKeptFlows) stay for the next run to build its flows in, and
// statistics, outputs and traces are discarded. The next LoadProgram/Run on a Reset
// machine is bit-identical to the same run on a fresh machine with the same
// Config — the property the serve-layer machine pool is built on (and that
// TestPoolReuseBitIdentity proves).
//
// Reset invalidates everything previously handed out by this machine: Stats,
// Outputs, Trace and Shared snapshots must be copied before calling it, and a
// *tcf.Flow obtained from Flow or Flows is the next run's to overwrite. Reset
// must not run concurrently with Step/Run.
func (m *Machine) Reset() {
	m.prog = nil
	m.code = m.code[:0]
	m.regs.Recycle()
	m.flowList = m.flowList[:0]
	m.live = 0
	m.slab, m.nextChunk, m.reusable = nil, 0, m.keptFlows

	m.shared.Reset()
	for _, g := range m.groups {
		g.Local.Reset()
		g.Buf.reset()
	}
	for _, c := range m.combiners {
		c.Reset()
	}
	for _, x := range m.execs {
		x.err = nil
		x.kern = KernelStats{}
	}

	m.stepOutputs = m.stepOutputs[:0]
	m.stepEvents = m.stepEvents[:0]
	m.discAccs = m.discAccs[:0]

	perOps, perCycles := m.stats.PerGroupOps, m.stats.PerGroupCycles
	clear(perOps)
	clear(perCycles)
	m.stats = Stats{PerGroupOps: perOps, PerGroupCycles: perCycles}
	m.tail = TailStats{}

	m.output = m.output[:0]
	m.halted = false
	m.runErr = nil
	m.stepRec = nil
	m.trace = nil
	m.recArena = nil
	m.gcArena = nil
	m.sliceArena = nil

	// Checkpoint wiring is per-run state stamped through SetCheckpointing
	// (the sink typically points at a per-run file), so a recycled machine
	// must not keep writing to the previous run's checkpoint.
	m.cfg.CheckpointEvery = 0
	m.cfg.CheckpointSink = nil
}

// reset empties the storage buffer and rewinds its rotation, keeping the
// slot and queue backing arrays.
func (b *StorageBuf) reset() {
	b.Resident = b.Resident[:0]
	for b.Pending.Len() > 0 {
		b.Pending.pop()
	}
	b.Pending.head = 0
	b.rrStart = 0
	b.done = 0
}

// SetLimits adjusts the per-run governance bounds of the machine without
// rebuilding it: maxSteps is the MaxSteps livelock/quota bound (<= 0 selects
// the default), maxThickness the MaxThickness flow-growth quota (0 disables,
// negative is an error). The machine pool uses this to stamp each tenant's
// quota onto a pooled machine, whose shape key deliberately excludes the
// limits. Limits may only change while no flows exist (before Boot, or
// right after Reset).
func (m *Machine) SetLimits(maxSteps int64, maxThickness int) error {
	if len(m.flowList) != 0 {
		return fmt.Errorf("machine: SetLimits on a booted machine")
	}
	if maxThickness < 0 {
		return fmt.Errorf("machine: negative MaxThickness %d", maxThickness)
	}
	if maxSteps <= 0 {
		maxSteps = 1 << 22 // the normalize() default
	}
	m.cfg.MaxSteps = maxSteps
	m.cfg.MaxThickness = maxThickness
	return nil
}

// SetCheckpointing wires (or clears) periodic checkpointing on the machine
// without rebuilding it — the serve layer stamps each recoverable run's
// checkpoint file onto a pooled machine this way, mirroring SetLimits.
// Checkpointing is active only when every > 0 and sink is non-nil; Reset
// clears the wiring. Like SetLimits, it may only change while no flows
// exist (before Boot, or right after Reset).
func (m *Machine) SetCheckpointing(every int64, sink CheckpointSink) error {
	if len(m.flowList) != 0 {
		return fmt.Errorf("machine: SetCheckpointing on a booted machine")
	}
	if every < 0 {
		return fmt.Errorf("machine: negative CheckpointEvery %d", every)
	}
	m.cfg.CheckpointEvery = every
	m.cfg.CheckpointSink = sink
	return nil
}
