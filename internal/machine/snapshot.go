package machine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"tcfpram/internal/checkpoint"
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// Snapshot container identity. Bump snapVersion whenever the section layout
// changes; Restore rejects unknown versions instead of guessing.
const (
	snapMagic   = "TCFSNAP\x00"
	snapVersion = 1
)

// CheckpointSink receives periodic machine snapshots from RunContext (see
// Config.CheckpointEvery). The snapshot callback streams the complete state
// into w; the sink decides where it goes (checkpoint.FileSink writes it
// atomically to disk). A sink error stops the run.
type CheckpointSink interface {
	Checkpoint(step int64, snapshot func(w io.Writer) error) error
}

// Snapshot writes a versioned, checksummed snapshot of the complete machine
// state to w. It may only be taken at a step boundary (between Step calls —
// where the strict step synchrony of the model makes the state well-defined:
// no buffered writes, no combiner traffic, no half-executed instruction) and
// only while the machine has not errored.
//
// The snapshot is self-contained: it embeds the loaded program (TCFB
// encoding), the shared-memory image, local memories, every flow with its
// register state and call stack, the storage buffers with their rotation
// cursors, the statistics, the accumulated outputs, and a fingerprint of the
// behavior-relevant configuration (including the fault plan and the
// topology's distance table). Restore on a machine built from an equal
// Config, then running to completion, is bit-identical to the uninterrupted
// run: same outputs, same Stats, same fault decisions — the seeded
// fault.Plan is pure, so restoring Stats.Steps restores the fault cursor,
// and per-step reference sequence numbers start from zero at every boundary.
//
// Not captured: the step trace (Trace records accumulated so far) and the
// StageObserver/CheckpointSink wiring — observational state that never feeds
// back into results.
func (m *Machine) Snapshot(w io.Writer) error {
	if m.runErr != nil {
		return fmt.Errorf("machine: snapshot of a failed machine: %w", m.runErr)
	}
	for _, c := range m.combiners {
		if c.Len() != 0 {
			return fmt.Errorf("machine: snapshot with unresolved multioperation traffic (not at a step boundary)")
		}
	}

	e := checkpoint.NewEncoder(w, snapMagic, snapVersion)

	e.Section("config")
	c := m.cfg
	e.Int(int(c.Variant))
	e.Int(c.Groups)
	e.Int(c.ProcsPerGroup)
	e.Int(c.SharedWords)
	e.Int(c.LocalWords)
	e.Int(int(c.WritePolicy))
	e.Int(c.PipelineDepth)
	e.Int(c.MemLatencyBase)
	e.Int(c.BalancedBound)
	e.Int(c.MultiInstrWindow)
	e.Int(c.VectorWidth)
	e.Varint(c.TimeSliceSteps)
	e.Int(c.AutoSplitThreshold)
	e.Varint(c.MaxSteps)
	e.Int(c.MaxThickness)
	e.Varint(c.WatchdogSteps)
	e.Int(int(c.MemDiscipline))
	e.Uvarint(distHash(m.dist))
	e.Uvarint(c.FaultPlan.Fingerprint())

	e.Section("program")
	if m.prog != nil {
		e.Bool(true)
		e.Bytes(isa.Encode(m.prog))
	} else {
		e.Bool(false)
	}

	e.Section("shared")
	if err := m.shared.EncodeTo(e); err != nil {
		return err
	}

	e.Section("locals")
	for _, g := range m.groups {
		if err := g.Local.EncodeTo(e); err != nil {
			return err
		}
	}

	e.Section("flows")
	e.Int(len(m.flowList))
	for _, f := range m.flowList {
		f.EncodeTo(e)
	}
	e.Int(len(m.flowList)) // the next flow id

	e.Section("bufs")
	for _, g := range m.groups {
		e.Ints(flowIDs(g.Buf.Resident))
		e.Ints(flowIDs(g.Buf.Pending.flows()))
		e.Int(g.Buf.rrStart)
	}

	e.Section("stats")
	encodeStats(e, &m.stats)

	e.Section("output")
	e.Int(len(m.output))
	for _, o := range m.output {
		e.Int(o.Flow)
		e.Varint(o.Step)
		e.Int64s(o.Values)
		e.String(o.Text)
	}

	return e.Close()
}

// Restore builds a machine from cfg and loads a snapshot previously written
// by Snapshot into it. cfg must describe the same machine the snapshot was
// taken on: every behavior-relevant field (shape, variant, latency model,
// limits, discipline, fault plan, topology distances) is validated against
// the snapshot, and a mismatch fails with an error naming the field — a
// resumed run on a different machine would silently diverge otherwise.
// Result-neutral fields (TraceEnabled, StageObserver,
// CheckpointEvery/CheckpointSink, and the inert Backend, Sched and Parallel)
// are free to differ.
//
// The snapshot embeds the program, so no separate load is needed; the
// restored machine continues with Step/RunContext exactly where the
// snapshot was taken.
func Restore(r io.Reader, cfg Config) (*Machine, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	d, err := checkpoint.NewDecoder(r, snapMagic)
	if err != nil {
		return nil, err
	}
	if v := d.Version(); v != snapVersion {
		return nil, fmt.Errorf("machine: snapshot format version %d, this build reads %d", v, snapVersion)
	}

	d.Section("config")
	c := m.cfg
	for _, f := range []struct {
		name   string
		stored int64
		live   int64
	}{
		{"Variant", int64(d.Int()), int64(c.Variant)},
		{"Groups", int64(d.Int()), int64(c.Groups)},
		{"ProcsPerGroup", int64(d.Int()), int64(c.ProcsPerGroup)},
		{"SharedWords", int64(d.Int()), int64(c.SharedWords)},
		{"LocalWords", int64(d.Int()), int64(c.LocalWords)},
		{"WritePolicy", int64(d.Int()), int64(c.WritePolicy)},
		{"PipelineDepth", int64(d.Int()), int64(c.PipelineDepth)},
		{"MemLatencyBase", int64(d.Int()), int64(c.MemLatencyBase)},
		{"BalancedBound", int64(d.Int()), int64(c.BalancedBound)},
		{"MultiInstrWindow", int64(d.Int()), int64(c.MultiInstrWindow)},
		{"VectorWidth", int64(d.Int()), int64(c.VectorWidth)},
		{"TimeSliceSteps", d.Varint(), c.TimeSliceSteps},
		{"AutoSplitThreshold", int64(d.Int()), int64(c.AutoSplitThreshold)},
		{"MaxSteps", d.Varint(), c.MaxSteps},
		{"MaxThickness", int64(d.Int()), int64(c.MaxThickness)},
		{"WatchdogSteps", d.Varint(), c.WatchdogSteps},
		{"MemDiscipline", int64(d.Int()), int64(c.MemDiscipline)},
		{"Topology distances", int64(d.Uvarint()), int64(distHash(m.dist))},
		{"FaultPlan", int64(d.Uvarint()), int64(c.FaultPlan.Fingerprint())},
	} {
		if err := d.Err(); err != nil {
			return nil, err
		}
		if f.stored != f.live {
			return nil, fmt.Errorf("machine: snapshot %s mismatch: snapshot was taken with %d, restore config has %d", f.name, f.stored, f.live)
		}
	}

	d.Section("program")
	if d.Bool() {
		data := d.Bytes()
		if err := d.Err(); err != nil {
			return nil, err
		}
		p, err := isa.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("machine: snapshot program: %w", err)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("machine: snapshot program: %w", err)
		}
		// Set directly rather than through LoadProgram: the shared image in
		// the snapshot is the post-load state, so re-applying the program's
		// data segments would clobber whatever the run wrote over them.
		m.setProgram(p)
	}

	d.Section("shared")
	if err := m.shared.DecodeFrom(d); err != nil {
		return nil, err
	}

	d.Section("locals")
	for _, g := range m.groups {
		if err := g.Local.DecodeFrom(d); err != nil {
			return nil, err
		}
	}

	d.Section("flows")
	nFlows := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nFlows < 0 || nFlows > 1<<24 {
		return nil, fmt.Errorf("machine: snapshot flow count %d out of range", nFlows)
	}
	// Flow ids index flowList, so the flows must come as 0..n-1 in order —
	// which is how Snapshot writes them.
	var parents []int
	for i := 0; i < nFlows; i++ {
		f := m.nextFlow(0) // chunk by chunk: the count is not to be trusted with a block
		parent, err := f.DecodeFrom(d)
		if err != nil {
			return nil, err
		}
		if f.ID >= 0 && f.ID < i {
			return nil, fmt.Errorf("machine: snapshot has duplicate flow id %d", f.ID)
		}
		if f.ID != i {
			return nil, fmt.Errorf("machine: snapshot flow ids are not 0..%d in order: flow %d at position %d", nFlows-1, f.ID, i)
		}
		if f.Home < 0 || f.Home >= len(m.groups) {
			return nil, fmt.Errorf("machine: snapshot flow %d home group %d outside [0,%d)", f.ID, f.Home, len(m.groups))
		}
		m.regs.Adopt(f)
		parents = append(parents, parent)
		if f.State != tcf.Done {
			m.live++
		}
	}
	next := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if next != nFlows {
		return nil, fmt.Errorf("machine: snapshot next flow id %d after %d flows", next, nFlows)
	}
	for id, pid := range parents {
		if pid < 0 {
			continue
		}
		p := m.Flow(pid)
		if p == nil {
			return nil, fmt.Errorf("machine: snapshot flow %d references missing parent %d", id, pid)
		}
		m.flowList[id].Parent = p
	}

	d.Section("bufs")
	for _, g := range m.groups {
		var err error
		if g.Buf.Resident, err = m.flowsByID(d.Ints(), g.Index); err != nil {
			return nil, err
		}
		pending, err := m.flowsByID(d.Ints(), g.Index)
		if err != nil {
			return nil, err
		}
		for _, f := range pending {
			g.Buf.Pending.push(f)
		}
		g.Buf.rrStart = d.Int()
		// Not in the snapshot, and a Done flow may hold a slot at a step
		// boundary (popPending).
		for _, f := range g.Buf.Resident {
			if f.State == tcf.Done {
				g.Buf.done++
			}
		}
	}

	d.Section("stats")
	if err := decodeStats(d, &m.stats); err != nil {
		return nil, err
	}

	d.Section("output")
	nOut := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nOut < 0 || nOut > 1<<26 {
		return nil, fmt.Errorf("machine: snapshot output count %d out of range", nOut)
	}
	for i := 0; i < nOut && d.Err() == nil; i++ {
		o := Output{Flow: d.Int(), Step: d.Varint(), Values: d.Int64s(), Text: d.String()}
		m.output = append(m.output, o)
	}

	if err := d.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// flowsByID resolves the flow ids of group g's storage buffer. A flow stands
// in the buffer of its home group and no other: retiring one marks that
// buffer.
func (m *Machine) flowsByID(ids []int, g int) ([]*tcf.Flow, error) {
	flows := make([]*tcf.Flow, len(ids))
	for i, id := range ids {
		if flows[i] = m.Flow(id); flows[i] == nil {
			return nil, fmt.Errorf("machine: snapshot storage buffer references missing flow %d", id)
		}
		if flows[i].Home != g {
			return nil, fmt.Errorf("machine: snapshot has flow %d of group %d in the storage buffer of group %d", id, flows[i].Home, g)
		}
	}
	return flows, nil
}

func flowIDs(fs []*tcf.Flow) []int {
	ids := make([]int, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	return ids
}

// distHash fingerprints the flattened group×module distance table — the
// observable projection of the Topology interface, which cannot itself be
// serialized.
func distHash(dist []int) uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	for _, d := range dist {
		n := binary.PutVarint(buf[:], int64(d))
		h.Write(buf[:n])
	}
	return h.Sum64()
}

// encodeStats writes every Stats field in declaration order. The slot of the
// deprecated LaneChunks is written 0 and skipped on decode, so snapshot bytes
// keep their layout.
func encodeStats(e *checkpoint.Encoder, s *Stats) {
	e.Int64s([]int64{
		s.Steps, s.Cycles, s.Ops, s.ScalarOps, s.InstrFetches,
		s.SharedReads, s.SharedWrites, s.LocalReads, s.LocalWrites, s.MultiopRefs,
		s.DiscReads, s.DiscWrites, s.OverheadCycles, s.StallCycles,
		s.FaultStallCycles, s.Retransmits, s.Reroutes, s.Failovers,
		s.FlowsCreated, s.Splits, s.AutoSplits, s.Joins, s.FlowBranchCycles,
		s.TaskSwitches, s.TaskSwitchCycles, s.Barriers, 0,
		int64(s.MaxLiveFlows),
	})
	e.Int64s(s.PerGroupOps)
	e.Int64s(s.PerGroupCycles)
	for i := range s.Stages {
		e.Varint(s.Stages[i].Cycles)
		e.Varint(s.Stages[i].Events)
	}
}

// decodeStats restores the fields written by encodeStats, preserving the
// machine's pre-allocated per-group slices.
func decodeStats(d *checkpoint.Decoder, s *Stats) error {
	vs := d.Int64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(vs) != 28 {
		return fmt.Errorf("machine: snapshot stats hold %d scalar counters, want 28", len(vs))
	}
	s.Steps, s.Cycles, s.Ops, s.ScalarOps, s.InstrFetches = vs[0], vs[1], vs[2], vs[3], vs[4]
	s.SharedReads, s.SharedWrites, s.LocalReads, s.LocalWrites, s.MultiopRefs = vs[5], vs[6], vs[7], vs[8], vs[9]
	s.DiscReads, s.DiscWrites, s.OverheadCycles, s.StallCycles = vs[10], vs[11], vs[12], vs[13]
	s.FaultStallCycles, s.Retransmits, s.Reroutes, s.Failovers = vs[14], vs[15], vs[16], vs[17]
	s.FlowsCreated, s.Splits, s.AutoSplits, s.Joins, s.FlowBranchCycles = vs[18], vs[19], vs[20], vs[21], vs[22]
	s.TaskSwitches, s.TaskSwitchCycles, s.Barriers = vs[23], vs[24], vs[25]
	s.MaxLiveFlows = int(vs[27])
	for _, tgt := range []*[]int64{&s.PerGroupOps, &s.PerGroupCycles} {
		got := d.Int64s()
		if err := d.Err(); err != nil {
			return err
		}
		if len(got) != len(*tgt) {
			return fmt.Errorf("machine: snapshot per-group stats length %d, want %d", len(got), len(*tgt))
		}
		copy(*tgt, got)
	}
	for i := range s.Stages {
		s.Stages[i].Cycles = d.Varint()
		s.Stages[i].Events = d.Varint()
	}
	return d.Err()
}
