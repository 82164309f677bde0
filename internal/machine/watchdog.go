package machine

import "tcfpram/internal/tcf"

// The progress watchdog (Config.WatchdogSteps) distinguishes livelock from
// long-running computation by proving a state cycle rather than by timing
// out. A quiet stretch — steps with no observable work (see progressMark) —
// is necessary but not sufficient evidence of livelock: a register-only
// computation (Collatz, a countdown, any arithmetic between two memory
// operations) is equally quiet while making real progress. What separates
// the two is that a livelocked machine revisits an identical architectural
// state: quiet + deterministic stepping + a repeated state means the machine
// is in a loop it can never leave.
//
// The detector is Brent's cycle-finding over the machine's flow-state digest.
// Once a quiet stretch reaches WatchdogSteps, every further quiet step
// digests the full flow population and compares it against an anchor; a
// match proves the cycle and kills the run with ErrDeadlock. The anchor
// slides forward with doubling horizons, so a cycle of any period is found
// within ~2x its length once detection engages. Any observable work resets
// the detector completely, so the digest is never computed for programs that
// touch memory at least once per window — the watchdog costs nothing on the
// non-quiet path.
type watchdog struct {
	window   int64  // quiet steps before cycle detection engages
	lastMark int64  // progress mark at the last observed work event
	markStep int64  // step at which lastMark was recorded
	anchor   uint64 // Brent anchor digest
	lambda   int64  // quiet steps since the anchor was planted
	power    int64  // anchor horizon; doubles when exceeded
	armed    bool   // anchor holds a valid digest
}

func newWatchdog(window int64) watchdog {
	return watchdog{window: window, lastMark: -1}
}

// observe is called once per step boundary while the watchdog is enabled. It
// reports true when the machine provably entered a state cycle with no
// observable work — silent livelock.
func (d *watchdog) observe(m *Machine) bool {
	if mark := m.progressMark(); mark != d.lastMark {
		d.lastMark, d.markStep = mark, m.stats.Steps
		d.armed = false
		return false
	}
	if m.stats.Steps-d.markStep < d.window {
		return false
	}
	dig := m.stateDigest()
	if !d.armed {
		d.anchor, d.lambda, d.power, d.armed = dig, 0, d.window, true
		return false
	}
	d.lambda++
	if dig == d.anchor {
		return true
	}
	if d.lambda >= d.power {
		d.anchor, d.lambda = dig, 0
		d.power *= 2
	}
	return false
}

// stateDigest combines the per-flow state digests (XOR: a flow's digest
// carries its id, so no order is needed), covering the complete architectural
// state that can evolve during a quiet stretch: with no memory traffic, no
// flow events and no outputs, registers, PCs and flow bookkeeping are the
// only state the machine can change.
func (m *Machine) stateDigest() uint64 {
	var h uint64
	for _, f := range m.flowList {
		if f.State != tcf.Done {
			h ^= f.StateDigest()
		}
	}
	return h
}
