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
// touch memory at least once per window.
//
// The progress mark is read only when it can decide something: at a boundary
// WatchdogSteps after the step the current mark was recorded (due), and at
// every boundary of a quiet stretch that reached the window. A mark found
// changed at such a read is recorded at that step, not at the step of the
// work, so the quiet stretch is measured shorter than it is, never longer:
// detection engages up to one window later than with a read every step, and
// never on a stretch that had work in it. Short of the window a step pays one
// comparison.
type watchdog struct {
	window   int64  // quiet steps before cycle detection engages
	lastMark int64  // progress mark at the last observed work event
	markStep int64  // step at which lastMark was recorded
	anchor   uint64 // Brent anchor digest
	lambda   int64  // quiet steps since the anchor was planted
	power    int64  // anchor horizon; doubles when exceeded
	armed    bool   // anchor holds a valid digest
}

// newWatchdog starts a watchdog of m's Config.WatchdogSteps (disabled at 0)
// at m's current step, with m's progress mark as the last work seen.
func newWatchdog(m *Machine) watchdog {
	d := watchdog{window: m.cfg.WatchdogSteps}
	if d.window > 0 {
		d.lastMark, d.markStep = m.progressMark(), m.stats.Steps
	}
	return d
}

// due reports whether the boundary of step steps must be observed: the
// watchdog is enabled and a window has passed since the mark was recorded.
func (d *watchdog) due(steps int64) bool {
	return d.window > 0 && steps-d.markStep >= d.window
}

// observe is called at every step boundary that is due. It reports true when
// the machine provably entered a state cycle with no observable work —
// silent livelock.
func (d *watchdog) observe(m *Machine) bool {
	if mark := m.progressMark(); mark != d.lastMark {
		d.lastMark, d.markStep = mark, m.stats.Steps
		d.armed = false
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
