package mem

import "fmt"

// Local is one processor group's local memory block. NUMA-mode bunches access
// it with immediate (sequential) semantics and unit latency; the model's
// distance metric applies only when a group references another group's block
// through the interconnect.
type Local struct {
	group int
	size  int
	words []int64 // allocated lazily on first write/preload
	dirty bool    // written or preloaded since the last Reset

	reads  int64
	writes int64
}

// NewLocal sizes the local memory block of the given group. The backing
// store materializes on first write; an untouched block reads as zero and
// costs nothing. Nonpositive sizes return an error wrapping ErrBadSize.
func NewLocal(group, words int) (*Local, error) {
	if words <= 0 {
		return nil, fmt.Errorf("local memory size %d must be positive: %w", words, ErrBadSize)
	}
	return &Local{group: group, size: words}, nil
}

// Reset zeroes the block in place (keeping the backing store) if it was
// written since the last Reset, and clears the access counters, restoring the
// observable state of a fresh NewLocal.
func (l *Local) Reset() {
	if l.dirty {
		clear(l.words)
		l.dirty = false
	}
	if ResetAudit.Load() {
		auditZero(fmt.Sprintf("local block %d", l.group), l.words)
	}
	l.reads, l.writes = 0, 0
}

// ensure returns the backing store for writing, materialized: every store to
// the block goes through here.
func (l *Local) ensure() []int64 {
	if l.words == nil {
		l.words = make([]int64, l.size)
	}
	l.dirty = true
	return l.words
}

// Group returns the owning processor group index.
func (l *Local) Group() int { return l.group }

// Size returns the number of words.
func (l *Local) Size() int { return l.size }

// InRange reports whether addr is a valid word address.
func (l *Local) InRange(addr int64) bool { return addr >= 0 && addr < int64(l.size) }

// Read returns the word at addr. Out-of-range reads return 0.
func (l *Local) Read(addr int64) int64 {
	l.reads++
	return l.Peek(addr)
}

// Write stores val at addr immediately. Out-of-range stores are dropped.
func (l *Local) Write(addr, val int64) {
	l.writes++
	if !l.InRange(addr) {
		return
	}
	l.ensure()[addr] = val
}

// Peek reads without counting.
func (l *Local) Peek(addr int64) int64 {
	if !l.InRange(addr) || l.words == nil {
		return 0
	}
	return l.words[addr]
}

// Stats reports cumulative access counts.
func (l *Local) Stats() (reads, writes int64) { return l.reads, l.writes }

// Load preloads a data segment.
func (l *Local) Load(addr int64, words []int64) error {
	if addr < 0 || addr+int64(len(words)) > int64(l.size) {
		return fmt.Errorf("mem: local segment [%d,%d) out of range [0,%d)", addr, addr+int64(len(words)), l.size)
	}
	copy(l.ensure()[addr:], words)
	return nil
}
