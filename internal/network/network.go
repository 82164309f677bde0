// Package network implements a cycle-level packet-switched interconnect
// simulator for the ESM substrate (Figure 1): routers on a 2-D mesh or torus
// with per-output FIFO queues and dimension-order routing. It validates the
// analytic distance-latency model the step engine uses and drives the
// bandwidth experiments that motivate emulated shared memory: with enough
// bisection bandwidth, uniformly random traffic is delivered with latency
// proportional to distance plus bounded queueing.
//
// The simulator is fault-tolerant: given a fault.Plan it routes adaptively
// around dead links (minimal-adaptive fallback with livelock protection),
// stalls faulted routers, and recovers dropped or corrupted packets with an
// end-to-end retransmission protocol under exponential backoff. Recoverable
// faults change latency and cycle counts only — every injected packet is
// still delivered exactly once.
package network

import (
	"fmt"
	"math/rand"

	"tcfpram/internal/fault"
)

// Packet is one memory reference in flight.
type Packet struct {
	ID       int
	Src, Dst int
	Injected int64 // cycle of first injection
	Arrived  int64 // cycle of delivery (valid once delivered)
	hops     int

	// Fault-recovery state.
	attempt   int  // retransmission attempt (0 = first transmission)
	corrupt   bool // fails the receiver checksum; discarded at ejection
	misroutes int  // non-minimal hops taken to dodge dead links
	retryAt   int64
}

// Hops returns the number of router-to-router hops the packet's delivered
// attempt took.
func (p *Packet) Hops() int { return p.hops }

// Latency returns the end-to-end delivery latency in cycles, including any
// retransmission waits.
func (p *Packet) Latency() int64 { return p.Arrived - p.Injected }

// Attempts returns how many times the packet was (re)transmitted.
func (p *Packet) Attempts() int { return p.attempt + 1 }

// Kind selects the network geometry.
type Kind int

const (
	// Mesh2D is a width×height mesh with dimension-order (X then Y)
	// routing.
	Mesh2D Kind = iota
	// Torus2D adds wraparound links in both dimensions.
	Torus2D
)

func (k Kind) String() string {
	if k == Torus2D {
		return "torus"
	}
	return "mesh"
}

// Config describes a network instance.
type Config struct {
	Kind   Kind
	Width  int
	Height int
	// LinkCapacity is the packets one link forwards per cycle (>=1).
	LinkCapacity int
	// InjectionQueue bounds the per-node injection queue (0 = unbounded).
	InjectionQueue int
	// Faults is the deterministic fault plan to inject (nil = fault-free).
	Faults *fault.Plan
}

// Network is the simulator state.
type Network struct {
	cfg   Config
	plan  *fault.Plan
	clock int64

	// queues[node][dir] are the output FIFOs. Directions: 0=east, 1=west,
	// 2=north, 3=south, 4=eject.
	queues [][5][]*Packet
	inject [][]*Packet
	// retries holds lost packets waiting out their retransmission backoff.
	retries []*Packet

	delivered []*Packet
	nextID    int
	inFlight  int

	// Stats.
	injectedCount  int64
	deliveredCount int64
	totalLatency   int64
	totalHops      int64
	maxLatency     int64
	dropped        int64

	// Fault-recovery stats.
	retransmits   int64
	lostInFlight  int64
	corrupted     int64
	reroutes      int64
	misroutes     int64
	routerStalls  int64
	livelockKills int64
}

const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
	dirEject
)

// New builds a network.
func New(cfg Config) (*Network, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("network: bad dimensions %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.LinkCapacity <= 0 {
		cfg.LinkCapacity = 1
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
	}
	n := cfg.Width * cfg.Height
	return &Network{
		cfg:    cfg,
		plan:   cfg.Faults,
		queues: make([][5][]*Packet, n),
		inject: make([][]*Packet, n),
	}, nil
}

// Size returns the node count.
func (n *Network) Size() int { return n.cfg.Width * n.cfg.Height }

// InFlight returns the number of packets not yet delivered (including lost
// packets waiting for retransmission).
func (n *Network) InFlight() int { return n.inFlight }

// Delivered returns the packets delivered so far.
func (n *Network) Delivered() []*Packet { return n.delivered }

func (n *Network) coord(node int) (x, y int) { return node % n.cfg.Width, node / n.cfg.Width }

func (n *Network) node(x, y int) int { return y*n.cfg.Width + x }

// Inject queues a packet from src to dst. accepted is false when the
// injection queue is bounded and full (the packet is dropped and counted);
// an error reports out-of-range endpoints.
func (n *Network) Inject(src, dst int) (accepted bool, err error) {
	if src < 0 || src >= n.Size() || dst < 0 || dst >= n.Size() {
		return false, fmt.Errorf("network: inject (%d->%d) out of range [0,%d)", src, dst, n.Size())
	}
	if n.cfg.InjectionQueue > 0 && len(n.inject[src]) >= n.cfg.InjectionQueue {
		n.dropped++
		return false, nil
	}
	p := &Packet{ID: n.nextID, Src: src, Dst: dst, Injected: n.clock}
	n.nextID++
	if n.plan != nil {
		p.corrupt = n.plan.CorruptAttempt(p.ID, 0)
	}
	n.inject[src] = append(n.inject[src], p)
	n.inFlight++
	n.injectedCount++
	return true, nil
}

// route decides the preferred output direction for a packet at node
// (dimension-order: correct X first, then Y; torus picks the shorter way
// around).
func (n *Network) route(node int, p *Packet) int {
	x, y := n.coord(node)
	dx, dy := n.coord(p.Dst)
	if x != dx {
		if n.cfg.Kind == Torus2D {
			right := (dx - x + n.cfg.Width) % n.cfg.Width
			if right <= n.cfg.Width-right {
				return dirEast
			}
			return dirWest
		}
		if dx > x {
			return dirEast
		}
		return dirWest
	}
	if y != dy {
		if n.cfg.Kind == Torus2D {
			down := (dy - y + n.cfg.Height) % n.cfg.Height
			if down <= n.cfg.Height-down {
				return dirSouth
			}
			return dirNorth
		}
		if dy > y {
			return dirSouth
		}
		return dirNorth
	}
	return dirEject
}

// productiveDirs returns every output direction that reduces the packet's
// distance to its destination, preferred (dimension-order) direction first.
func (n *Network) productiveDirs(node int, p *Packet) []int {
	x, y := n.coord(node)
	dx, dy := n.coord(p.Dst)
	var dirs []int
	addX := func() {
		if x == dx {
			return
		}
		if n.cfg.Kind == Torus2D {
			right := (dx - x + n.cfg.Width) % n.cfg.Width
			if right <= n.cfg.Width-right {
				dirs = append(dirs, dirEast)
			} else {
				dirs = append(dirs, dirWest)
			}
			return
		}
		if dx > x {
			dirs = append(dirs, dirEast)
		} else {
			dirs = append(dirs, dirWest)
		}
	}
	addY := func() {
		if y == dy {
			return
		}
		if n.cfg.Kind == Torus2D {
			down := (dy - y + n.cfg.Height) % n.cfg.Height
			if down <= n.cfg.Height-down {
				dirs = append(dirs, dirSouth)
			} else {
				dirs = append(dirs, dirNorth)
			}
			return
		}
		if dy > y {
			dirs = append(dirs, dirSouth)
		} else {
			dirs = append(dirs, dirNorth)
		}
	}
	addX()
	addY()
	return dirs
}

// linkAlive reports whether the output link (node, dir) exists and is up.
func (n *Network) linkAlive(node, dir int, cycle int64) bool {
	x, y := n.coord(node)
	if n.cfg.Kind != Torus2D {
		switch dir {
		case dirEast:
			if x == n.cfg.Width-1 {
				return false
			}
		case dirWest:
			if x == 0 {
				return false
			}
		case dirNorth:
			if y == 0 {
				return false
			}
		case dirSouth:
			if y == n.cfg.Height-1 {
				return false
			}
		}
	}
	return n.plan == nil || !n.plan.LinkDown(node, dir, cycle)
}

// adaptiveRoute picks an output for p at node: the first alive productive
// direction (minimal-adaptive), else any alive direction (a counted
// misroute). It returns dirEject at the destination and -1 when the node
// has no alive output at all.
func (n *Network) adaptiveRoute(node int, p *Packet) int {
	if node == p.Dst {
		return dirEject
	}
	if n.plan == nil {
		return n.route(node, p)
	}
	// Productive directions never point off the mesh, so a dead one is a
	// fault; picking a later choice is an adaptive re-route.
	for i, d := range n.productiveDirs(node, p) {
		if n.linkAlive(node, d, n.clock) {
			if i > 0 {
				n.reroutes++
			}
			return d
		}
	}
	for d := 0; d < 4; d++ {
		if n.linkAlive(node, d, n.clock) {
			p.misroutes++
			n.misroutes++
			return d
		}
	}
	return -1
}

// misrouteLimit bounds the non-minimal hops a packet may take dodging dead
// links before the livelock guard recalls it to its source for
// retransmission.
func (n *Network) misrouteLimit() int {
	return 4*(n.cfg.Width+n.cfg.Height) + 16
}

// lose takes a packet out of flight and schedules its end-to-end
// retransmission after an exponential-backoff timeout. It returns an error
// when the retry budget is exhausted (the fault plan is unrecoverable).
func (n *Network) lose(p *Packet) error {
	if p.attempt >= n.plan.Retries() {
		return fmt.Errorf("network: packet %d (%d->%d) lost after %d attempts: %w",
			p.ID, p.Src, p.Dst, p.Attempts(), ErrUnrecoverable)
	}
	p.retryAt = n.clock + n.plan.Backoff(p.attempt)
	p.attempt++
	n.retries = append(n.retries, p)
	return nil
}

// ErrUnrecoverable reports a fault the retransmission protocol could not
// mask within its retry budget.
var ErrUnrecoverable = fmt.Errorf("unrecoverable network fault")

// neighbor returns the node one hop in dir from node (wrapping on a torus).
func (n *Network) neighbor(node, dir int) (int, error) {
	x, y := n.coord(node)
	switch dir {
	case dirEast:
		x++
	case dirWest:
		x--
	case dirNorth:
		y--
	case dirSouth:
		y++
	}
	if n.cfg.Kind == Torus2D {
		x = (x + n.cfg.Width) % n.cfg.Width
		y = (y + n.cfg.Height) % n.cfg.Height
	}
	if x < 0 || x >= n.cfg.Width || y < 0 || y >= n.cfg.Height {
		return 0, fmt.Errorf("network: routed off the mesh edge at node %d dir %d", node, dir)
	}
	return n.node(x, y), nil
}

// Step advances the network by one cycle: due retransmissions re-enter,
// each link forwards up to LinkCapacity packets (adaptively re-routing
// around dead links), ejections deliver (corrupted arrivals are rejected
// and retransmitted), and injections enter the routers.
func (n *Network) Step() error {
	// Phase 0: re-inject packets whose retransmission timeout expired.
	if len(n.retries) > 0 {
		keep := n.retries[:0]
		for _, p := range n.retries {
			if p.retryAt > n.clock {
				keep = append(keep, p)
				continue
			}
			p.hops = 0
			p.misroutes = 0
			p.corrupt = n.plan.CorruptAttempt(p.ID, p.attempt)
			n.inject[p.Src] = append(n.inject[p.Src], p)
			n.retransmits++
		}
		n.retries = keep
	}

	// Phase 1: move packets at the heads of output queues across links.
	type move struct {
		pkt  *Packet
		to   int
		isEj bool
	}
	var moves []move
	var rerouted []*Packet // dead-link refugees, re-queued after the sweep
	var reroutedAt []int
	for node := range n.queues {
		if n.plan != nil && n.plan.RouterStalled(node, n.clock) {
			n.routerStalls++
			continue
		}
		for dir := 0; dir < 5; dir++ {
			q := n.queues[node][dir]
			if len(q) == 0 {
				continue
			}
			cap := n.cfg.LinkCapacity
			if dir != dirEject && !n.linkAlive(node, dir, n.clock) {
				// The committed output died: pull up to a link's worth of
				// packets back and re-route them around the fault.
				take := len(q)
				if take > cap {
					take = cap
				}
				for i := 0; i < take; i++ {
					q[i].misroutes++
					n.misroutes++
					rerouted = append(rerouted, q[i])
					reroutedAt = append(reroutedAt, node)
					n.reroutes++
				}
				n.queues[node][dir] = append(q[:0:0], q[take:]...)
				continue
			}
			for i := 0; i < len(q) && i < cap; i++ {
				p := q[i]
				if dir == dirEject {
					moves = append(moves, move{pkt: p, to: node, isEj: true})
					continue
				}
				to, err := n.neighbor(node, dir)
				if err != nil {
					return err
				}
				moves = append(moves, move{pkt: p, to: to})
			}
			if len(q) > cap {
				n.queues[node][dir] = q[cap:]
			} else {
				n.queues[node][dir] = q[:0]
			}
		}
	}
	n.clock++
	for _, mv := range moves {
		if mv.isEj {
			p := mv.pkt
			if p.corrupt {
				// Receiver checksum fails: discard, await retransmission.
				n.corrupted++
				if err := n.lose(p); err != nil {
					return err
				}
				continue
			}
			p.Arrived = n.clock
			n.delivered = append(n.delivered, p)
			n.deliveredCount++
			n.inFlight--
			lat := p.Latency()
			n.totalLatency += lat
			n.totalHops += int64(p.hops)
			if lat > n.maxLatency {
				n.maxLatency = lat
			}
			continue
		}
		p := mv.pkt
		if n.plan != nil && n.plan.DropPacket(p.ID, p.attempt, p.hops) {
			// Lost on the wire: the source times out and retransmits.
			n.lostInFlight++
			if err := n.lose(p); err != nil {
				return err
			}
			continue
		}
		p.hops++
		if err := n.enqueue(mv.to, p); err != nil {
			return err
		}
	}
	// Dead-link refugees re-enter their router after the sweep so they
	// cannot hop twice in one cycle.
	for i, p := range rerouted {
		if err := n.enqueue(reroutedAt[i], p); err != nil {
			return err
		}
	}
	// Phase 2: injections enter their source router.
	for node := range n.inject {
		q := n.inject[node]
		k := n.cfg.LinkCapacity
		if k > len(q) {
			k = len(q)
		}
		taken := 0
		for i := 0; i < k; i++ {
			if err := n.enqueue(node, q[i]); err != nil {
				return err
			}
			taken++
		}
		n.inject[node] = q[taken:]
	}
	return nil
}

// enqueue routes p at node onto an output queue, applying the livelock guard
// and handling isolated nodes (no alive output) by falling back to
// retransmission.
func (n *Network) enqueue(node int, p *Packet) error {
	if n.plan != nil && p.misroutes > n.misrouteLimit() {
		// Livelock protection: too many non-minimal hops; recall to the
		// source and retransmit after backoff (the fault may clear).
		n.livelockKills++
		return n.lose(p)
	}
	dir := n.adaptiveRoute(node, p)
	if dir < 0 {
		// Node has no alive output: treat as a loss and retry later.
		return n.lose(p)
	}
	n.queues[node][dir] = append(n.queues[node][dir], p)
	return nil
}

// Drain steps until all in-flight packets are delivered or maxCycles pass;
// it reports full delivery and surfaces unrecoverable faults.
func (n *Network) Drain(maxCycles int64) (bool, error) {
	for c := int64(0); n.inFlight > 0 && c < maxCycles; c++ {
		if err := n.Step(); err != nil {
			return false, err
		}
	}
	return n.inFlight == 0, nil
}

// Stats summarizes delivery quality.
type Stats struct {
	Injected   int64
	Delivered  int64
	Dropped    int64
	AvgLatency float64
	MaxLatency int64
	AvgHops    float64
	Cycles     int64
	// Throughput is delivered packets per node per cycle.
	Throughput float64

	// Fault recovery.
	Retransmits   int64 // lost packets re-sent end-to-end
	LostInFlight  int64 // packets dropped crossing a link
	Corrupted     int64 // deliveries rejected by the receiver checksum
	Reroutes      int64 // packets pulled off a dead output link
	Misroutes     int64 // non-minimal hops taken around faults
	RouterStalls  int64 // router-cycles lost to stalled routers
	LivelockKills int64 // packets recalled by the livelock guard
}

// Stats returns the current summary.
func (n *Network) Stats() Stats {
	s := Stats{
		Injected:      n.injectedCount,
		Delivered:     n.deliveredCount,
		Dropped:       n.dropped,
		MaxLatency:    n.maxLatency,
		Cycles:        n.clock,
		Retransmits:   n.retransmits,
		LostInFlight:  n.lostInFlight,
		Corrupted:     n.corrupted,
		Reroutes:      n.reroutes,
		Misroutes:     n.misroutes,
		RouterStalls:  n.routerStalls,
		LivelockKills: n.livelockKills,
	}
	if n.deliveredCount > 0 {
		s.AvgLatency = float64(n.totalLatency) / float64(n.deliveredCount)
		s.AvgHops = float64(n.totalHops) / float64(n.deliveredCount)
	}
	if n.clock > 0 {
		s.Throughput = float64(n.deliveredCount) / float64(n.clock) / float64(n.Size())
	}
	return s
}

// drainBudget sizes the Drain bound for a load, leaving generous room for
// retransmission backoff under a fault plan.
func (n *Network) drainBudget(packets int) int64 {
	budget := int64(packets)*10 + 10000
	if n.plan != nil {
		budget += int64(n.plan.Retries()) * n.plan.Backoff(n.plan.Retries()/2) * 4
	}
	return budget
}

// RandomTraffic injects `count` uniformly random packets per node (seeded,
// deterministic) and drains the network. It returns the stats.
func RandomTraffic(cfg Config, perNode int, seed int64) (Stats, error) {
	n, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < perNode; i++ {
		for src := 0; src < n.Size(); src++ {
			if _, err := n.Inject(src, rng.Intn(n.Size())); err != nil {
				return n.Stats(), err
			}
		}
		if err := n.Step(); err != nil {
			return n.Stats(), err
		}
	}
	ok, err := n.Drain(n.drainBudget(perNode * n.Size()))
	if err != nil {
		return n.Stats(), err
	}
	if !ok {
		return n.Stats(), fmt.Errorf("network: drain did not complete (%d in flight)", n.InFlight())
	}
	return n.Stats(), nil
}
