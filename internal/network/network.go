// Package network implements a cycle-level packet-switched interconnect
// simulator for the ESM substrate (Figure 1): routers on a 2-D mesh or torus
// with per-output FIFO queues and dimension-order routing. It validates the
// analytic distance-latency model the step engine uses and drives the
// bandwidth experiments that motivate emulated shared memory: with enough
// bisection bandwidth, uniformly random traffic is delivered with latency
// proportional to distance plus bounded queueing.
package network

import (
	"fmt"
	"math/rand"
)

// Packet is one memory reference in flight.
type Packet struct {
	ID       int
	Src, Dst int
	Injected int64 // cycle of first injection
	Arrived  int64 // cycle of delivery (valid once delivered)
	hops     int
}

// Hops returns the number of router-to-router hops the packet took.
func (p *Packet) Hops() int { return p.hops }

// Latency returns the end-to-end delivery latency in cycles.
func (p *Packet) Latency() int64 { return p.Arrived - p.Injected }

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
}

// Network is the simulator state.
type Network struct {
	cfg   Config
	clock int64

	// queues[node][dir] are the output FIFOs. Directions: 0=east, 1=west,
	// 2=north, 3=south, 4=eject.
	queues [][5][]*Packet
	inject [][]*Packet

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
	n := cfg.Width * cfg.Height
	return &Network{
		cfg:    cfg,
		queues: make([][5][]*Packet, n),
		inject: make([][]*Packet, n),
	}, nil
}

// Size returns the node count.
func (n *Network) Size() int { return n.cfg.Width * n.cfg.Height }

// InFlight returns the number of packets not yet delivered.
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

// Step advances the network by one cycle: each link forwards up to
// LinkCapacity packets, ejections deliver, and injections enter the
// routers.
func (n *Network) Step() error {
	// Phase 1: move packets at the heads of output queues across links.
	type move struct {
		pkt  *Packet
		to   int
		isEj bool
	}
	var moves []move
	for node := range n.queues {
		for dir := 0; dir < 5; dir++ {
			q := n.queues[node][dir]
			if len(q) == 0 {
				continue
			}
			cap := n.cfg.LinkCapacity
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
		p := mv.pkt
		if mv.isEj {
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
		p.hops++
		n.enqueue(mv.to, p)
	}
	// Phase 2: injections enter their source router.
	for node := range n.inject {
		q := n.inject[node]
		k := min(n.cfg.LinkCapacity, len(q))
		for i := 0; i < k; i++ {
			n.enqueue(node, q[i])
		}
		n.inject[node] = q[k:]
	}
	return nil
}

// enqueue routes p at node onto an output queue.
func (n *Network) enqueue(node int, p *Packet) {
	dir := n.route(node, p)
	n.queues[node][dir] = append(n.queues[node][dir], p)
}

// Drain steps until all in-flight packets are delivered or maxCycles pass;
// it reports full delivery.
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
}

// Stats returns the current summary.
func (n *Network) Stats() Stats {
	s := Stats{
		Injected:   n.injectedCount,
		Delivered:  n.deliveredCount,
		Dropped:    n.dropped,
		MaxLatency: n.maxLatency,
		Cycles:     n.clock,
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

// drainBudget sizes the Drain bound for a load.
func (n *Network) drainBudget(packets int) int64 {
	return int64(packets)*10 + 10000
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
