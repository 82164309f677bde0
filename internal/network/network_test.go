package network

import (
	"testing"
	"testing/quick"

	"tcfpram/internal/topology"
)

func mesh4x4() Config { return Config{Kind: Mesh2D, Width: 4, Height: 4, LinkCapacity: 1} }

// mustInject injects and fails the test on rejection or error.
func mustInject(t *testing.T, n *Network, src, dst int) {
	t.Helper()
	ok, err := n.Inject(src, dst)
	if err != nil || !ok {
		t.Fatalf("inject %d->%d: ok=%v err=%v", src, dst, ok, err)
	}
}

// mustDrain drains and fails the test on a stuck network or error.
func mustDrain(t *testing.T, n *Network, maxCycles int64) {
	t.Helper()
	ok, err := n.Drain(maxCycles)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !ok {
		t.Fatalf("drain stuck with %d in flight", n.InFlight())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 4}); err == nil {
		t.Fatal("zero width accepted")
	}
	n, err := New(mesh4x4())
	if err != nil || n.Size() != 16 {
		t.Fatalf("New: %v size %d", err, n.Size())
	}
}

func TestSinglePacketLatencyEqualsDistancePlusConstant(t *testing.T) {
	topo := topology.Must(topology.NewMesh2D(4, 4))
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			n, _ := New(mesh4x4())
			mustInject(t, n, src, dst)
			mustDrain(t, n, 1000)
			p := n.Delivered()[0]
			if p.Hops() != topo.Distance(src, dst) {
				t.Fatalf("%d->%d hops %d, want %d", src, dst, p.Hops(), topo.Distance(src, dst))
			}
			// Uncontended latency: one cycle per hop plus injection and
			// ejection cycles.
			want := int64(topo.Distance(src, dst)) + 2
			if p.Latency() != want {
				t.Fatalf("%d->%d latency %d, want %d", src, dst, p.Latency(), want)
			}
		}
	}
}

func TestTorusUsesWraparound(t *testing.T) {
	n, _ := New(Config{Kind: Torus2D, Width: 4, Height: 4, LinkCapacity: 1})
	mustInject(t, n, 0, 3) // distance 1 around the wrap
	mustDrain(t, n, 100)
	if got := n.Delivered()[0].Hops(); got != 1 {
		t.Fatalf("torus hops = %d, want 1 (wraparound)", got)
	}
}

// Property: every packet is delivered (no loss) and its hop count equals the
// topology distance under dimension-order routing.
func TestAllDeliveredWithExactHops(t *testing.T) {
	topo := topology.Must(topology.NewMesh2D(5, 3))
	prop := func(seed int64) bool {
		s, err := RandomTraffic(Config{Kind: Mesh2D, Width: 5, Height: 3, LinkCapacity: 2}, 4, seed)
		if err != nil {
			return false
		}
		return s.Injected == s.Delivered && s.Dropped == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	// Hop exactness on a fixed instance.
	n, _ := New(Config{Kind: Mesh2D, Width: 5, Height: 3, LinkCapacity: 1})
	mustInject(t, n, 0, 14)
	mustInject(t, n, 14, 0)
	mustInject(t, n, 7, 7)
	mustDrain(t, n, 1000)
	for _, p := range n.Delivered() {
		if p.Hops() != topo.Distance(p.Src, p.Dst) {
			t.Fatalf("%d->%d hops %d != distance %d", p.Src, p.Dst, p.Hops(), topo.Distance(p.Src, p.Dst))
		}
	}
}

func TestSelfTrafficDeliversLocally(t *testing.T) {
	n, _ := New(mesh4x4())
	mustInject(t, n, 5, 5)
	mustDrain(t, n, 10)
	p := n.Delivered()[0]
	if p.Hops() != 0 || p.Latency() != 2 {
		t.Fatalf("local delivery hops=%d latency=%d", p.Hops(), p.Latency())
	}
}

func TestCongestionRaisesLatency(t *testing.T) {
	// All nodes target node 0: the ejection port serializes and average
	// latency must exceed the uncontended average distance.
	n, _ := New(mesh4x4())
	for src := 1; src < 16; src++ {
		mustInject(t, n, src, 0)
	}
	mustDrain(t, n, 10000)
	s := n.Stats()
	if s.AvgLatency <= s.AvgHops+2 {
		t.Fatalf("hotspot latency %.2f should exceed uncontended %.2f", s.AvgLatency, s.AvgHops+2)
	}
}

func TestLinkCapacityIncreasesThroughput(t *testing.T) {
	slow, err := RandomTraffic(Config{Kind: Mesh2D, Width: 4, Height: 4, LinkCapacity: 1}, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RandomTraffic(Config{Kind: Mesh2D, Width: 4, Height: 4, LinkCapacity: 4}, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("capacity 4 (%d cycles) should beat capacity 1 (%d cycles)", fast.Cycles, slow.Cycles)
	}
	if fast.AvgLatency >= slow.AvgLatency {
		t.Fatalf("capacity 4 latency %.2f should beat %.2f", fast.AvgLatency, slow.AvgLatency)
	}
}

func TestTorusBeatsMeshOnRandomTraffic(t *testing.T) {
	m, err := RandomTraffic(Config{Kind: Mesh2D, Width: 6, Height: 6, LinkCapacity: 1}, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	to, err := RandomTraffic(Config{Kind: Torus2D, Width: 6, Height: 6, LinkCapacity: 1}, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if to.AvgHops >= m.AvgHops {
		t.Fatalf("torus hops %.2f should beat mesh %.2f", to.AvgHops, m.AvgHops)
	}
}

func TestBoundedInjectionQueueDrops(t *testing.T) {
	n, _ := New(Config{Kind: Mesh2D, Width: 2, Height: 2, LinkCapacity: 1, InjectionQueue: 2})
	ok := 0
	for i := 0; i < 10; i++ {
		accepted, err := n.Inject(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if accepted {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d, want 2", ok)
	}
	if n.Stats().Dropped != 8 {
		t.Fatalf("dropped = %d, want 8", n.Stats().Dropped)
	}
}

func TestInjectOutOfRangeIsError(t *testing.T) {
	n, _ := New(mesh4x4())
	for _, pair := range [][2]int{{0, 99}, {-1, 0}, {16, 0}, {0, -5}} {
		if _, err := n.Inject(pair[0], pair[1]); err == nil {
			t.Fatalf("inject %d->%d accepted", pair[0], pair[1])
		}
	}
	// Errors must not corrupt the stats.
	if s := n.Stats(); s.Injected != 0 || s.Dropped != 0 {
		t.Fatalf("failed injects counted: %+v", s)
	}
}

func TestStatsFields(t *testing.T) {
	s, err := RandomTraffic(mesh4x4(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Injected != 8*16 || s.Delivered != s.Injected {
		t.Fatalf("inj/del = %d/%d", s.Injected, s.Delivered)
	}
	if s.AvgLatency <= 0 || s.MaxLatency < int64(s.AvgLatency) || s.Throughput <= 0 {
		t.Fatalf("bad stats: %+v", s)
	}
	if Mesh2D.String() != "mesh" || Torus2D.String() != "torus" {
		t.Fatal("kind names")
	}
}

// The Figure 1 shape: average latency grows with machine size on a mesh
// under uniform random traffic (distance-aware network).
func TestLatencyGrowsWithSize(t *testing.T) {
	small, err := RandomTraffic(Config{Kind: Mesh2D, Width: 2, Height: 2, LinkCapacity: 2}, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RandomTraffic(Config{Kind: Mesh2D, Width: 8, Height: 8, LinkCapacity: 2}, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if large.AvgLatency <= small.AvgLatency {
		t.Fatalf("8x8 latency %.2f should exceed 2x2 latency %.2f", large.AvgLatency, small.AvgLatency)
	}
}

// TestPinnedStats pins the full Stats of dimension-order routing on 8×8
// networks: uniform random traffic for two seeds and every pattern, 16
// packets per node, on a mesh and a torus at link capacity 1 and 2. Any
// change of routing, arbitration or accounting moves them.
func TestPinnedStats(t *testing.T) {
	cases := []struct {
		kind    Kind
		cap     int
		traffic string // "random" or a pattern name
		seed    int64
		want    Stats
	}{
		{Mesh2D, 1, "random", 1, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 15.9716796875, MaxLatency: 39, AvgHops: 5.388671875, Cycles: 48, Throughput: 0.3333333333333333}},
		{Mesh2D, 1, "random", 2, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 15.1787109375, MaxLatency: 37, AvgHops: 5.19921875, Cycles: 49, Throughput: 0.32653061224489793}},
		{Mesh2D, 1, "transpose", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 33.5, MaxLatency: 106, AvgHops: 5.25, Cycles: 121, Throughput: 0.1322314049586777}},
		{Mesh2D, 1, "bit-reversal", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 38.4609375, MaxLatency: 106, AvgHops: 5.25, Cycles: 121, Throughput: 0.1322314049586777}},
		{Mesh2D, 1, "neighbor", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 3.75, MaxLatency: 9, AvgHops: 1.75, Cycles: 24, Throughput: 0.6666666666666666}},
		{Mesh2D, 1, "tornado", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 39.375, MaxLatency: 71, AvgHops: 8, Cycles: 86, Throughput: 0.18604651162790697}},
		{Mesh2D, 2, "random", 1, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 8.82421875, MaxLatency: 19, AvgHops: 5.388671875, Cycles: 30, Throughput: 0.5333333333333333}},
		{Mesh2D, 2, "random", 2, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 8.4296875, MaxLatency: 18, AvgHops: 5.19921875, Cycles: 29, Throughput: 0.5517241379310345}},
		{Mesh2D, 2, "transpose", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 16.546875, MaxLatency: 51, AvgHops: 5.25, Cycles: 66, Throughput: 0.24242424242424243}},
		{Mesh2D, 2, "bit-reversal", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 18.681640625, MaxLatency: 51, AvgHops: 5.25, Cycles: 66, Throughput: 0.24242424242424243}},
		{Mesh2D, 2, "neighbor", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 3.75, MaxLatency: 9, AvgHops: 1.75, Cycles: 24, Throughput: 0.6666666666666666}},
		{Mesh2D, 2, "tornado", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 18.2421875, MaxLatency: 27, AvgHops: 8, Cycles: 42, Throughput: 0.38095238095238093}},
		{Torus2D, 1, "random", 1, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 10.4208984375, MaxLatency: 28, AvgHops: 4.103515625, Cycles: 35, Throughput: 0.45714285714285713}},
		{Torus2D, 1, "random", 2, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 10.21484375, MaxLatency: 27, AvgHops: 4.01171875, Cycles: 37, Throughput: 0.43243243243243246}},
		{Torus2D, 1, "transpose", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 24.4375, MaxLatency: 55, AvgHops: 4, Cycles: 70, Throughput: 0.22857142857142856}},
		{Torus2D, 1, "bit-reversal", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 25.7216796875, MaxLatency: 54, AvgHops: 4, Cycles: 69, Throughput: 0.2318840579710145}},
		{Torus2D, 1, "neighbor", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 3, MaxLatency: 3, AvgHops: 1, Cycles: 18, Throughput: 0.8888888888888888}},
		{Torus2D, 1, "tornado", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 61.6328125, MaxLatency: 81, AvgHops: 8, Cycles: 96, Throughput: 0.16666666666666666}},
		{Torus2D, 2, "random", 1, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 6.5703125, MaxLatency: 13, AvgHops: 4.103515625, Cycles: 25, Throughput: 0.64}},
		{Torus2D, 2, "random", 2, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 6.4111328125, MaxLatency: 13, AvgHops: 4.01171875, Cycles: 26, Throughput: 0.6153846153846154}},
		{Torus2D, 2, "transpose", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 11.9453125, MaxLatency: 26, AvgHops: 4, Cycles: 39, Throughput: 0.41025641025641024}},
		{Torus2D, 2, "bit-reversal", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 11.8310546875, MaxLatency: 24, AvgHops: 4, Cycles: 38, Throughput: 0.42105263157894735}},
		{Torus2D, 2, "neighbor", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 3, MaxLatency: 3, AvgHops: 1, Cycles: 18, Throughput: 0.8888888888888888}},
		{Torus2D, 2, "tornado", 0, Stats{Injected: 1024, Delivered: 1024, Dropped: 0, AvgLatency: 24.1796875, MaxLatency: 33, AvgHops: 8, Cycles: 46, Throughput: 0.34782608695652173}},
	}
	for _, c := range cases {
		cfg := Config{Kind: c.kind, Width: 8, Height: 8, LinkCapacity: c.cap}
		var got Stats
		var err error
		if c.traffic == "random" {
			got, err = RandomTraffic(cfg, 16, c.seed)
		} else {
			p, perr := ParsePattern(c.traffic)
			if perr != nil {
				t.Fatal(perr)
			}
			got, err = PatternTraffic(cfg, p, 16)
		}
		if err != nil {
			t.Fatalf("%s cap %d %s seed %d: %v", c.kind, c.cap, c.traffic, c.seed, err)
		}
		if got != c.want {
			t.Errorf("%s cap %d %s seed %d:\n got %+v\nwant %+v", c.kind, c.cap, c.traffic, c.seed, got, c.want)
		}
	}
}
