package appcore

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/dpu"
)

func TestGeoForPEs(t *testing.T) {
	cases := []struct {
		n        int
		channels int
		ok       bool
	}{
		{8, 1, true},    // 1 bank
		{64, 1, true},   // 8 banks
		{128, 1, true},  // 2 ranks
		{256, 1, true},  // full channel
		{512, 2, true},  // 2 channels
		{1024, 4, true}, // paper system
		{24, 3, true},   // 3 channels of 8 (non-pow2 channel count)
		{0, 0, false},
		{12, 0, false},
		{-8, 0, false},
	}
	for _, c := range cases {
		g, err := GeoForPEs(c.n, 4096)
		if (err == nil) != c.ok {
			t.Errorf("GeoForPEs(%d): err=%v, want ok=%v", c.n, err, c.ok)
			continue
		}
		if err != nil {
			continue
		}
		if g.NumPEs() != c.n {
			t.Errorf("GeoForPEs(%d) has %d PEs", c.n, g.NumPEs())
		}
		if g.Channels != c.channels {
			t.Errorf("GeoForPEs(%d) channels = %d, want %d", c.n, g.Channels, c.channels)
		}
		if g.RanksPerChannel > 4 || g.BanksPerChip > 8 {
			t.Errorf("GeoForPEs(%d) exceeds paper limits: %+v", c.n, g)
		}
	}
}

func TestGeoForPEsScalesBanksBeforeRanks(t *testing.T) {
	g, err := GeoForPEs(32, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if g.BanksPerChip != 4 || g.RanksPerChannel != 1 {
		t.Errorf("32 PEs should fill banks first: %+v", g)
	}
}

func TestPartitionCSRRoundTrip(t *testing.T) {
	g := data.RMAT(256, 1024, 3)
	for _, n := range []int{4, 16, 64} {
		slab, size, err := PartitionCSR(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(slab) != n*size || size%8 != 0 {
			t.Fatalf("slab of %d bytes for %d parts of %d", len(slab), n, size)
		}
		owned := g.V / n
		for p := 0; p < n; p++ {
			sg := NewSubgraphReader(slab[p*size:(p+1)*size], owned)
			for i := 0; i < owned; i++ {
				v := p*owned + i
				if got, want := sg.Degree(i), g.OutDegree(v); got != want {
					t.Fatalf("PE %d vertex %d degree %d, want %d", p, v, got, want)
				}
				for j, w := range g.Neighbors(v) {
					if sg.Neighbor(i, j) != w {
						t.Fatalf("PE %d vertex %d neighbor %d mismatch", p, v, j)
					}
				}
			}
		}
	}
}

func TestPartitionCSRRejectsBadSplit(t *testing.T) {
	g := data.RMAT(256, 512, 3)
	if _, _, err := PartitionCSR(g, 7); err == nil {
		t.Error("7-way split of 256 vertices accepted")
	}
}

func TestCPUModelRoofline(t *testing.T) {
	m := CPUModel{MemBW: 10, IntOps: 100, GraphTEPS: 5, LookupsPerSec: 2}
	if got := m.Time(100, 100); float64(got) != 10 {
		t.Errorf("memory-bound time = %v, want 10", got)
	}
	if got := m.Time(1, 1000); float64(got) != 10 {
		t.Errorf("compute-bound time = %v, want 10", got)
	}
	if got := m.GraphTime(50); float64(got) != 10 {
		t.Errorf("graph time = %v, want 10", got)
	}
	if got := m.LookupTime(20); float64(got) != 10 {
		t.Errorf("lookup time = %v, want 10", got)
	}
}

func TestDefaultCPUIsSane(t *testing.T) {
	m := DefaultCPU()
	if m.MemBW <= 0 || m.IntOps <= 0 || m.GraphTEPS <= 0 || m.LookupsPerSec <= 0 {
		t.Error("non-positive CPU parameter")
	}
	// Streaming must be far faster than latency-bound accesses.
	if m.MemBW/8 <= m.GraphTEPS {
		t.Error("graph traversal should be latency-bound, not bandwidth-bound")
	}
}

func TestTrackerAttribution(t *testing.T) {
	tr, comm, err := CommForPEs([]int{16}, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	tr.Kernel(func(ctx *dpu.Ctx) {
		ran.Add(1)
		ctx.Exec(1000)
	})
	if ran.Load() != 16 {
		t.Errorf("kernel ran on %d PEs, want all 16", ran.Load())
	}
	want := cost.DefaultParams().DPUInstrTime(1000) + cost.DefaultParams().KernelLaunch
	if tr.Prof.KernelTime != want || tr.C.Meter().Get(cost.Kernel) <= 0 {
		t.Errorf("kernel time %v, want %v charged as Kernel", tr.Prof.KernelTime, want)
	}
	bufs := [][]byte{make([]byte, 16*8)}
	bd, err := comm.Run(core.Collective{Prim: core.Scatter, Dims: "1",
		Hosts: bufs, Dst: core.Span(0, 8), Level: core.IM})
	if err := tr.Comm(core.Scatter, bd, err); err != nil {
		t.Fatal(err)
	}
	if tr.Prof.ByPrimitive[core.Scatter] <= 0 {
		t.Error("scatter time not tracked")
	}
	if tr.Prof.Total() != tr.Prof.KernelTime+tr.Prof.CommTotal() {
		t.Error("profile total inconsistent")
	}
	if s := tr.Prof.String(); !strings.Contains(s, "kernel") || !strings.Contains(s, "Sc") {
		t.Errorf("profile string %q missing parts", s)
	}
}

func TestTrackerPropagatesErrors(t *testing.T) {
	tr, comm, _ := CommForPEs([]int{16}, 16, 4096)
	bd, err := comm.Run(core.Collective{Prim: core.Gather, Dims: "bad-dims",
		Src: core.Span(0, 8), Level: core.IM})
	if err == nil {
		t.Fatal("expected error")
	}
	if tr.Comm(core.Gather, bd, err) == nil {
		t.Error("tracker swallowed error")
	}
}

func TestCommForPEsValidation(t *testing.T) {
	if _, _, err := CommForPEs([]int{10}, 10, 4096); err == nil {
		t.Error("bad PE count accepted")
	}
	if _, _, err := CommForPEs([]int{32}, 64, 4096); err == nil {
		t.Error("shape/PE mismatch accepted")
	}
}

// Property: PartitionCSR conserves the edge multiset.
func TestPartitionCSRConservesEdges(t *testing.T) {
	f := func(seed int64) bool {
		g := data.Uniform(128, 512, seed)
		slab, size, err := PartitionCSR(g, 8)
		if err != nil {
			return false
		}
		total := 0
		owned := g.V / 8
		for p := 0; p < 8; p++ {
			sg := NewSubgraphReader(slab[p*size:(p+1)*size], owned)
			for i := 0; i < owned; i++ {
				total += sg.Degree(i)
			}
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The pool holds one idle machine per key and at most idleBudget bytes of
// idle MRAM: a returned machine displaces older ones of other keys to fit,
// and one over the whole budget is dropped.
func TestPoolBudget(t *testing.T) {
	key := func(mram int) poolKey {
		g, err := GeoForPEs(256, mram)
		if err != nil {
			t.Fatal(err)
		}
		return poolKey{geo: g, shape: "[256]", workers: 1}
	}
	half := idleBudget / 256 / 2
	a, b, huge := key(half+8), key(half+16), key(2*half+8)
	ca, ca2, cb := &core.Comm{}, &core.Comm{}, &core.Comm{}
	p := machinePool{idle: make(map[poolKey]*core.Comm)}
	p.park(a, ca)
	p.park(a, ca2) // a is taken: ca2 is dropped
	if p.take(a) != ca {
		t.Fatal("a key's idle machine was replaced")
	}
	p.park(a, ca)
	p.park(b, cb) // a and b together exceed the budget: b displaces a
	if p.bytes > idleBudget || p.take(a) != nil || p.take(b) != cb {
		t.Fatalf("pool kept %d bytes over a %d budget, or the older machine", p.bytes, idleBudget)
	}
	p.park(huge, ca)
	if p.take(huge) != nil || p.bytes != 0 {
		t.Error("a machine over the whole budget was pooled")
	}
}
