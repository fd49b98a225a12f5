package appcore

import (
	"bytes"
	"encoding/binary"
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

// partitionCSR stages g's n-way partition the way a run does: CSRSize,
// then PartitionCSR into a zeroed slab.
func partitionCSR(g *data.Graph, n int) ([]byte, int, error) {
	size, err := CSRSize(g, n)
	if err != nil {
		return nil, 0, err
	}
	slab := make([]byte, n*size)
	PartitionCSR(slab, g, n, size)
	return slab, size, nil
}

// partitionCSROracle is the allocating builder PartitionCSR replaced: it
// sizes every part, then serializes each into its slot of a fresh slab.
func partitionCSROracle(g *data.Graph, n int) ([]byte, int) {
	owned := g.V / n
	maxSz := 0
	for p := 0; p < n; p++ {
		edges := int(g.RowPtr[(p+1)*owned] - g.RowPtr[p*owned])
		if sz := 4*(owned+1) + 4*edges; sz > maxSz {
			maxSz = sz
		}
	}
	maxSz = (maxSz + 7) &^ 7
	out := make([]byte, n*maxSz)
	for p := 0; p < n; p++ {
		buf := out[p*maxSz : (p+1)*maxSz]
		base := g.RowPtr[p*owned]
		for i := 0; i <= owned; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(g.RowPtr[p*owned+i]-base))
		}
		for i, c := range g.Col[base:g.RowPtr[(p+1)*owned]] {
			binary.LittleEndian.PutUint32(buf[4*(owned+1)+4*i:], uint32(c))
		}
	}
	return out, maxSz
}

// CSRSize plus PartitionCSR into a staged slab is the allocating builder,
// byte for byte, on skewed, uniform and undirected graphs at every split.
func TestPartitionCSRMatchesOracle(t *testing.T) {
	for _, g := range []*data.Graph{data.RMAT(256, 1024, 3), data.Uniform(512, 4096, 4),
		data.Undirected(data.RMAT(1024, 2048, 5)), data.RMAT(64, 0, 6)} {
		for _, n := range []int{1, 8, 32, 64} {
			slab, size, err := partitionCSR(g, n)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSize := partitionCSROracle(g, n)
			if size != wantSize || !bytes.Equal(slab, want) {
				t.Errorf("%d vertices, %d parts: the staged partition differs from the oracle's", g.V, n)
			}
		}
	}
}

func TestPartitionCSRRoundTrip(t *testing.T) {
	g := data.RMAT(256, 1024, 3)
	for _, n := range []int{4, 16, 64} {
		slab, size, err := partitionCSR(g, n)
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
	if _, err := CSRSize(g, 7); err == nil {
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
		slab, size, err := partitionCSR(g, 8)
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
// idle MRAM and staging: a returned machine displaces older ones of other
// keys to fit, and one over the whole budget is dropped, with its arena.
func TestPoolBudget(t *testing.T) {
	key := func(mram int) poolKey {
		g, err := GeoForPEs(256, mram)
		if err != nil {
			t.Fatal(err)
		}
		return poolKey{geo: g, shape: "[256]", workers: 1}
	}
	half := idleBudget / 256 / 2
	a, b, huge := key(half/2), key(half+16), key(2*half)
	ca, ca2, cb := &core.Comm{}, &core.Comm{}, &core.Comm{}
	arena := make([]byte, idleBudget/4+8) // a's MRAM and arena fit in half the budget, b's MRAM alone does not
	p := machinePool{idle: make(map[poolKey]idleMachine)}
	p.park(a, idleMachine{ca, arena})
	if p.bytes != 256*(half/2)+len(arena) {
		t.Fatalf("the pool counts %d bytes for one machine of %d bytes of MRAM and a %d-byte arena",
			p.bytes, 256*(half/2), len(arena))
	}
	p.park(a, idleMachine{ca2, nil}) // a is taken: ca2 is dropped
	if m := p.take(a); m.c != ca || &m.arena[0] != &arena[0] {
		t.Fatal("a key's idle machine or arena was replaced")
	}
	if p.bytes != 0 {
		t.Fatalf("the pool counts %d bytes with no idle machine", p.bytes)
	}
	p.park(a, idleMachine{ca, arena})
	p.park(b, idleMachine{cb, nil}) // a's MRAM and arena and b together exceed the budget: b displaces a
	if p.bytes > idleBudget || p.take(a).c != nil || p.take(b).c != cb {
		t.Fatalf("pool kept %d bytes over a %d budget, or the older machine", p.bytes, idleBudget)
	}
	p.park(huge, idleMachine{ca, make([]byte, 8)}) // MRAM of the whole budget: the arena tips it over
	if p.take(huge).c != nil || p.bytes != 0 {
		t.Error("a machine and arena over the whole budget were pooled")
	}
}
