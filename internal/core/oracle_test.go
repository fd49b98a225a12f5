package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dpu"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
)

// Bus traffic stated as closed formulas in the PE count N, the group
// size n and the per-PE bytes m — what each level moves by construction,
// not what the simulator computed — on the paper's 32×32 machine with
// 64 KiB per PE. Every channel holds a quarter of the PEs and every PE
// moves the same bytes, so each channel carries a quarter of the bytes.
func TestBusTrafficMatchesClosedForms(t *testing.T) {
	const N, n, m = 1024, 32, 65536
	geo := dram.PaperGeometry(1 << 20)
	for _, r := range []struct {
		prim   Primitive
		lvl    Level
		bursts int64
	}{
		// Every PE's m bytes are read to the host and m bytes written
		// back: 2,097,152 bursts, 32 MiB per channel.
		{AlltoAll, Baseline, 2 * N * m / 64},
		// Every PE's m bytes are read and its reduced m/n-byte block
		// written back: 1,081,344 bursts, 16.5 MiB per channel.
		{ReduceScatter, Baseline, N*m/64 + N*(m/n)/64},
	} {
		c := costSystem(t, geo, []int{32, 32})
		runOnBackend(t, c, r.prim, "10", r.lvl, m/n)
		st := c.Host().Stats()
		perChan := r.bursts * dram.BurstBytes / int64(geo.Channels)
		if st.Bursts != r.bursts || slices.ContainsFunc(st.BytesPerChannel, func(b int64) bool { return b != perChan }) {
			t.Errorf("%v at %v moved %d bursts, %v B per channel; want %d bursts, %d B on each of %d channels",
				r.prim, r.lvl, st.Bursts, st.BytesPerChannel, r.bursts, perChan, geo.Channels)
		}
	}
}

// Host bytes per host.Work kind stated as closed formulas in the PE count
// N, the group size n, the group count G = N/n and the per-PE bytes m —
// what a staged ring or tree moves by construction (lowering.go), not
// what the simulator computed — summed over the lowered schedule's
// charges with every step's rounds multiplied in, at Base on the paper's
// 32×32 machine. A ring and a tree move the same bytes in different
// rounds: an AllReduce's reduce pass folds and its return pass copies
// (n-1)·G·m bytes, each hop's volume crossing host memory twice, after
// the N·m snapshot; a Broadcast forwards (n-1)·G·m bytes, then fans the
// payload out to all N·m.
func TestStagedHostBytesMatchClosedForms(t *testing.T) {
	const N, m = 1024, 65536
	c := costSystem(t, dram.PaperGeometry(1<<20), []int{32, 32})
	c.compMu.Lock()
	defer c.compMu.Unlock()
	for _, r := range []struct {
		dims string
		n    int64
	}{{"10", 32}, {"11", N}} {
		n, G := r.n, N/r.n
		hosts := make([][]byte, G)
		for g := range hosts {
			hosts[g] = make([]byte, m)
		}
		for _, w := range []struct {
			prim  Primitive
			bytes map[host.Work]int64
		}{
			{AllReduce, map[host.Work]int64{host.ScalarReduce: (n - 1) * G * m, host.SIMD: (n - 1) * G * m, host.HostMem: N*m + 4*(n-1)*G*m}},
			{Broadcast, map[host.Work]int64{host.HostMem: 2 * (n - 1) * G * m, host.SIMD: N * m}},
		} {
			for _, algo := range []Algorithm{AlgoRing, AlgoTree} {
				d := Collective{Prim: w.prim, Dims: r.dims, Level: Baseline, Algorithm: algo, Elem: elem.I32, Op: elem.Sum,
					Src: Span(0, m), Dst: At(2 * m)}
				if w.prim == Broadcast {
					d.Src, d.Dst, d.Hosts = Region{}, At(0), hosts
				}
				spec, err := c.specIn(c.s.ar, d, false)
				if err != nil {
					t.Fatal(err)
				}
				sched := spec.schedule()
				if !strings.HasSuffix(sched.Name, "/"+algo.String()) {
					t.Fatalf("%v/%v lowered to %s", w.prim, algo, sched.Name)
				}
				got := map[host.Work]int64{}
				for _, st := range sched.Steps {
					rounds, charges := 1, []Charge(nil)
					switch s := st.(type) {
					case *StepHostCompute:
						rounds, charges = s.Rounds, s.Charges
					case *StepBulk:
						charges = s.Charges
					case *StepColumnStream:
						charges = s.Charges
					}
					for _, ch := range charges {
						got[ch.Kind] += int64(rounds) * ch.Bytes
					}
				}
				if !maps.Equal(got, w.bytes) {
					t.Errorf("%v/%v over n=%d: host bytes %v, want %v", w.prim, algo, n, got, w.bytes)
				}
			}
		}
	}
}

// Column-streaming bus traffic stated as closed formulas in the PE count
// N, the group size n and the block size s, on backendShapes and
// backendBlocks. Every transfer moves whole columns, one burst on each of
// the N/8 entangled groups, so a call moving k columns per element column
// of a block books k·(s/8)·(N/8) bursts, an equal share on every channel.
// Per element column, an AlltoAll reads and writes each of its n slots
// (k = 2n), an AllGather reads one and writes n, a ReduceScatter reads n
// and writes one (n+1), a Reduce reads n, an AllReduce reads and writes
// n each (2n), and a Gather, Scatter or Broadcast moves one. The
// streaming levels (IM, CM; every non-Baseline Gather and Scatter; every
// Broadcast) move them in column-stream epochs, the staged ones in bulk
// reads and writes of the same bytes, so k holds at every level. The
// single-group AllGather (every dimension selected, n = N) reads its s
// bytes and streams the n·s-byte image to every PE: n+1 again.
func TestColumnStreamBurstsMatchClosedForms(t *testing.T) {
	k := map[Primitive]func(n int64) int64{
		AlltoAll:      func(n int64) int64 { return 2 * n },
		AllGather:     func(n int64) int64 { return n + 1 },
		ReduceScatter: func(n int64) int64 { return n + 1 },
		Reduce:        func(n int64) int64 { return n },
		AllReduce:     func(n int64) int64 { return 2 * n },
		Gather:        func(int64) int64 { return 1 },
		Scatter:       func(int64) int64 { return 1 },
		Broadcast:     func(int64) int64 { return 1 },
	}
	for _, tc := range backendShapes {
		N := int64(tc.geo.NumPEs())
		oneGroup := strings.Repeat("1", len(tc.shape))
		for _, s := range backendBlocks {
			check := func(prim Primitive, dims string, lvl Level, n int64) {
				t.Helper()
				c := costSystem(t, tc.geo, tc.shape)
				runOnBackend(t, c, prim, dims, lvl, s)
				bursts := k[prim](n) * int64(s/8) * N / dram.ChipsPerRank
				perChan := bursts * dram.BurstBytes / int64(tc.geo.Channels)
				st := c.Host().Stats()
				if st.Bursts != bursts || slices.ContainsFunc(st.BytesPerChannel, func(b int64) bool { return b != perChan }) {
					t.Errorf("%s dims %s s=%d: %v at %v moved %d bursts, %v B per channel; want %d bursts, %d B on each of %d channels",
						tc.name, dims, s, prim, lvl, st.Bursts, st.BytesPerChannel, bursts, perChan, tc.geo.Channels)
				}
			}
			p, err := costSystem(t, tc.geo, tc.shape).plan(tc.dims)
			if err != nil {
				t.Fatal(err)
			}
			for _, prim := range Primitives() {
				for _, lvl := range Levels() {
					check(prim, tc.dims, lvl, int64(p.n))
				}
			}
			if (N+2)*int64(s) > int64(tc.geo.MramPerBank) {
				continue // the paper machine's 16 KiB banks cannot hold a 1024-rank gather
			}
			for _, lvl := range Levels() {
				check(AllGather, oneGroup, lvl, N)
			}
		}
	}
}

// Every busy StepRotateBlocks stated as closed formulas in the group
// size n and the block size s, on backendShapes and backendBlocks: a
// lowering's rotation turns its group's n blocks of s bytes, and every PE
// of the launch does one pass in and out of MRAM with an instruction per
// 4 bytes, rounded up — ((n·s+3)/4 instructions, 2·n·s MRAM bytes) —
// booked as the DPU model prices that work. A staged pass rotates only
// at PR, pre-rotating its source (an AlltoAll undoes it on its
// destination too); a streaming level pre-rotates a source it shifts or
// folds and undoes a shifted write on its destination. Hand-built steps
// of 1, 3 and 5-byte blocks, which no lowering emits (its blocks are
// whole bursts), pin the rounding.
func TestRotateBlocksWorkMatchesClosedForms(t *testing.T) {
	rotates := map[Primitive][4]int{ // busy rotations at Baseline, PR, IM, CM
		AlltoAll:      {0, 2, 2, 2},
		AllGather:     {0, 0, 1, 1},
		ReduceScatter: {0, 1, 1, 1},
		Reduce:        {0, 1, 1, 1},
		AllReduce:     {0, 1, 2, 2},
		// Gather, Scatter and Broadcast never rotate.
	}
	for _, tc := range backendShapes {
		c := costSystem(t, tc.geo, tc.shape)
		p, err := c.plan(tc.dims)
		if err != nil {
			t.Fatal(err)
		}
		checkWork := func(what string, st *StepRotateBlocks) {
			t.Helper()
			instr, mram := int64((st.N*st.S+3)/4), int64(2*st.N*st.S)
			if gi, gm := rotateBlocksWork(st.N * st.S); gi != instr || gm != mram {
				t.Errorf("%s %s: a PE does (%d instr, %d MRAM bytes), want (%d, %d)", tc.name, what, gi, gm, instr, mram)
			}
			got := recordAdds(c.Comm, func(h *host.Host) { c.chargeRotate(h, st) })
			want := recordAdds(c.Comm, func(h *host.Host) {
				c.eng.LaunchChargesUniform(dpu.LaunchSpec{Category: cost.PEMod}, len(p.rankOf), h.Meter(), instr, mram)
			})
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: booked %v, the closed-form work prices to %v", tc.name, what, got, want)
			}
		}
		for _, s := range backendBlocks {
			for li, lvl := range Levels() {
				for _, prim := range Primitives() {
					d := testCall(t, c, prim, tc.dims, lvl, s)
					c.compMu.Lock()
					spec, err := c.specIn(c.s.ar, d, false)
					c.compMu.Unlock()
					if err != nil {
						t.Fatal(err)
					}
					busy := 0
					for _, st := range spec.schedule().Steps {
						st, ok := st.(*StepRotateBlocks)
						if !ok {
							continue
						}
						what := fmt.Sprintf("%v/%v s=%d rotation %+d", prim, lvl, s, st.Mul)
						if st.N != p.n || st.S != s || (st.Mul != 1 && st.Mul != -1) {
							t.Errorf("%s %s: turns %d blocks of %d bytes by %d per rank, want %d of %d by ±1",
								tc.name, what, st.N, st.S, st.Mul, p.n, s)
						}
						busy++
						checkWork(what, st)
					}
					if want := rotates[prim][li]; busy != want {
						t.Errorf("%s %v/%v s=%d: %d busy rotations, want %d", tc.name, prim, lvl, s, busy, want)
					}
				}
			}
		}
		for _, N := range []int{3, p.n} {
			for _, S := range []int{1, 3, 5} {
				checkWork(fmt.Sprintf("hand-built N=%d S=%d", N, S), &StepRotateBlocks{p: p, N: N, S: S, Mul: 1})
			}
		}
	}
}

// meterAdd is one recorded meter addition, its seconds as float bits.
type meterAdd struct {
	cat cost.Category
	t   uint64
}

// recordAdds returns the meter additions book makes on a fresh cost-only
// host of c's system.
func recordAdds(c *Comm, book func(h *host.Host)) []meterAdd {
	h := host.New(c.hc.sys, c.Host().Params())
	var got []meterAdd
	h.Meter().SetRecorder(func(cat cost.Category, s cost.Seconds) {
		got = append(got, meterAdd{cat, math.Float64bits(float64(s))})
	})
	book(h)
	return got
}

// The booking loop charges a rotate-blocks launch from the step alone
// (chargeRotate). It must book what a per-PE account books — each PE's rotation(rank)
// checked, the slowest PE taken — to the bit, idle launches included:
// n = 1, or Mul ≡ 0 mod N, where no rank rotates.
func TestCostRotateBlocksMatchesPerPEAccount(t *testing.T) {
	c := costSystem(t, geo64, []int{1, 8, 8})
	record := func(book func(h *host.Host)) []meterAdd { return recordAdds(c.Comm, book) }
	idle := 0
	for _, dims := range []string{"100", "010", "011", "111"} { // n = 1, 8, 64, 64
		p, err := c.plan(dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, N := range []int{1, 2, 3, 8, 32} {
			for _, S := range []int{1, 8, 24} {
				for mul := -2 * N; mul <= 2*N; mul++ {
					st := &StepRotateBlocks{p: p, N: N, S: S, Mul: mul}
					want := record(func(h *host.Host) {
						pes, ranks := make([]int, len(p.rankOf)), make([]int, len(p.rankOf))
						for pe, r := range p.rankOf {
							pes[pe], ranks[pe] = pe, int(r)
						}
						c.eng.LaunchCharges(dpu.LaunchSpec{PEs: pes, GroupRanks: ranks, Category: cost.PEMod}, h.Meter(),
							func(_, rank int) (int64, int64) {
								if st.rotation(rank) == 0 {
									return 0, 0
								}
								return rotateBlocksWork(N * S)
							})
					})
					got := record(func(h *host.Host) { c.chargeRotate(h, st) })
					if !slices.Equal(got, want) {
						t.Errorf("dims %s, N %d, S %d, Mul %d: charged %v, the per-PE account %v", dims, N, S, mul, got, want)
					}
					if len(want) > 0 && want[0].t == 0 {
						idle++
					}
				}
			}
		}
	}
	if idle == 0 {
		t.Fatal("no idle launch was checked")
	}
}
