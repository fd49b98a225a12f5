package core

import (
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

// The cost backend charges a rotate-blocks launch from the step alone.
// It must book what a per-PE account books — each PE's rotation(rank)
// checked, the slowest PE taken — to the bit, idle launches included:
// n = 1, or Mul ≡ 0 mod N, where no rank rotates.
func TestCostRotateBlocksMatchesPerPEAccount(t *testing.T) {
	c := costSystem(t, geo64, []int{1, 8, 8})
	type rec struct {
		cat cost.Category
		t   uint64
	}
	record := func(charge func(h *host.Host)) []rec {
		h := host.New(c.hc.sys, c.Host().Params())
		var got []rec
		h.Meter().SetRecorder(func(cat cost.Category, s cost.Seconds) { got = append(got, rec{cat, math.Float64bits(float64(s))}) })
		charge(h)
		return got
	}
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
						pes, ranks := p.launchLists()
						c.eng.LaunchCharges(dpu.LaunchSpec{PEs: pes, GroupRanks: ranks, Category: cost.PEMod}, h.Meter(),
							func(_, rank int) (int64, int64) {
								if st.rotation(rank) == 0 {
									return 0, 0
								}
								return rotateBlocksWork(N * S)
							})
					})
					got := record(func(h *host.Host) { costBackend{}.rotateBlocks(c.Comm, h, st) })
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
