package dpu

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/dram"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	sys, err := dram.NewSystem(dram.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(sys, cost.DefaultParams())
}

func TestKernelReadsAndWritesMram(t *testing.T) {
	e := testEngine(t)
	// Pre-fill PE 0's MRAM directly.
	m := e.System().BankBytes(0)
	for i := 0; i < 16; i++ {
		m[i] = byte(i + 1)
	}
	meter := cost.NewMeter()
	e.Launch(LaunchSpec{PEs: []int{0}, Category: cost.Kernel}, meter, func(c *Ctx) {
		buf := c.Wram()[:16]
		c.ReadMram(0, buf)
		for i := range buf {
			buf[i] *= 2
		}
		c.Exec(16)
		c.WriteMram(16, buf)
	})
	for i := 0; i < 16; i++ {
		if m[16+i] != byte(2*(i+1)) {
			t.Fatalf("mram[%d] = %d, want %d", 16+i, m[16+i], 2*(i+1))
		}
	}
	if meter.Get(cost.Kernel) <= 0 {
		t.Error("no kernel time accounted")
	}
	if meter.Get(cost.Other) != cost.DefaultParams().KernelLaunch {
		t.Error("launch overhead not accounted")
	}
}

func TestLaunchRunsAllPEs(t *testing.T) {
	e := testEngine(t)
	n := e.System().Geometry().NumPEs()
	pes := make([]int, n)
	for i := range pes {
		pes[i] = i
	}
	var count int64
	meter := cost.NewMeter()
	e.Launch(LaunchSpec{PEs: pes, Category: cost.Kernel}, meter, func(c *Ctx) {
		atomic.AddInt64(&count, 1)
		c.Exec(100)
	})
	if count != int64(n) {
		t.Errorf("kernel ran on %d PEs, want %d", count, n)
	}
}

func TestLaunchTimeIsMaxNotSum(t *testing.T) {
	e := testEngine(t)
	meter := cost.NewMeter()
	// Two PEs, one does 10x the work; elapsed should equal the slow one.
	e.Launch(LaunchSpec{PEs: []int{0, 1}, Category: cost.Kernel}, meter, func(c *Ctx) {
		if c.PE == 0 {
			c.Exec(1000)
		} else {
			c.Exec(10000)
		}
	})
	want := cost.DefaultParams().DPUInstrTime(10000)
	if got := meter.Get(cost.Kernel); math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("kernel time %v, want %v (max of PEs)", got, want)
	}
}

func TestFewTaskletsSlowDown(t *testing.T) {
	e := testEngine(t)
	run := func(tasklets int) cost.Seconds {
		m := cost.NewMeter()
		e.Launch(LaunchSpec{PEs: []int{0}, Tasklets: tasklets, Category: cost.Kernel}, m, func(c *Ctx) {
			c.Exec(11000)
		})
		return m.Get(cost.Kernel)
	}
	one := run(1)
	full := run(SaturatingTasklets)
	if one <= full {
		t.Errorf("1 tasklet (%v) should be slower than %d tasklets (%v)", one, SaturatingTasklets, full)
	}
	if ratio := float64(one) / float64(full); math.Abs(ratio-11) > 0.01 {
		t.Errorf("slowdown ratio %v, want ~11", ratio)
	}
	// More than saturating tasklets does not speed up further.
	if extra := run(24); extra != full {
		t.Errorf("24 tasklets (%v) should equal %d tasklets (%v)", extra, SaturatingTasklets, full)
	}
}

func TestDMABoundKernel(t *testing.T) {
	e := testEngine(t)
	meter := cost.NewMeter()
	e.Launch(LaunchSpec{PEs: []int{0}, Category: cost.PEMod}, meter, func(c *Ctx) {
		buf := c.Wram()[:1024]
		for i := 0; i < 4; i++ {
			c.ReadMram(0, buf)
		}
		c.Exec(1) // negligible compute
	})
	want := cost.Seconds(4096 / cost.DefaultParams().DPUMramBW)
	if got := meter.Get(cost.PEMod); math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("DMA-bound time %v, want %v", got, want)
	}
}

func TestGroupRanks(t *testing.T) {
	e := testEngine(t)
	got := make([]int32, 3)
	meter := cost.NewMeter()
	e.Launch(LaunchSpec{PEs: []int{4, 5, 6}, GroupRanks: []int{2, 0, 1}, Category: cost.PEMod}, meter, func(c *Ctx) {
		atomic.StoreInt32(&got[c.PE-4], int32(c.GroupRank))
	})
	if got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Errorf("GroupRanks = %v", got)
	}
}

func TestGroupRankDefaultsToMinusOne(t *testing.T) {
	e := testEngine(t)
	var got int32
	e.Launch(LaunchSpec{PEs: []int{0}, Category: cost.PEMod}, cost.NewMeter(), func(c *Ctx) {
		atomic.StoreInt32(&got, int32(c.GroupRank))
	})
	if got != -1 {
		t.Errorf("default GroupRank = %d, want -1", got)
	}
}

// allPEs lists the test engine's 64 PEs.
func allPEs(e *Engine) []int {
	pes := make([]int, e.System().Geometry().NumPEs())
	for i := range pes {
		pes[i] = i
	}
	return pes
}

// An out-of-range DMA panics inside the kernel; through Launch, on pool
// workers, that panic must arrive at Launch's caller.
func TestMramOutOfRangePanics(t *testing.T) {
	e := testEngine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Launch(LaunchSpec{PEs: allPEs(e), Category: cost.Kernel, Workers: 4}, cost.NewMeter(), func(c *Ctx) {
		c.ReadMram(4090, c.Buf(100))
	})
}

// A kernel that panics on the PEs of the later shards only — the ones
// pool helpers run — used to kill the process from the helper goroutine.
// The caller must see the kernel's own panic value, the meter must stay
// uncharged, and the engine (its contexts, the pool's helpers) must keep
// working afterwards.
func TestLaunchPanicReachesCaller(t *testing.T) {
	sys, err := dram.NewSystem(dram.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 64})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sys, cost.DefaultParams())
	meter := cost.NewMeter()
	spec := LaunchSpec{PEs: allPEs(e), Category: cost.Kernel, Workers: 4}
	for round := 0; round < 20; round++ {
		got := func() (v any) {
			defer func() { v = recover() }()
			e.Launch(spec, meter, func(c *Ctx) {
				if c.PE >= 32 {
					c.ReadMram(60, c.Buf(16))
				}
			})
			return nil
		}()
		msg, _ := got.(string)
		if !strings.Contains(msg, "MRAM read [60,76) out of range 64") {
			t.Fatalf("round %d: recovered %v, want the kernel's out-of-range panic", round, got)
		}
	}
	if meter.Total() != 0 {
		t.Errorf("panicked launches charged %v", meter.Total())
	}
	var ran atomic.Int32
	e.Launch(spec, meter, func(c *Ctx) { ran.Add(1) })
	if ran.Load() != 64 {
		t.Errorf("launch after the panics ran %d PEs, want 64", ran.Load())
	}
}

// Two arena buffers of one kind taken on one PE never overlap, and a
// buffer taken before the slab grows keeps what was written to it.
func TestArenaBuffersDoNotAlias(t *testing.T) {
	e := testEngine(t)
	e.Launch(LaunchSpec{PEs: []int{0, 1, 2}, Category: cost.Kernel, Workers: 1}, cost.NewMeter(), func(c *Ctx) {
		// Sizes grow with the PE, so PEs 1 and 2 outgrow mid-kernel the
		// slab the PE before them left behind.
		n := 64 << c.PE
		a, b, big := c.Buf(n), c.Buf(n), c.Buf(8*n)
		for i := range a {
			a[i], b[i] = 0xAA, 0xBB
		}
		for i := range big {
			big[i] = 0xCC
		}
		w, x := c.I32(n), c.I32(n)
		for i := range w {
			w[i], x[i] = 1, 2
		}
		p, q := c.I64(n), c.I64(n)
		for i := range p {
			p[i], q[i] = 3, 4
		}
		for i := 0; i < n; i++ {
			if a[i] != 0xAA || b[i] != 0xBB || w[i] != 1 || x[i] != 2 || p[i] != 3 || q[i] != 4 {
				t.Fatalf("PE %d: arena buffers alias at %d", c.PE, i)
			}
		}
		if len(a) != n || cap(a) != n || len(big) != 8*n {
			t.Errorf("PE %d: Buf(%d) has len %d cap %d", c.PE, n, len(a), cap(a))
		}
	})
}

// Every PE after a shard's first, and every launch after an engine's
// first, takes its staging from the slabs the context already holds.
func TestSteadyStateLaunchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, workers := range []int{1, 2} {
		e := testEngine(t)
		meter := cost.NewMeter()
		spec := LaunchSpec{PEs: allPEs(e), Category: cost.Kernel, Workers: workers}
		kernel := func(c *Ctx) {
			buf := c.Buf(512)
			c.ReadMram(0, buf)
			vals := c.I32(128)
			acc := c.I64(8)
			clear(acc)
			for i := range vals {
				vals[i] = int32(buf[4*i])
				acc[i%8] += int64(vals[i])
			}
			c.WriteMram(512, c.Buf(64))
			c.Exec(128)
		}
		e.Launch(spec, meter, kernel)
		if avg := testing.AllocsPerRun(20, func() { e.Launch(spec, meter, kernel) }); avg != 0 {
			t.Errorf("Workers=%d: a warm 64-PE launch allocates %.2f times", workers, avg)
		}
	}
}

// A shard's context does not depend on which goroutine runs the shard.
// When no pool helper is free the caller claims every shard in turn; the
// launch must still leave one context per shard, each reused by its shard
// in any claim order, so a later launch that does find a helper makes no
// 64 KiB context of its own.
func TestLaunchContextsFollowShards(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := testEngine(t)
	const shards = 4
	ls := e.getLaunch(shards)
	ls.pes, ls.k = allPEs(e), func(c *Ctx) { c.Buf(256 + c.PE); c.I32(64) }
	n := len(ls.pes)
	claim := func(order ...int) func() {
		return func() {
			for _, k := range order {
				ls.RunShard(k, k*n/shards, (k+1)*n/shards)
			}
		}
	}
	claim(0, 1, 2, 3)()
	ctxs := slices.Clone(ls.ctxs)
	for k, c := range ctxs {
		if c == nil || slices.Index(ctxs, c) != k {
			t.Fatalf("shard %d has context %p after one launch: want one of its own (%p)", k, c, ctxs)
		}
	}
	if a := testing.AllocsPerRun(10, claim(3, 1, 0, 2)); a != 0 {
		t.Errorf("shards claimed in another order allocate %v times, want 0", a)
	}
	if !slices.Equal(ls.ctxs, ctxs) {
		t.Errorf("shard contexts changed with the claim order: %p, want %p", ls.ctxs, ctxs)
	}
	e.putLaunch(ls)
}

func TestLaunchEmptyPEsIsNoOp(t *testing.T) {
	e := testEngine(t)
	meter := cost.NewMeter()
	e.Launch(LaunchSpec{Category: cost.Kernel}, meter, func(c *Ctx) { t.Error("kernel ran") })
	if meter.Total() != 0 {
		t.Error("empty launch accrued time")
	}
}

func TestWramReuseDoesNotLeakBetweenPEs(t *testing.T) {
	e := testEngine(t)
	// First launch dirties WRAM.
	e.Launch(LaunchSpec{PEs: []int{0}, Category: cost.Kernel}, cost.NewMeter(), func(c *Ctx) {
		c.Wram()[0] = 0xFF
	})
	// Kernels must not rely on WRAM contents; the engine documents them as
	// undefined. This test just checks the scratchpad has full size.
	e.Launch(LaunchSpec{PEs: []int{1}, Category: cost.Kernel}, cost.NewMeter(), func(c *Ctx) {
		if len(c.Wram()) != WramBytes {
			t.Errorf("wram size %d", len(c.Wram()))
		}
	})
}

// Concurrent launches on one engine — the pattern a concurrency-safe
// Comm produces when collectives' reorder kernels and application
// kernels interleave — must be race-free: the WRAM pool is shared, and
// all launches charge one meter. Run under -race (make race).
func TestConcurrentLaunchesShareEngineAndMeter(t *testing.T) {
	e := testEngine(t)
	meter := cost.NewMeter()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine owns PEs [16g, 16g+16) and its own MRAM
			// region, mirroring disjoint concurrent collectives.
			pes := make([]int, 16)
			for i := range pes {
				pes[i] = g*16 + i
			}
			for iter := 0; iter < 5; iter++ {
				e.Launch(LaunchSpec{PEs: pes, Category: cost.Kernel}, meter, func(c *Ctx) {
					buf, back := c.Wram()[:64], c.Buf(64)
					for i := range buf {
						buf[i] = byte(c.PE)
					}
					c.WriteMram(0, buf)
					c.ReadMram(0, back)
					if !bytes.Equal(buf, back) {
						t.Errorf("PE %d read back another PE's bytes", c.PE)
					}
					c.Exec(64)
				})
				e.LaunchCharges(LaunchSpec{PEs: pes, Category: cost.PEMod}, meter,
					func(pe, _ int) (int64, int64) { return 64, 128 })
			}
		}(g)
	}
	wg.Wait()
	if meter.Get(cost.Kernel) <= 0 || meter.Get(cost.PEMod) <= 0 {
		t.Errorf("concurrent launches accrued no time: %v", meter.Snapshot())
	}
}

// A uniform launch charge books exactly what LaunchCharges books with a
// constant account — the same meter entries, in the same order, to the
// bit — whatever the PE count and tasklets, and only KernelLaunch plus a
// zero-time entry when no PE works.
func TestLaunchChargesUniformMatchesConstantAccount(t *testing.T) {
	e := testEngine(t)
	type rec struct {
		cat cost.Category
		t   uint64
	}
	record := func(charge func(m *cost.Meter)) []rec {
		m := cost.NewMeter()
		var got []rec
		m.SetRecorder(func(c cost.Category, s cost.Seconds) { got = append(got, rec{c, math.Float64bits(float64(s))}) })
		charge(m)
		return got
	}
	all := make([]int, e.System().Geometry().NumPEs())
	for i := range all {
		all[i] = i
	}
	for _, pes := range [][]int{nil, {3}, all} {
		for _, tasklets := range []int{0, 1, 5, SaturatingTasklets, 24} {
			for _, w := range [][2]int64{{0, 0}, {16385, 131072}, {1, 1 << 30}, {1 << 30, 1}} {
				spec := LaunchSpec{PEs: pes, Category: cost.PEMod, Tasklets: tasklets}
				want := record(func(m *cost.Meter) {
					e.LaunchCharges(spec, m, func(_, _ int) (int64, int64) { return w[0], w[1] })
				})
				got := record(func(m *cost.Meter) { e.LaunchChargesUniform(spec, len(pes), m, w[0], w[1]) })
				if !slices.Equal(got, want) {
					t.Errorf("%d PEs, %d tasklets, work %v: uniform charged %v, LaunchCharges %v", len(pes), tasklets, w, got, want)
				}
			}
		}
	}
	idle := record(func(m *cost.Meter) { e.LaunchChargesUniform(LaunchSpec{Category: cost.PEMod}, len(all), m, 0, 0) })
	if want := []rec{{cost.PEMod, 0}, {cost.Other, math.Float64bits(float64(cost.DefaultParams().KernelLaunch))}}; !slices.Equal(idle, want) {
		t.Errorf("an idle launch charged %v, want %v", idle, want)
	}
}
