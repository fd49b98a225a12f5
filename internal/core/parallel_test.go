package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// This file pins the parallel functional backend's two contracts:
//
//   1. Determinism — the worker count is a pure throughput knob. MRAM
//      contents, rooted results, the cost meter, and the bus statistics
//      must be bit-for-bit identical at any ExecWorkers setting
//      (TestParallelDeterminism, also run under -race in CI to catch
//      shard overlap as a data race).
//   2. Zero-alloc replay — a warmed CompiledPlan.Run on the functional
//      backend allocates nothing in steady state on the streaming paths
//      (TestReplayAllocs*), so replay-heavy workloads never touch the
//      garbage collector.
//
// TestFuncSpeedup is the perf gate for the worker pool itself: >= 5x
// elapsed speedup at 8 workers on a full-scale functional fig14-shape
// collective. It needs real cores and skips on small machines; CI runs
// it where hardware allows, and `pidbench -exp funcspeed` tracks the
// ratio as a regression metric everywhere.

// execSig is everything observable about an execution that must not
// depend on the worker count.
type execSig struct {
	mram   []byte
	meter  cost.Breakdown
	bursts int64
	chans  []int64
	rooted []byte
}

func captureSig(c *testComm, mramBytes int, rooted []byte) execSig {
	numPE := c.Hypercube().System().Geometry().NumPEs()
	sig := execSig{meter: c.Meter().Snapshot(), rooted: rooted}
	for pe := 0; pe < numPE; pe++ {
		sig.mram = append(sig.mram, c.GetPEBuffer(pe, 0, mramBytes)...)
	}
	st := c.Host().Stats()
	sig.bursts = st.Bursts
	sig.chans = st.BytesPerChannel
	return sig
}

func diffSigs(t *testing.T, want, got execSig, label string) {
	t.Helper()
	if !bytes.Equal(got.mram, want.mram) {
		t.Errorf("%s: MRAM contents differ from workers=1", label)
	}
	if !bytes.Equal(got.rooted, want.rooted) {
		t.Errorf("%s: rooted results differ from workers=1", label)
	}
	if got.meter != want.meter {
		t.Errorf("%s: meter breakdown differs from workers=1:\n  want %v\n  got  %v", label, want.meter, got.meter)
	}
	if got.bursts != want.bursts {
		t.Errorf("%s: burst count %d, workers=1 counted %d", label, got.bursts, want.bursts)
	}
	if len(got.chans) != len(want.chans) {
		t.Fatalf("%s: channel count changed", label)
	}
	for ch := range want.chans {
		if got.chans[ch] != want.chans[ch] {
			t.Errorf("%s: channel %d traffic %d, workers=1 counted %d", label, ch, got.chans[ch], want.chans[ch])
		}
	}
}

// runParallelWorkload drives every primitive at every functional level
// the core tests exercise, with deterministic data, and returns the
// concatenated rooted results. Block sizes are deliberately not multiples
// of the worker counts under test so shard boundaries fall mid-group.
func runParallelWorkload(t *testing.T, c *testComm, dims string) []byte {
	t.Helper()
	p, err := c.plan(dims)
	if err != nil {
		t.Fatal(err)
	}
	var rooted []byte
	collect := func(bufs [][]byte) {
		for _, b := range bufs {
			rooted = append(rooted, b...)
		}
	}
	s := 16
	m := p.n * s
	for i, lvl := range Levels() {
		fillSrc(c, 0, m, int64(100+i))
		if _, err := c.Run(Collective{Prim: AlltoAll, Dims: dims,
			Src: Span(0, m), Dst: At(2 * m), Level: lvl}); err != nil {
			t.Fatal(err)
		}
	}
	for i, lvl := range []Level{Baseline, PR, IM} {
		fillSrc(c, 0, m, int64(200+i))
		if _, err := c.Run(Collective{Prim: ReduceScatter, Dims: dims,
			Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: lvl}); err != nil {
			t.Fatal(err)
		}
		fillSrc(c, 0, m, int64(300+i))
		if _, err := c.Run(Collective{Prim: AllReduce, Dims: dims,
			Src: Span(0, m), Dst: At(2 * m), Elem: elem.I16, Op: elem.Max, Level: lvl}); err != nil {
			t.Fatal(err)
		}
		fillSrc(c, 0, m, int64(400+i))
		got, _, err := runRooted(c, Collective{Prim: Reduce, Dims: dims, Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: lvl})
		if err != nil {
			t.Fatal(err)
		}
		collect(got)
	}
	// The staged AllReduce shapes: the ring and tree close by rereading
	// their source, the rsag composes two staged passes.
	for i, algo := range []Algorithm{AlgoRing, AlgoTree, AlgoRabenseifner} {
		fillSrc(c, 0, m, int64(450+i))
		if _, err := c.Run(Collective{Prim: AllReduce, Dims: dims, Src: Span(0, m), Dst: At(2 * m),
			Elem: elem.I32, Op: elem.Sum, Level: Baseline, Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
	}
	for i, lvl := range Levels() {
		fillSrc(c, 0, s, int64(500+i))
		if _, err := c.Run(Collective{Prim: AllGather, Dims: dims,
			Src: Span(0, s), Dst: At(2 * m), Level: lvl}); err != nil {
			t.Fatal(err)
		}
	}
	for i, lvl := range []Level{Baseline, IM} {
		rng := rand.New(rand.NewSource(int64(600 + i)))
		bufs := make([][]byte, len(p.groups))
		for g := range bufs {
			bufs[g] = make([]byte, p.n*s)
			rng.Read(bufs[g])
		}
		if _, err := c.Run(Collective{Prim: Scatter, Dims: dims,
			Hosts: bufs, Dst: Span(0, s), Level: lvl}); err != nil {
			t.Fatal(err)
		}
		got, _, err := runRooted(c, Collective{Prim: Gather, Dims: dims, Src: Span(0, s), Level: lvl})
		if err != nil {
			t.Fatal(err)
		}
		collect(got)
	}
	rng := rand.New(rand.NewSource(700))
	bufs := make([][]byte, len(p.groups))
	for g := range bufs {
		bufs[g] = make([]byte, 2*s)
		rng.Read(bufs[g])
	}
	if _, err := c.Run(Collective{Prim: Broadcast, Dims: dims,
		Hosts: bufs, Dst: At(64), Level: IM}); err != nil {
		t.Fatal(err)
	}
	return rooted
}

// TestParallelDeterminism runs the full primitive x level matrix on
// regular, sub-entangled-group, single-group and irregular
// (non-power-of-two) shapes at several worker counts and requires
// byte-identical MRAM, rooted results, meter, and bus statistics.
// Shard-merge ordering bugs and write overlap both surface here (the
// latter also as a -race failure). A single group stages with its member
// copies sharded rather than its groups.
func TestParallelDeterminism(t *testing.T) {
	shapes := []caseSpec{
		{"2D-x", geo64, []int{8, 8}, "10"},
		{"2D-one-group", geo64, []int{8, 8}, "11"},
		{"2D-subEG-y", geo64, []int{4, 16}, "01"},
		{"3D-xz", geo64, []int{4, 2, 8}, "101"},
		{"nonpow2-x", geo24, []int{8, 3}, "10"},
		{"nonpow2-strided", geo24, []int{4, 6}, "01"},
	}
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			var ref execSig
			for i, w := range workerCounts {
				c := newTestComm(t, tc.geo, tc.shape, Config{ExecWorkers: w})
				if got := c.ExecWorkers(); got != w {
					t.Fatalf("ExecWorkers() = %d at Config.ExecWorkers %d", got, w)
				}
				rooted := runParallelWorkload(t, c, tc.dims)
				sig := captureSig(c, 4096, rooted)
				if i == 0 {
					ref = sig
					continue
				}
				diffSigs(t, ref, sig, fmt.Sprintf("workers=%d", w))
			}
		})
	}
}

func TestExecWorkersDefaultAndMirror(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -2} {
		c := newTestComm(t, geo64, []int{8, 8}, Config{ExecWorkers: n})
		if got := c.ExecWorkers(); got != def {
			t.Errorf("ExecWorkers() = %d at Config.ExecWorkers %d, want GOMAXPROCS = %d", got, n, def)
		}
	}
	c := newTestComm(t, geo64, []int{8, 8}, Config{ExecWorkers: 3})
	if got := c.ExecWorkers(); got != 3 {
		t.Errorf("ExecWorkers() = %d at Config.ExecWorkers 3", got)
	}
	if got := c.Host().Workers(); got != 3 {
		t.Errorf("host Workers() = %d, want 3 (the host mirrors the comm)", got)
	}
}

// replayAllocs compiles the plan, warms it (arenas, kernels, streaming
// contexts, timeline capacity), and measures steady-state heap
// allocations per Run.
func replayAllocs(t *testing.T, c *testComm, compile func() (*CompiledPlan, error)) float64 {
	t.Helper()
	cp, err := compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cp.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := cp.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReplayAllocsStreaming pins the zero-alloc replay contract: a
// warmed streaming-path plan (IM/CM lower to rotate + column-stream
// steps only) allocates nothing per functional Run.
func TestReplayAllocsStreaming(t *testing.T) {
	c := newTestComm(t, geo64, []int{8, 8}, Config{ExecWorkers: 1})
	s := 16
	m := 8 * s
	fillSrc(c, 0, m, 9)
	if n := replayAllocs(t, c, func() (*CompiledPlan, error) {
		return c.Compile(Collective{Prim: AlltoAll, Dims: "10",
			Src: Span(0, m), Dst: At(2 * m), Level: IM})
	}); n != 0 {
		t.Errorf("streaming AlltoAll replay allocates %.1f objects/run, want 0", n)
	}
	if n := replayAllocs(t, c, func() (*CompiledPlan, error) {
		return c.Compile(Collective{Prim: AlltoAll, Dims: "10",
			Src: Span(0, m), Dst: At(2 * m), Level: CM})
	}); n != 0 {
		t.Errorf("streaming CM AlltoAll replay allocates %.1f objects/run, want 0", n)
	}
}

// TestReplayAllocsRooted: a rooted streaming plan compiled without Hosts
// makes its result buffers on its first run and reuses them, so it hits
// zero too.
func TestReplayAllocsRooted(t *testing.T) {
	c := newTestComm(t, geo64, []int{8, 8}, Config{ExecWorkers: 1})
	s := 16
	m := 8 * s
	fillSrc(c, 0, m, 11)
	if n := replayAllocs(t, c, func() (*CompiledPlan, error) {
		return c.Compile(Collective{Prim: Reduce, Dims: "10",
			Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: IM})
	}); n != 0 {
		t.Errorf("rooted Reduce replay allocates %.1f objects/run, want 0", n)
	}
}

// TestReplayAllocsStaged: a warmed staged replay allocates nothing.
// Every staged row — each primitive's Baseline and PR pass, the
// single-group AllGather, the ring, tree and rsag AllReduce and the ring
// and tree Broadcast — stages its groups through the comm's reused
// scratch, whether the groups shard across the workers (one worker, or
// dims "10") or one group's member copies do (two workers over dims "11").
// So do the streaming IM and CM AlltoAll and AllGather and the IM
// ReduceScatter and AllReduce, whose rotations and epochs run on the
// same reused scratch and streaming contexts.
func TestReplayAllocsStaged(t *testing.T) {
	const s = 16
	for _, workers := range []int{1, 2} {
		if workers > 1 && raceEnabled {
			continue // under -race the par pool's sync.Pool drops jobs at random
		}
		c := newTestComm(t, geo64, []int{8, 8}, Config{ExecWorkers: workers})
		for _, dims := range []string{"10", "11"} {
			p, err := c.plan(dims)
			if err != nil {
				t.Fatal(err)
			}
			m := p.n * s
			fillSrc(c, 0, m, 13)
			payloads := func(bytes int) [][]byte {
				bufs := make([][]byte, len(p.groups))
				for g := range bufs {
					bufs[g] = make([]byte, bytes)
				}
				return bufs
			}
			src, dst := Span(0, m), At(2*m)
			var ds []Collective
			for _, lvl := range []Level{Baseline, PR} {
				ds = append(ds,
					Collective{Prim: AlltoAll, Src: src, Dst: dst, Level: lvl},
					Collective{Prim: ReduceScatter, Src: src, Dst: dst, Elem: elem.I32, Op: elem.Sum, Level: lvl},
					Collective{Prim: AllReduce, Src: src, Dst: dst, Elem: elem.I32, Op: elem.Sum, Level: lvl},
					Collective{Prim: Reduce, Src: src, Elem: elem.I32, Op: elem.Sum, Level: lvl})
			}
			for _, algo := range []Algorithm{AlgoRing, AlgoTree, AlgoRabenseifner} {
				ds = append(ds, Collective{Prim: AllReduce, Src: src, Dst: dst, Elem: elem.I32, Op: elem.Sum, Level: Baseline, Algorithm: algo})
			}
			for _, algo := range []Algorithm{AlgoRing, AlgoTree} {
				ds = append(ds, Collective{Prim: Broadcast, Dst: dst, Hosts: payloads(s), Level: Baseline, Algorithm: algo})
			}
			for _, lvl := range []Level{IM, CM} {
				ds = append(ds,
					Collective{Prim: AlltoAll, Src: src, Dst: dst, Level: lvl},
					Collective{Prim: AllGather, Src: Span(0, s), Dst: dst, Level: lvl})
			}
			ds = append(ds,
				Collective{Prim: ReduceScatter, Src: src, Dst: dst, Elem: elem.I32, Op: elem.Sum, Level: IM},
				Collective{Prim: AllReduce, Src: src, Dst: dst, Elem: elem.I32, Op: elem.Sum, Level: IM},
				Collective{Prim: AllGather, Src: Span(0, s), Dst: dst, Level: Baseline},
				Collective{Prim: Gather, Src: Span(0, s), Level: Baseline},
				Collective{Prim: Scatter, Dst: Span(0, s), Hosts: payloads(m), Level: Baseline})
			for _, d := range ds {
				d.Dims = dims
				if n := replayAllocs(t, c, func() (*CompiledPlan, error) { return c.Compile(d) }); n != 0 {
					t.Errorf("workers %d: staged %v/%v/%v replay over dims %q allocates %.1f objects/run, want 0",
						workers, d.Prim, d.Level, d.Algorithm, dims, n)
				}
			}
		}
	}
}

// TestStagingFollowsGroupSize: a staged pass's scratch is one group's
// read and write bytes per worker, n·(ReadPerPE+WritePerPE), not the
// machine. The first Baseline AlltoAll on a fresh 16×16 comm, 32 KiB per
// PE, two workers, must allocate no more than that and a little slack;
// staging the whole machine through two machine-sized buffers took
// 16 MiB.
func TestStagingFollowsGroupSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m, n, workers, slack = 32 << 10, 16, 2, 64 << 10
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 4 * m}
	c := newTestComm(t, geo, []int{n, n}, Config{ExecWorkers: workers})
	cp, err := c.Compile(Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(2 * m), Level: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := cp.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(workers*n*(m+m)+slack); got > bound {
		t.Errorf("the first staged AlltoAll allocates %d bytes, want <= %d (%d workers × %d members × %d bytes + %d)",
			got, bound, workers, n, m+m, slack)
	}
}

// TestFuncSpeedup is the gated perf pin for the worker pool: on a
// machine with >= 8 cores, a full-scale functional fig14-shape AlltoAll
// (1024 PEs, 64 KiB/PE, CM) must replay >= 5x faster at 8 workers than
// at 1. Skipped on smaller machines, where the pool cannot express the
// parallelism; benchmark/'s func_replay workload tracks wall-clock there.
func TestFuncSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale speedup measurement skipped in -short")
	}
	if n := runtime.NumCPU(); n < 8 {
		t.Skipf("speedup gate needs >= 8 CPUs to run 8 workers in parallel, have %d", n)
	}
	geo := dram.Geometry{Channels: 4, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 1 << 18} // 1024 PEs
	m := 64 << 10
	measure := func(workers int) time.Duration {
		c := newTestComm(t, geo, []int{32, 32}, Config{ExecWorkers: workers})
		fillSrc(c, 0, m, 1)
		cp, err := c.Compile(Collective{Prim: AlltoAll, Dims: "10",
			Src: Span(0, m), Dst: At(2 * m), Level: CM})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cp.Run(); err != nil { // warm
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := cp.Run(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(1)
	parallel := measure(8)
	speedup := float64(serial) / float64(parallel)
	t.Logf("functional fig14-scale AlltoAll/CM: serial %v, 8 workers %v, speedup %.2fx", serial, parallel, speedup)
	if speedup < 5 {
		t.Errorf("parallel functional backend speedup %.2fx at 8 workers, want >= 5x", speedup)
	}
}
