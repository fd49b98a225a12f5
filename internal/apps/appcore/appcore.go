// Package appcore provides shared infrastructure for the five benchmark
// applications (§ VII): per-primitive execution profiles (the stacked
// bars of Figures 4 and 13), PE-count-to-geometry mapping following the
// paper's channel scaling rule, and the CPU-only roofline model used by
// the Figure 21 comparison.
//
// An app run borrows its machine, the way the paper's applications
// allocate one rank set and run many inferences on it: CommForPEs takes
// the idle functional machine of its (geometry, hypercube shape,
// GOMAXPROCS) key, or builds one if there is none, and opens a fresh
// whole-MRAM session on it. A run that succeeds gives the machine back
// from Tracker.Finish, which closes the session (its plans go, the
// machine's shape rows stay) and zeroes every bank, so the next run of the
// key sees the bytes of a fresh machine and compiles nothing. The pool
// keeps one idle machine per key and at most idleBudget bytes of idle
// MRAM and staging; a run that fails never returns its machine.
//
// Host buffers are staged in place: every Scatter and Broadcast payload
// and every Gather result buffer of a run is carved at its final size by
// Tracker.Stage from the host staging arena the run borrowed with its
// machine, and every rank's part is written straight into its slot
// (PartitionCSR, the apps' weight, table and tile packers) — there is no
// per-rank intermediate to join afterwards. Finish parks the arena with
// the machine, grown to the run's high-water mark, so a repeat run of the
// key allocates no host buffer.
package appcore

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dpu"
	"repro/internal/dram"
	"repro/internal/par"
)

// Profile splits an application run's simulated time into kernel compute
// and per-primitive communication, matching the paper's app breakdowns.
type Profile struct {
	// KernelTime is DPU application compute (including its launch
	// overhead).
	KernelTime cost.Seconds
	// ByPrimitive is total time per collective primitive.
	ByPrimitive map[core.Primitive]cost.Seconds
	// CommBreakdown aggregates the per-category breakdown of all
	// communication calls (for the Figure 4 pies).
	CommBreakdown cost.Breakdown
}

// Total returns kernel + communication time.
func (p *Profile) Total() cost.Seconds { return p.KernelTime + p.CommTotal() }

// CommTotal returns the summed communication time, added in primitive
// order so the low bits do not depend on map iteration.
func (p *Profile) CommTotal() cost.Seconds {
	var t cost.Seconds
	for _, prim := range core.Primitives() {
		t += p.ByPrimitive[prim]
	}
	return t
}

// String renders the profile as a single line.
func (p *Profile) String() string {
	s := fmt.Sprintf("total %.4gs (kernel %.4gs", float64(p.Total()), float64(p.KernelTime))
	for _, prim := range core.Primitives() {
		if t, ok := p.ByPrimitive[prim]; ok && t > 0 {
			s += fmt.Sprintf(", %v %.4gs", prim, float64(t))
		}
	}
	return s + ")"
}

// Tracker is one app run on a borrowed machine: C and its session (the
// second result of CommForPEs), and the profile the run's kernels and
// collectives are attributed to.
type Tracker struct {
	C      *core.Comm
	Prof   Profile
	s      *core.Tenant
	key    poolKey
	pes    []int      // every PE of C, the launch list of Kernel
	km     cost.Meter // one kernel launch's charges
	arena  []byte     // the host staging borrowed with C
	staged int        // bytes every Stage of the run asked for, arena or not
}

// Stage returns n zeroed host bytes for a placement payload or a
// Gather's results (its Hosts), valid until Finish. It carves them from the run's staging arena; once the arena is
// spent, the rest of the run's requests are allocated and Finish parks an
// arena that holds them all.
func (t *Tracker) Stage(n int) []byte {
	off := t.staged
	t.staged += (n + 7) &^ 7 // keeps every payload word-aligned in the arena
	if t.staged > len(t.arena) {
		return make([]byte, n)
	}
	b := t.arena[off : off+n : off+n]
	clear(b)
	return b
}

// Kernel launches the application kernel k on every PE of t.C and
// attributes its simulated time to KernelTime. Kernel is a barrier: it
// flushes the comm's submission queue first (kernels touch MRAM the
// in-flight collectives may be producing) and extends the elapsed-time
// timeline with the kernel's cost. The launch charges the tracker's own
// reset meter, which is then merged into the machine's: KernelTime is
// exact, not a difference of the machine meter's cumulative totals,
// whose low bits would depend on the runs the machine served before.
func (t *Tracker) Kernel(k dpu.Kernel) {
	t.C.Flush()
	t.km.Reset()
	t.C.Engine().Launch(dpu.LaunchSpec{PEs: t.pes, Category: cost.Kernel}, &t.km, k)
	bd := t.km.Snapshot()
	t.Prof.KernelTime += bd.Total()
	t.C.Meter().Merge(&t.km)
	t.C.ExtendElapsed(bd)
}

// Comm records a collective call's breakdown under its primitive.
func (t *Tracker) Comm(p core.Primitive, bd cost.Breakdown, err error) error {
	if err != nil {
		return err
	}
	t.Prof.ByPrimitive[p] += bd.Total()
	t.Prof.CommBreakdown = t.Prof.CommBreakdown.Add(bd)
	return nil
}

// CommFuture waits for an asynchronously submitted collective and records
// its breakdown under p. err is the Submit error, letting call sites stay
// single-line: tr.CommFuture(p, comm.SubmitX(...)).
func (t *Tracker) CommFuture(p core.Primitive, f *core.Future, err error) error {
	if err != nil {
		return err
	}
	bd, werr := f.Wait()
	if werr != nil {
		return werr
	}
	return t.Comm(p, bd, nil)
}

// CommSequence waits for a fused multi-collective plan's future and
// attributes its measured charge across the sequence's member primitives
// in proportion to their unfused per-run costs (so fusion savings are
// shared pro rata and the per-primitive profile stays comparable to an
// unfused run); the aggregate communication breakdown records the full
// measured charge once. err is the Submit error, as in CommFuture.
func (t *Tracker) CommSequence(f *core.Future, err error) error {
	if err != nil {
		return err
	}
	bd, werr := f.Wait()
	if werr != nil {
		return werr
	}
	cp := f.Plan()
	members, costs := cp.Members(), cp.MemberCosts()
	var total float64
	for _, c := range costs {
		total += float64(c.Total())
	}
	if total <= 0 {
		t.Prof.ByPrimitive[members[0]] += bd.Total()
	} else {
		for i, p := range members {
			t.Prof.ByPrimitive[p] += cost.Seconds(float64(bd.Total()) * float64(costs[i].Total()) / total)
		}
	}
	t.Prof.CommBreakdown = t.Prof.CommBreakdown.Add(bd)
	return nil
}

// Finish ends a successful run and gives its machine back: it closes the
// session (which flushes it and drops its plans), zeroes every bank and
// parks the machine with its staging arena for the next run of its key.
// Call it once, after the run has copied out the results it returns:
// Finish is the run's last use of t.C and of every Stage buffer, which
// another run may be using as soon as it returns. A run that fails skips
// Finish, and its machine and arena are dropped.
func (t *Tracker) Finish() {
	if t.s.Close() != nil {
		return
	}
	par.Do(runtime.GOMAXPROCS(0), len(t.pes), (*bankClear)(t))
	if t.staged > len(t.arena) {
		t.arena = make([]byte, t.staged)
	}
	pool.park(t.key, idleMachine{t.C, t.arena})
}

// bankClear is a Tracker as the par.Runner of Finish: each shard zeroes
// the banks of its PEs, which no other shard writes.
type bankClear Tracker

func (b *bankClear) RunShard(_, lo, hi int) {
	sys := b.C.Engine().System()
	for _, pe := range b.pes[lo:hi] {
		clear(sys.BankBytes(pe))
	}
}

// Dot returns the sum of int64(w[j]) * int64(x[j]) over w's length (x is
// at least as long) in four accumulators. Integer sums wrap, so the order
// does not change the result: the apps' dense kernels and their CPU
// references share it.
func Dot[T int32 | int64](w []int32, x []T) int64 {
	x = x[:len(w)]
	var a0, a1, a2, a3 int64
	j := 0
	for ; j+4 <= len(w); j += 4 {
		w4, x4 := w[j:j+4:j+4], x[j:j+4:j+4]
		a0 += int64(w4[0]) * int64(x4[0])
		a1 += int64(w4[1]) * int64(x4[1])
		a2 += int64(w4[2]) * int64(x4[2])
		a3 += int64(w4[3]) * int64(x4[3])
	}
	for ; j < len(w); j++ {
		a0 += int64(w[j]) * int64(x[j])
	}
	return a0 + a1 + a2 + a3
}

// GeoForPEs returns the DIMM geometry the paper uses for a given PE count
// (§ VIII-E: up to 256 PEs on one channel, then more channels): PE counts
// must be n = channels * ranks * 8 chips * banks with ranks, banks <= the
// paper's 4 and 8.
func GeoForPEs(n, mramPerBank int) (dram.Geometry, error) {
	if n <= 0 || n%8 != 0 {
		return dram.Geometry{}, fmt.Errorf("appcore: PE count %d must be a positive multiple of 8", n)
	}
	g := dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: mramPerBank}
	rem := n / 8 // chips are fixed at 8
	for _, scale := range []struct {
		field *int
		max   int
	}{{&g.BanksPerChip, 8}, {&g.RanksPerChannel, 4}} {
		for *scale.field < scale.max && rem%2 == 0 {
			*scale.field *= 2
			rem /= 2
		}
	}
	g.Channels = rem
	if g.NumPEs() != n {
		return dram.Geometry{}, fmt.Errorf("appcore: cannot realize %d PEs", n)
	}
	return g, nil
}

// CPUModel is the roofline model for the CPU-only baselines of § VIII-G:
// a Xeon Gold 5215-class host. Streaming kernels are bounded by memory
// bandwidth or integer throughput; graph traversal and embedding lookups
// are bounded by memory latency. The latency-bound rates are calibrated
// to paper-scale datasets (LiveJournal, Criteo), where working sets far
// exceed the caches — see the CPUModel fields.
type CPUModel struct {
	// MemBW is achievable memory bandwidth for the streaming integer
	// kernels (bytes/s; naive-but-parallel code, not peak STREAM).
	MemBW float64
	// IntOps is sustained integer op throughput (ops/s, all cores).
	IntOps float64
	// GraphTEPS is traversed edges per second for irregular graph codes
	// (BFS/CC at LiveJournal scale: random accesses miss all caches).
	GraphTEPS float64
	// LookupsPerSec is embedding-row fetch throughput at Criteo scale
	// (TLB + DRAM latency per row).
	LookupsPerSec float64
}

// DefaultCPU returns the calibrated Xeon Gold 5215-class model.
func DefaultCPU() CPUModel {
	return CPUModel{MemBW: 25e9, IntOps: 40e9, GraphTEPS: 15e6, LookupsPerSec: 2.5e6}
}

// Time returns the roofline time for a phase touching the given bytes and
// executing the given scalar-equivalent integer ops: the max of the
// bandwidth and compute terms.
func (m CPUModel) Time(bytes, ops int64) cost.Seconds {
	bw := float64(bytes) / m.MemBW
	cp := float64(ops) / m.IntOps
	if bw > cp {
		return cost.Seconds(bw)
	}
	return cost.Seconds(cp)
}

// GraphTime returns the latency-bound time for traversing the given
// number of edges.
func (m CPUModel) GraphTime(edges int64) cost.Seconds {
	return cost.Seconds(float64(edges) / m.GraphTEPS)
}

// LookupTime returns the latency-bound time for the given number of
// embedding-row fetches.
func (m CPUModel) LookupTime(rows int64) cost.Seconds {
	return cost.Seconds(float64(rows) / m.LookupsPerSec)
}

// idleBudget bounds the MRAM and staging the pool keeps idle across all
// keys, in bytes: app_mix's five machines hold ~25.1 MB of MRAM and ~17.6 MB
// of arenas (12.6 MB of them mlp's weights), ~42.7 MB in all. A machine
// whose MRAM and arena cannot fit even in an empty pool is dropped.
const idleBudget = 64 << 20

// poolKey is what makes two app machines interchangeable: a machine is
// built by core.New from the geometry and shape alone, and its ExecWorkers
// default is GOMAXPROCS at construction.
type poolKey struct {
	geo     dram.Geometry
	shape   string
	workers int
}

// pool holds the idle machines, at most one per key.
var pool = machinePool{idle: make(map[poolKey]idleMachine)}

// idleMachine is what a run borrows and gives back as one unit: the
// machine and the host staging arena its payloads are carved from.
type idleMachine struct {
	c     *core.Comm
	arena []byte
}

// bytes is what m holds idle: its MRAM and its arena.
func (m idleMachine) bytes(k poolKey) int {
	return k.geo.NumPEs()*k.geo.MramPerBank + len(m.arena)
}

type machinePool struct {
	mu    sync.Mutex
	idle  map[poolKey]idleMachine
	bytes int // MRAM and arenas of the idle machines
}

// take removes and returns the idle machine of k, or a zero idleMachine.
func (p *machinePool) take(k poolKey) idleMachine {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.idle[k]
	if ok {
		delete(p.idle, k)
		p.bytes -= m.bytes(k)
	}
	return m
}

// park makes m the idle machine of k unless k already has one. Idle
// machines of other keys are dropped to make room for it if the budget
// requires, so a sweep over many configs keeps reusing its latest ones.
func (p *machinePool) park(k poolKey, m idleMachine) {
	n := m.bytes(k)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.idle[k]; ok || n > idleBudget {
		return
	}
	for o, om := range p.idle {
		if p.bytes+n <= idleBudget {
			break
		}
		p.bytes -= om.bytes(o)
		delete(p.idle, o)
	}
	p.idle[k] = m
	p.bytes += n
}

// CommForPEs starts an app run: it borrows the functional machine of the
// config — the default configuration on the canonical geometry of pes
// PEs, each bank holding the app's MRAM layout of footprint bytes rounded
// up to a whole burst — from the pool, building it if no idle one has the
// same geometry, shape and GOMAXPROCS, and opens a fresh whole-MRAM
// session (at offset 0) on it for the run's collectives, lending the run
// the machine's staging arena with it (Tracker.Stage). The machine reads
// all zero either way. The run ends with Tracker.Finish.
func CommForPEs(shape []int, pes, footprint int) (*Tracker, *core.Tenant, error) {
	mram := (footprint + dram.BurstBytes - 1) / dram.BurstBytes * dram.BurstBytes
	geo, err := GeoForPEs(pes, mram)
	if err != nil {
		return nil, nil, err
	}
	k := poolKey{geo, fmt.Sprint(shape), runtime.GOMAXPROCS(0)}
	m := pool.take(k)
	if m.c == nil {
		if m.c, err = core.New(geo, shape, core.Config{}); err != nil {
			return nil, nil, err
		}
	}
	s, err := m.c.Session()
	if err != nil {
		return nil, nil, err
	}
	all := make([]int, pes)
	for i := range all {
		all[i] = i
	}
	return &Tracker{C: m.c, Prof: Profile{ByPrimitive: make(map[core.Primitive]cost.Seconds)}, s: s, key: k, pes: all, arena: m.arena}, s, nil
}
