package dpu

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/par"
)

// WramBytes is the per-DPU scratchpad size (UPMEM: 64 KiB).
const WramBytes = 64 * 1024

// SaturatingTasklets is the number of hardware threads needed to fill the
// DPU's 14-stage pipeline (UPMEM guidance: >= 11 tasklets for ~1 IPC).
const SaturatingTasklets = 11

// Ctx is a kernel's view of one PE. Kernels access MRAM only through
// ReadMram/WriteMram (modeling the DMA engine) and account compute with
// Exec. Ctx is not safe for concurrent use; each PE gets its own.
//
// Kernel staging comes from the context, not from make: Wram is the fixed
// 64 KiB scratchpad, and Buf/I32/I64 hand out pieces of a per-shard
// scratch arena. An arena buffer is valid until the kernel returns for
// the current PE (the launch loop resets the arena before each PE), its
// contents are undefined — clear it where the kernel relies on zeroes —
// and it models the WRAM streaming state of the real kernel, so no MRAM
// traffic is accounted. The arena's slabs stay with the context, which
// belongs to one shard index of a pooled launch descriptor: once each
// shard has run the largest kernel, a launch allocates nothing, and an
// engine retains at most that single-PE footprint per shard.
type Ctx struct {
	// PE is the linear PE index.
	PE int
	// GroupRank is a kernel argument: the PE's rank within the current
	// communication group (set by the launcher; -1 if not applicable).
	GroupRank int

	mram      []byte
	wram      []byte
	bytes     bump[byte]
	i32s      bump[int32]
	i64s      bump[int64]
	instr     int64
	mramBytes int64
}

// bump is a bump allocator over one slab of T. A take that does not fit
// replaces the slab with one long enough for everything taken since the
// last reset, so the next PE fits without growing; buffers handed out
// earlier keep the old slab, contents intact.
type bump[T any] struct {
	slab []T
	off  int
}

func (b *bump[T]) take(n int) []T {
	end := b.off + n
	if end > len(b.slab) {
		b.slab = make([]T, end)
	}
	s := b.slab[b.off:end:end]
	b.off = end
	return s
}

// Wram returns the PE's scratchpad. Contents are undefined at kernel entry.
func (c *Ctx) Wram() []byte { return c.wram }

// Buf returns an n-byte buffer from the scratch arena (see Ctx).
func (c *Ctx) Buf(n int) []byte { return c.bytes.take(n) }

// I32 returns an n-element int32 buffer from the scratch arena (see Ctx).
func (c *Ctx) I32(n int) []int32 { return c.i32s.take(n) }

// I64 returns an n-element int64 buffer from the scratch arena (see Ctx).
func (c *Ctx) I64(n int) []int64 { return c.i64s.take(n) }

// ReadMram copies len(dst) bytes from MRAM offset off into dst (a WRAM
// buffer in the hardware model) and accounts the DMA traffic.
func (c *Ctx) ReadMram(off int, dst []byte) {
	if off < 0 || off+len(dst) > len(c.mram) {
		panic(fmt.Sprintf("dpu: PE %d MRAM read [%d,%d) out of range %d", c.PE, off, off+len(dst), len(c.mram)))
	}
	copy(dst, c.mram[off:])
	c.mramBytes += int64(len(dst))
}

// WriteMram copies src to MRAM offset off and accounts the DMA traffic.
func (c *Ctx) WriteMram(off int, src []byte) {
	if off < 0 || off+len(src) > len(c.mram) {
		panic(fmt.Sprintf("dpu: PE %d MRAM write [%d,%d) out of range %d", c.PE, off, off+len(src), len(c.mram)))
	}
	copy(c.mram[off:], src)
	c.mramBytes += int64(len(src))
}

// MramSize returns the PE's MRAM capacity.
func (c *Ctx) MramSize() int { return len(c.mram) }

// Exec accounts n retired DPU instructions.
func (c *Ctx) Exec(n int64) {
	if n < 0 {
		panic("dpu: negative instruction count")
	}
	c.instr += n
}

// Stats returns the accounted instruction count and MRAM traffic.
func (c *Ctx) Stats() (instr, mramBytes int64) { return c.instr, c.mramBytes }

// Kernel is a function executed on one PE.
type Kernel func(*Ctx)

// Engine launches kernels on the PEs of a dram.System.
type Engine struct {
	sys    *dram.System
	params cost.Params

	mu       sync.Mutex
	launches []*launchState // reusable launch descriptors
}

// NewEngine returns an engine for the given system and cost parameters.
func NewEngine(sys *dram.System, params cost.Params) *Engine {
	return &Engine{sys: sys, params: params}
}

// System returns the underlying memory system.
func (e *Engine) System() *dram.System { return e.sys }

// Params returns the engine's cost parameters.
func (e *Engine) Params() cost.Params { return e.params }

// LaunchSpec configures a kernel launch.
type LaunchSpec struct {
	// PEs are the linear PE indices to run on.
	PEs []int
	// GroupRanks optionally assigns Ctx.GroupRank per PE (same length as
	// PEs); if nil, GroupRank is -1.
	GroupRanks []int
	// Tasklets is the number of tasklets the kernel spawns per DPU
	// (defaults to SaturatingTasklets if zero).
	Tasklets int
	// Category is the meter category for PE execution time (PEMod for
	// reorder kernels, Kernel for application compute).
	Category cost.Category
	// Workers is the number of simulator worker shards the per-PE loop
	// is split across (defaults to GOMAXPROCS if zero; 1 runs the whole
	// launch inline on the caller). Purely a simulator-throughput knob:
	// results, accounting and the charged time are byte-identical at any
	// worker count.
	Workers int
}

// launchState is one in-flight Launch: the par.Runner that executes a
// shard of the PE list on the shard's context and records the shard's
// maximum per-PE time. Recycled via the engine so steady-state launches
// allocate nothing.
type launchState struct {
	e     *Engine
	pes   []int
	ranks []int
	ipc   float64
	k     Kernel
	maxs  []cost.Seconds // per-shard maximum per-PE time
	// ctxs[k] is shard k's context (WRAM + scratch arena), made the first
	// time shard k runs. Every shard runs in every launch, whichever
	// goroutine claims it, so the contexts an engine holds, and the slabs
	// each grows, do not depend on how many pool helpers were free.
	ctxs []*Ctx
}

// RunShard executes PEs [lo, hi) of the launch on the shard's context.
func (ls *launchState) RunShard(shard, lo, hi int) {
	ctx := ls.ctxs[shard]
	if ctx == nil {
		ctx = &Ctx{wram: make([]byte, WramBytes)}
		ls.ctxs[shard] = ctx
	}
	var localMax cost.Seconds
	for i := lo; i < hi; i++ {
		pe := ls.pes[i]
		ctx.PE = pe
		ctx.GroupRank = -1
		if ls.ranks != nil {
			ctx.GroupRank = ls.ranks[i]
		}
		ctx.mram = ls.e.sys.BankBytes(pe)
		ctx.instr, ctx.mramBytes = 0, 0
		ctx.bytes.off, ctx.i32s.off, ctx.i64s.off = 0, 0, 0
		ls.k(ctx)
		if t := ls.e.peTime(ctx.instr, ctx.mramBytes, ls.ipc); t > localMax {
			localMax = t
		}
	}
	ls.maxs[shard] = localMax
}

func (e *Engine) getLaunch(workers int) *launchState {
	e.mu.Lock()
	var ls *launchState
	if n := len(e.launches); n > 0 {
		ls = e.launches[n-1]
		e.launches = e.launches[:n-1]
	} else {
		ls = &launchState{e: e}
	}
	e.mu.Unlock()
	if cap(ls.maxs) < workers {
		ls.maxs = make([]cost.Seconds, workers)
	}
	if len(ls.ctxs) < workers {
		ls.ctxs = append(ls.ctxs, make([]*Ctx, workers-len(ls.ctxs))...)
	}
	ls.maxs = ls.maxs[:workers]
	for i := range ls.maxs {
		ls.maxs[i] = 0
	}
	return ls
}

func (e *Engine) putLaunch(ls *launchState) {
	ls.pes, ls.ranks, ls.k = nil, nil, nil
	e.mu.Lock()
	e.launches = append(e.launches, ls)
	e.mu.Unlock()
}

// Launch runs the kernel on every PE in spec (sharded across spec.Workers
// pool workers), then charges meter with the modeled elapsed time: the
// maximum per-PE time across PEs (hardware PEs run in parallel) in
// spec.Category, plus the kernel-launch overhead in Other.
//
// Per-PE modeled time is max(instruction time, MRAM DMA time): with enough
// tasklets the DPU overlaps DMA of some tasklets with compute of others;
// with few tasklets the pipeline stalls, modeled by scaling instruction
// throughput by Tasklets/SaturatingTasklets.
//
// Launch is deterministic at any worker count: each PE's accounted work
// depends only on the kernel and that PE's MRAM, shard-local maxima are
// folded in shard order, and float max is exact — so the charged time is
// bit-identical to a serial launch. Meter additions happen only on the
// calling goroutine, after every shard has finished.
//
// Launch is safe to call concurrently from multiple goroutines on one
// engine (the Comm's collectives and application kernels share it): the
// context and launch-descriptor pools are lock-protected and cost.Meter
// is internally synchronized. Callers remain responsible for keeping
// concurrent kernels' MRAM accesses disjoint, as on real hardware.
//
// A kernel panic on any shard reaches Launch's caller (par.Do re-raises
// it there); the meter is not charged for that launch.
func (e *Engine) Launch(spec LaunchSpec, meter *cost.Meter, k Kernel) {
	if len(spec.PEs) == 0 {
		return
	}
	if spec.GroupRanks != nil && len(spec.GroupRanks) != len(spec.PEs) {
		panic("dpu: GroupRanks length mismatch")
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ls := e.getLaunch(workers)
	ls.pes, ls.ranks, ls.ipc, ls.k = spec.PEs, spec.GroupRanks, spec.ipc(), k
	par.Do(workers, len(spec.PEs), ls)
	var maxT cost.Seconds
	for _, t := range ls.maxs {
		if t > maxT {
			maxT = t
		}
	}
	e.putLaunch(ls)
	e.book(spec, meter, maxT)
}

func (s LaunchSpec) ipc() float64 {
	tasklets := s.Tasklets
	if tasklets <= 0 {
		tasklets = SaturatingTasklets
	}
	ipc := float64(tasklets) / SaturatingTasklets
	if ipc > 1 {
		ipc = 1
	}
	return ipc
}

// peTime converts one PE's accounted work to its modeled elapsed time:
// max(instruction time, MRAM DMA time), the overlap model documented on
// Launch. Shared by Launch, LaunchCharges and LaunchChargesUniform so
// all compute identical floating-point results.
func (e *Engine) peTime(instr, mramBytes int64, ipc float64) cost.Seconds {
	instrT := cost.Seconds(float64(instr) / (e.params.DPUInstrHz * ipc))
	dmaT := cost.Seconds(float64(mramBytes) / e.params.DPUMramBW)
	if dmaT > instrT {
		return dmaT
	}
	return instrT
}

// LaunchCharges charges the meter for a launch whose per-PE work is known
// analytically, without running a kernel or touching MRAM. account
// returns the instruction count and MRAM DMA traffic a Launch-executed
// kernel would have reported for the PE; the time arithmetic is shared
// with Launch, so a cost-only execution reproduces the functional meter
// bit-for-bit. This is the DPU-side seam of the cost-only backend.
func (e *Engine) LaunchCharges(spec LaunchSpec, meter *cost.Meter, account func(pe, groupRank int) (instr, mramBytes int64)) {
	if len(spec.PEs) == 0 {
		return
	}
	if spec.GroupRanks != nil && len(spec.GroupRanks) != len(spec.PEs) {
		panic("dpu: GroupRanks length mismatch")
	}
	ipc := spec.ipc()
	var maxT cost.Seconds
	for i, pe := range spec.PEs {
		rank := -1
		if spec.GroupRanks != nil {
			rank = spec.GroupRanks[i]
		}
		instr, mramBytes := account(pe, rank)
		if t := e.peTime(instr, mramBytes, ipc); t > maxT {
			maxT = t
		}
	}
	e.book(spec, meter, maxT)
}

// LaunchChargesUniform is LaunchCharges for a launch in which every PE
// of spec does the same work, instr instructions and mramBytes of MRAM
// DMA (zero for a launch in which every PE exits at once): the charge is
// that one PE's time, whatever the PE count, and bit-identical to
// LaunchCharges with a constant account. GroupRanks are not read.
func (e *Engine) LaunchChargesUniform(spec LaunchSpec, meter *cost.Meter, instr, mramBytes int64) {
	if len(spec.PEs) == 0 {
		return
	}
	e.book(spec, meter, e.peTime(instr, mramBytes, spec.ipc()))
}

// book charges a launch whose slowest PE took maxT: maxT in
// spec.Category, then the launch overhead in Other. Every launch form
// ends here.
func (e *Engine) book(spec LaunchSpec, meter *cost.Meter, maxT cost.Seconds) {
	meter.Add(spec.Category, maxT)
	meter.Add(cost.Other, e.params.KernelLaunch)
}
