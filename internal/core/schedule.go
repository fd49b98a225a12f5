package core

import (
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
)

// This file defines the schedule IR every collective lowers to, plus the
// per-primitive lowering rules. A Schedule is an ordered list of typed
// steps; internal/core/exec.go holds the single executor that runs a
// schedule against a pluggable Backend (functional or cost-only).
//
// Design contract: a step carries BOTH the declarative description the
// cost-only backend needs (byte counts, column-transfer counts, charge
// lists) AND the functional work that moves real bytes. The executor
// applies the declarative charges for every backend, so the two backends
// charge identical amounts by construction; only bus-burst tallies and
// DPU-kernel accounting are computed twice (real vs. analytic), and the
// cross-backend equivalence test in exec_test.go pins them equal.
//
// Functional work comes in two parallel-safe shapes. Staged steps
// (StepBulk) carry a Modulate closure that transforms one communication
// group's staged bytes; the executor stages the groups one at a time,
// sharded across the worker pool (Comm.stage) — groups partition the
// PEs, so per-group writes are disjoint. Streaming steps
// (StepColumnStream) carry a list of streamSegs: each seg is a
// column-indexed loop whose iterations are mutually write-disjoint,
// which is what lets the executor shard a seg across the worker pool
// (internal/par) with byte-identical results at any worker count. Segs within one step execute in order with a barrier
// between them, preserving read-after-write dependencies across fused
// collective boundaries.

// Charge is one host charge of a step: Bytes of host work of one kind,
// priced by host.Host.Price.
type Charge struct {
	Kind  host.Work
	Bytes int64
}

// Step is one typed operation of a lowered collective.
type Step interface{ stepName() string }

// StepRotateBlocks runs the PE-assisted reordering kernel (§ V-A1):
// every PE's region [Off, Off+N*S) is treated as N blocks of S bytes and
// left-rotated by Mul times the PE's group rank (rotation). A lowering
// pre-rotates a source with Mul 1 and undoes it on a destination with
// Mul -1; fusion composes two rotations of one region by adding their
// multipliers. The functional backend launches the executing comm's one
// kernel (Comm.rotate) on the step; the cost-only backend reproduces its
// MRAM/instruction accounting analytically.
type StepRotateBlocks struct {
	p    *plan
	Off  int
	N, S int
	Mul  int
}

func (*StepRotateBlocks) stepName() string { return "RotateBlocks" }

// rotation returns the blocks rank's region rotates left by: Mul·rank
// mod N, in [0, N).
func (st *StepRotateBlocks) rotation(rank int) int {
	r := st.Mul * rank % st.N
	if r < 0 {
		r += st.N
	}
	return r
}

// StepBulk is one conventional host-memory phase (Figure 3a): an
// optional staged BulkRead, host-side modulation, an optional BulkWrite.
// Read and Write book the two transfers over the whole machine, as
// host.Host.ChargeBulkRead and ChargeBulkWrite price them, on either
// backend. The functional backend then moves the bytes one communication
// group of p at a time (Comm.stage): it reads group g's members'
// ReadPerPE bytes at ReadOff, runs Modulate, and writes the members'
// WritePerPE bytes to WriteOff. Rooted primitives that keep results on
// the host set Write false and let Modulate store them.
type StepBulk struct {
	p *plan

	Read      bool
	ReadOff   int
	ReadPerPE int

	Write      bool
	WriteOff   int
	WritePerPE int

	// Charges are the modulation/reduction/staging charges applied
	// between the read and the write (order within the step does not
	// affect the per-category breakdown).
	Charges []Charge

	// Modulate turns group g's staged bytes in — ReadPerPE per member, in
	// rank order — into out, WritePerPE per member in rank order, which
	// it must fully overwrite, on the comm c that executes the step. Only
	// the functional backend calls it, once per group, on scratch the comm
	// reuses. Every member of g is read before any is written, so a step
	// may write the region it reads (the in-place AlltoAll). ReadPerPE
	// and WritePerPE size what moves whether or not Read and Write book
	// it: the closing step of a staged AllReduce shape rereads the source
	// its opening step booked. nil moves nothing: the step only books.
	Modulate func(c *Comm, g int, in, out []byte)
}

func (*StepBulk) stepName() string { return "Bulk" }

// streamSeg is one shardable loop of a streaming epoch: cols independent
// column iterations, each touching every entangled group once per
// read/write. The functional executor runs body over contiguous
// sub-ranges on the executing comm's per-shard streaming contexts
// (segRunner); iterations MUST be mutually write-disjoint — the lowerings
// guarantee it by construction (distinct iterations address distinct MRAM
// bursts or distinct host result lanes).
type streamSeg struct {
	cols int
	body func(sc *streamCtx, lo, hi int)
}

// StepColumnStream is one streaming transfer epoch of the optimized
// engine: burst columns move between host registers and every entangled
// group, with in-register shifts and reductions. Reads and Writes
// count column transfers (each touches every entangled group once — one
// burst per group), which is all the cost-only backend needs to reproduce
// the bus accounting. segs perform the real data movement and are
// executed by the functional backend only, inside the epoch, in order,
// each sharded across the worker pool.
type StepColumnStream struct {
	Reads, Writes int64
	Charges       []Charge
	segs          []*streamSeg
}

func (*StepColumnStream) stepName() string { return "ColumnStream" }

// StepHostCompute is host-only work with no PE traffic, charged and not
// run: storing rooted buffers, driver-side domain transfers of broadcast
// payloads, the wire rounds of a staged shape. It applies Charges Rounds
// times, round by round, as that many one-round steps would (0: a no-op):
// each charge priced once, all Rounds of them added under one meter lock.
type StepHostCompute struct {
	Rounds  int
	Charges []Charge
}

func (*StepHostCompute) stepName() string { return "HostCompute" }

// StepNetTransfer is one inter-host network leg of a hierarchical
// cluster collective (§ IX-A): Rounds overlapped exchange rounds of
// Bytes payload each, priced by the parameterized network model
// (cost.NetParams via host.ChargeNetRounds) and placed on the network
// lane of the per-host timeline. Executing it only charges: the bytes
// cross between hosts in the cluster's staging, which the steps before
// the wire fill and the steps after it read, and a functional cluster
// runs every host's steps up to and through its wire before any host
// runs on (ClusterPlan.Run). The whole leg is one step, so a
// hierarchical collective's schedule stays a single plan that compiles,
// caches, fuses and replays like any other.
type StepNetTransfer struct {
	// Rounds is the number of overlapped exchange rounds; Bytes is the
	// per-round payload every host moves. Rounds 0 is a no-op (elided by
	// fusion) unless the step is the wire.
	Rounds int
	Bytes  int64
	// wire marks the plan's wire, its one phase boundary.
	wire bool
}

func (*StepNetTransfer) stepName() string { return "NetTransfer" }

// StepSync charges the fixed host synchronization/launch overhead that
// ends every collective.
type StepSync struct{}

func (*StepSync) stepName() string { return "Sync" }

// Schedule is the IR of one collective call.
type Schedule struct {
	Name  string
	Steps []Step
}

// newSchedule returns an empty schedule with its step list sized once:
// steps[k] holds for level Baseline+k, the last one for all above.
func newSchedule(name string, lvl Level, steps ...int) Schedule {
	return Schedule{Name: name, Steps: make([]Step, 0, steps[min(int(lvl-Baseline), len(steps)-1)])}
}

func (s *Schedule) add(st Step) { s.Steps = append(s.Steps, st) }

// numPEBytes is the total byte count of a perPE-sized region over every
// PE the group plan covers (the whole machine) — the size of a full
// staging buffer.
func (p *plan) numPEBytes(perPE int) int64 {
	return int64(len(p.rankOf)) * int64(perPE)
}

// columnBytes is the data volume of one column, one burst per entangled
// group, for charge computations.
func (p *plan) columnBytes() int64 {
	return int64(len(p.rankOf)/dram.ChipsPerRank) * dram.BurstBytes
}

// ---------------------------------------------------------------------
// AlltoAll (Figure 7)
// ---------------------------------------------------------------------

// The lowerX producers are the AlgoReference rows of the lowering table
// (algorithm.go). Each reads the resolved call — group plan,
// arena-relative offsets, block size, element/op, concrete effective
// level — from its algoEnv, and nothing else: the schedule is a pure
// function of them. Everything else is read when the schedule runs, off
// the comm each step runs on and its running plan (Comm.cur): the
// functional backend adds its arena base, Scatter and Broadcast read its
// host payloads, and the rooted ones fill its result buffers.

func lowerAlltoAll(env algoEnv) Schedule {
	p, srcOff, dstOff, s, lvl := env.p, env.srcOff, env.dstOff, env.s, env.lvl
	n := p.n
	m := n * s
	sched := newSchedule("AlltoAll/"+lvl.String(), lvl, 2, 4)
	switch lvl {
	case Baseline, PR:
		pr := lvl == PR
		kind := stagedFront(&sched, p, lvl, srcOff, s, host.ScalarMod, host.LocalMod)
		sched.add(&StepBulk{p: p,
			Read: true, ReadOff: srcOff, ReadPerPE: m,
			Write: true, WriteOff: dstOff, WritePerPE: m,
			Charges: []Charge{{kind, p.numPEBytes(m)}},
			Modulate: func(_ *Comm, _ int, in, out []byte) {
				for i := range n {
					for k := range n {
						// Direct semantics: dst[j] block i = src[i] block
						// j, for j = k. At PR the data is pre-rotated —
						// slot k of rank i holds block (i+k)%n — and the
						// host applies the local phase-B movement: slot k
						// of rank i goes to slot (n-k)%n of rank (i+k)%n.
						j, w := k, i
						if pr {
							j, w = (i+k)%n, (n-k)%n
						}
						copy(out[j*m+w*s:j*m+w*s+s], in[i*m+k*s:i*m+k*s+s])
					}
				}
			},
		})
		if pr {
			sched.add(&StepRotateBlocks{p: p, Off: dstOff, N: n, S: s, Mul: -1})
		}
	default: // IM or CM
		cm := lvl == CM
		ecols := s / 8
		cols := int64(n) * int64(ecols)
		colB := p.columnBytes()
		charges := []Charge{{host.SIMD, cols * colB}}
		if !cm {
			// Without cross-domain modulation every shift is transpose +
			// word shift + transpose; the transposes are the in-register
			// form of DT.
			charges = append(charges, Charge{host.DT, 2 * cols * colB})
		}
		sched.add(&StepRotateBlocks{p: p, Off: srcOff, N: n, S: s, Mul: 1})
		sched.add(&StepColumnStream{
			Reads: cols, Writes: cols,
			Charges: charges,
			// Flattened (k, e) loop: every iteration reads burst column
			// k*s+e and writes column ((n-k)%n)*s+e — distinct columns for
			// distinct iterations, so the whole loop shards freely. A
			// shard's range moves as one shifted run per slot k it spans.
			segs: []*streamSeg{{cols: n * ecols, body: func(sc *streamCtx, lo, hi int) {
				for i := lo; i < hi; {
					k, e := i/ecols, i%ecols*8
					cols := min(hi-i, ecols-e/8)
					sc.tally(2 * cols)
					sc.shift(p, k, dstOff+(n-k)%n*s+e, srcOff+k*s+e, cols*8)
					i += cols
				}
			}}},
		})
		sched.add(&StepRotateBlocks{p: p, Off: dstOff, N: n, S: s, Mul: -1})
	}
	sched.add(&StepSync{})
	return sched
}

// ---------------------------------------------------------------------
// The reduce half (Figure 8(b)(c), § V-B2-B4)
// ---------------------------------------------------------------------

// ReduceScatter, Reduce and AllReduce run one reduction and differ only
// in where its result goes: back to the rank that owns each block, to
// the host, or to every rank. Their staged (Baseline, PR) passes open
// with stagedFront; Reduce and AllReduce fold a group's payloads with
// foldGroup. Their IM epochs fold runs of element columns with
// streamCtx.fold, priced per column by foldCharges.

// stagedFront opens a staged pass over the n blocks of s bytes every PE
// holds at srcOff, and returns the charge kind of that pass: at PR the
// PEs first pre-rotate their blocks left by their rank (§ V-A1), so the
// host pass is local work rather than scalar.
func stagedFront(sched *Schedule, p *plan, lvl Level, srcOff, s int, scalar, local host.Work) host.Work {
	if lvl != PR {
		return scalar
	}
	sched.add(&StepRotateBlocks{p: p, Off: srcOff, N: p.n, S: s, Mul: 1})
	return local
}

// foldGroup reduces the m-byte payloads a group's members staged in in,
// in rank order, into the first m bytes of red, and repeats the result
// over the rest of red (AllReduce's replication; Reduce's red holds one).
// At PR (pr) rank i pre-rotated its blocks of s bytes left by i, so the
// fold puts its slot k back at block (k+i) mod n.
func foldGroup(t elem.Type, op elem.Op, red, in []byte, m, s int, pr bool) {
	n := len(in) / m
	red, rest := red[:m], red[m:]
	elem.Fill(t, red, op.Identity(t))
	for i := range n {
		src := in[i*m : (i+1)*m]
		if !pr {
			elem.ReduceInto(t, op, red, src)
			continue
		}
		for k := 0; k < n; k++ {
			blk := (k + i) % n
			elem.ReduceInto(t, op, red[blk*s:blk*s+s], src[k*s:k*s+s])
		}
	}
	replicate(rest, red)
}

// replicate fills dst with repeated copies of blk, len(dst) a multiple
// of len(blk).
func replicate(dst, blk []byte) {
	for o := 0; o < len(dst); o += len(blk) {
		copy(dst[o:o+len(blk)], blk)
	}
}

// foldCharges prices an IM fold of iters element columns per slot:
// simd, n and dt columns of SIMD modulation, reduction and domain
// transfer per element column, in that order. I8 skips the domain
// transfer: the host can interpret 8-bit data in the PIM domain. The
// slice has room for one more charge.
func (p *plan) foldCharges(t elem.Type, iters, simd, dt int64) []Charge {
	colB := p.columnBytes()
	charges := append(make([]Charge, 0, 4),
		Charge{host.SIMD, simd * iters * colB},
		Charge{host.Reduce, int64(p.n) * iters * colB})
	if t != elem.I8 {
		charges = append(charges, Charge{host.DT, dt * iters * colB})
	}
	return charges
}

func lowerReduceScatter(env algoEnv) Schedule {
	p, srcOff, dstOff, s, t, op, lvl := env.p, env.srcOff, env.dstOff, env.s, env.elemType, env.op, env.lvl
	n := p.n
	sched := newSchedule("ReduceScatter/"+lvl.String(), lvl, 2, 3)
	switch lvl {
	case Baseline, PR:
		kind := stagedFront(&sched, p, lvl, srcOff, s, host.ScalarReduce, host.LocalReduce)
		sched.add(reduceScatterBulk(&env, kind))
	default: // IM
		iters := int64(s / 8)
		sched.add(&StepRotateBlocks{p: p, Off: srcOff, N: n, S: s, Mul: 1})
		sched.add(&StepColumnStream{
			Reads: int64(n) * iters, Writes: iters,
			Charges: p.foldCharges(t, iters, int64(n), int64(n+1)),
			// Per element column e: fold the n slot bursts, write one
			// burst. Iterations touch distinct columns — shardable.
			segs: []*streamSeg{{cols: s / 8, body: func(sc *streamCtx, lo, hi int) {
				sc.fold(p, t, op, srcOff, s, lo, hi, n+1, func(e, b int, acc []byte) { sc.store(dstOff+e, acc, b) })
			}}},
		})
	}
	sched.add(&StepSync{})
	return sched
}

// reduceScatterBulk is the staged ReduceScatter pass, charged as kind
// work: each group reduces block p of its members' n blocks at srcOff
// into rank p's dstOff. At PR rank i pre-rotated its blocks left by i,
// so block p sits at its slot (p-i) mod n.
func reduceScatterBulk(env *algoEnv, kind host.Work) *StepBulk {
	p, s, t, op, pr := env.p, env.s, env.elemType, env.op, env.lvl == PR
	n, m := p.n, p.n*s
	return &StepBulk{p: p,
		Read: true, ReadOff: env.srcOff, ReadPerPE: m,
		Write: true, WriteOff: env.dstOff, WritePerPE: s,
		Charges: []Charge{{kind, p.numPEBytes(m)}},
		Modulate: func(_ *Comm, _ int, in, out []byte) {
			for r := range n {
				blk := out[r*s : (r+1)*s]
				elem.Fill(t, blk, op.Identity(t))
				for i := range n {
					slot := r
					if pr {
						slot = ((r-i)%n + n) % n
					}
					elem.ReduceInto(t, op, blk, in[i*m+slot*s:i*m+slot*s+s])
				}
			}
		},
	}
}

// lowerReduce lowers the rooted Reduce. The per-group host results land
// in the running plan's host buffers (Comm.cur.hosts from the env's
// index), which the functional backend fills and the cost-only backend
// never touches.
func lowerReduce(env algoEnv) Schedule {
	p, at, srcOff, s, t, op, lvl := env.p, env.hosts, env.srcOff, env.s, env.elemType, env.op, env.lvl
	n := p.n
	m := n * s
	store := Charge{host.HostMem, int64(len(p.groups)) * int64(m)} // result store
	sched := newSchedule("Reduce/"+lvl.String(), lvl, 2, 3)
	switch lvl {
	case Baseline, PR:
		pr := lvl == PR
		kind := stagedFront(&sched, p, lvl, srcOff, s, host.ScalarReduce, host.LocalReduce)
		sched.add(&StepBulk{p: p,
			Read: true, ReadOff: srcOff, ReadPerPE: m,
			Charges: []Charge{{kind, p.numPEBytes(m)}, store},
			Modulate: func(c *Comm, g int, in, _ []byte) {
				foldGroup(t, op, c.cur.hosts[at+g], in, m, s, pr)
			},
		})
	default: // IM
		iters := int64(s / 8)
		sched.add(&StepRotateBlocks{p: p, Off: srcOff, N: n, S: s, Mul: 1})
		sched.add(&StepColumnStream{
			Reads:   int64(n) * iters,
			Charges: append(p.foldCharges(t, iters, int64(n), int64(n)), store),
			segs: []*streamSeg{{cols: s / 8, body: func(sc *streamCtx, lo, hi int) {
				res := sc.c.cur.hosts[at:]
				sc.fold(p, t, op, srcOff, s, lo, hi, n, func(e, b int, acc []byte) {
					for g, grp := range p.groups {
						for j, pe := range grp {
							copy(res[g][j*s+e:], acc[pe*b:pe*b+b])
						}
					}
				})
			}}},
		})
	}
	sched.add(&StepSync{})
	return sched
}

func lowerAllReduce(env algoEnv) Schedule {
	p, srcOff, dstOff, s, t, op, lvl := env.p, env.srcOff, env.dstOff, env.s, env.elemType, env.op, env.lvl
	n := p.n
	m := n * s
	sched := newSchedule("AllReduce/"+lvl.String(), lvl, 2, 3, 4)
	switch lvl {
	case Baseline, PR:
		pr := lvl == PR
		kind := stagedFront(&sched, p, lvl, srcOff, s, host.ScalarReduce, host.LocalReduce)
		sched.add(&StepBulk{p: p,
			Read: true, ReadOff: srcOff, ReadPerPE: m,
			Write: true, WriteOff: dstOff, WritePerPE: m,
			// Reduction pass over all input plus a memcpy-class
			// replication pass over all output.
			Charges: []Charge{
				{kind, p.numPEBytes(m)},
				{host.SIMD, p.numPEBytes(m)},
			},
			Modulate: func(_ *Comm, _ int, in, out []byte) { foldGroup(t, op, out, in, m, s, pr) },
		})
	default: // IM
		// Fused streaming ReduceScatter + AllGather: per element column,
		// fold the n slot bursts, domain-transfer back once (charged),
		// write it n times with incremental shifts; the PEs then fix block
		// order locally. Host memory is never touched.
		iters := int64(s / 8)
		sched.add(&StepRotateBlocks{p: p, Off: srcOff, N: n, S: s, Mul: 1})
		sched.add(&StepColumnStream{
			Reads: int64(n) * iters, Writes: int64(n) * iters,
			Charges: p.foldCharges(t, iters, 2*int64(n), int64(n+1)),
			segs: []*streamSeg{{cols: s / 8, body: func(sc *streamCtx, lo, hi int) {
				sc.fold(p, t, op, srcOff, s, lo, hi, 2*n, func(e, b int, acc []byte) {
					// The n outbound writes' shifts are pure
					// redistribution of the folded run: shift 0 lands
					// in slot 0, and shift k copies slot 0 on to slot
					// n-k of the rank k further.
					sc.store(dstOff+e, acc, b)
					for k := 1; k < n; k++ {
						sc.shift(p, k, dstOff+(n-k)*s+e, dstOff+e, b)
					}
				})
			}}},
		})
		sched.add(&StepRotateBlocks{p: p, Off: dstOff, N: n, S: s, Mul: -1})
	}
	sched.add(&StepSync{})
	return sched
}

// ---------------------------------------------------------------------
// AllGather and Gather (Figure 8(a), § V-B1/B4)
// ---------------------------------------------------------------------

func lowerAllGather(env algoEnv) Schedule {
	p, srcOff, dstOff, s, lvl := env.p, env.srcOff, env.dstOff, env.s, env.lvl
	n := p.n
	perPE := n * s
	sched := newSchedule("AllGather/"+lvl.String(), lvl, 4, 4, 3) // a one-group broadcast takes 4
	colB := p.columnBytes()
	switch lvl {
	case Baseline, PR:
		// Conventional path; PE-assisted reordering only removes
		// per-rank layout bookkeeping here, which is negligible, so
		// Baseline and PR share the lowering.
		if len(p.groups) > 1 {
			sched.add(allGatherBulk(p, srcOff, dstOff, s))
			break
		}
		// Single group: the gathered buffer is identical for every PE,
		// so the driver's fast broadcast applies — one domain transfer
		// total (§ VIII-E). The read hands the group's staged blocks, the
		// image, on to the broadcast (Comm.image).
		sched.add(&StepBulk{p: p,
			Read: true, ReadOff: srcOff, ReadPerPE: s,
			Charges:  []Charge{{host.LocalMod, int64(perPE)}},
			Modulate: func(c *Comm, _ int, in, _ []byte) { c.image = append(c.image[:0], in...) },
		})
		sched.add(&StepHostCompute{Rounds: 1,
			Charges: []Charge{
				{host.DT, int64(perPE)}, // DT once, reused for all PEs
				{host.HostMem, int64(perPE)},
			},
		})
		sched.add(&StepColumnStream{
			Writes:  int64(perPE / 8),
			Charges: []Charge{{host.SIMD, int64(perPE/8) * colB}},
			segs: []*streamSeg{p.streamBroadcast(dstOff, perPE, func(c *Comm, _, e int) []byte {
				return c.image[e:]
			})},
		})
	default: // IM or CM
		cm := lvl == CM
		iters := int64(s / 8)
		charges := []Charge{{host.SIMD, int64(n) * iters * colB}}
		if !cm {
			// One inbound transpose per read, one outbound per write.
			charges = append(charges, Charge{host.DT, int64(n+1) * iters * colB})
		}
		sched.add(&StepColumnStream{
			Reads: iters, Writes: int64(n) * iters,
			Charges: charges,
			segs: []*streamSeg{{cols: s / 8, body: func(sc *streamCtx, lo, hi int) {
				e, b := lo*8, (hi-lo)*8
				sc.tally((n + 1) * (hi - lo))
				for k := 0; k < n; k++ {
					sc.shift(p, k, dstOff+(n-k)%n*s+e, srcOff+e, b)
				}
			}}},
		})
		sched.add(&StepRotateBlocks{p: p, Off: dstOff, N: n, S: s, Mul: -1})
	}
	sched.add(&StepSync{})
	return sched
}

// allGatherBulk is the staged AllGather pass: every PE's s bytes at
// srcOff are read, and each group's blocks, in rank order, are written
// to every member's dstOff. Replication is sequential copying (memcpy
// class).
func allGatherBulk(p *plan, srcOff, dstOff, s int) *StepBulk {
	m := p.n * s
	return &StepBulk{p: p,
		Read: true, ReadOff: srcOff, ReadPerPE: s,
		Write: true, WriteOff: dstOff, WritePerPE: m,
		Charges:  []Charge{{host.SIMD, p.numPEBytes(m)}},
		Modulate: func(_ *Comm, _ int, in, out []byte) { replicate(out, in) },
	}
}

func lowerGather(env algoEnv) Schedule {
	p, at, srcOff, s, lvl := env.p, env.hosts, env.srcOff, env.s, env.lvl
	n := p.n
	sched := newSchedule("Gather/"+lvl.String(), lvl, 2)
	if lvl == Baseline {
		sched.add(&StepBulk{p: p,
			Read: true, ReadOff: srcOff, ReadPerPE: s,
			Charges:  []Charge{{host.HostMem, p.numPEBytes(s)}}, // copy out of staging
			Modulate: func(c *Comm, g int, in, _ []byte) { copy(c.cur.hosts[at+g], in) },
		})
	} else { // IM: stream straight into the user buffers
		iters := int64(s / 8)
		colB := p.columnBytes()
		sched.add(&StepColumnStream{
			Reads: iters,
			Charges: []Charge{
				{host.DT, iters * colB},
				{host.HostMem, int64(len(p.groups)) * int64(n*s)},
			},
			segs: []*streamSeg{{cols: s / 8, body: func(sc *streamCtx, lo, hi int) {
				res, e, b := sc.c.cur.hosts[at:], lo*8, (hi-lo)*8
				sc.tally(hi - lo)
				for g, grp := range p.groups {
					for j, pe := range grp {
						copy(res[g][j*s+e:], sc.bank(pe, srcOff+e, b))
					}
				}
			}}},
		})
	}
	sched.add(&StepSync{})
	return sched
}

// ---------------------------------------------------------------------
// Scatter and Broadcast (§ V-B4, § VIII-B)
// ---------------------------------------------------------------------

func lowerScatter(env algoEnv) Schedule {
	p, at, dstOff, s, lvl := env.p, env.hosts, env.dstOff, env.s, env.lvl
	n := p.n
	sched := newSchedule("Scatter/"+lvl.String(), lvl, 2)
	if lvl == Baseline {
		// Conventional: assemble a PE-major staging buffer, then bulk
		// write with DT.
		sched.add(&StepBulk{p: p,
			Write: true, WriteOff: dstOff, WritePerPE: s,
			Charges:  []Charge{{host.HostMem, p.numPEBytes(s)}}, // staging assembly
			Modulate: func(c *Comm, g int, _, out []byte) { copy(out, c.cur.hosts[at+g]) },
		})
	} else { // IM: stream user buffers straight into bursts
		iters := int64(s / 8)
		colB := p.columnBytes()
		sched.add(&StepColumnStream{
			Writes: iters,
			Charges: []Charge{
				{host.SIMD, iters * colB},
				{host.DT, iters * colB},
				{host.HostMem, int64(len(p.groups)) * int64(n*s)}, // user-buffer reads
			},
			segs: []*streamSeg{p.streamBroadcast(dstOff, s, func(c *Comm, pe, e int) []byte {
				return c.cur.hosts[at+int(p.groupOf[pe])][int(p.rankOf[pe])*s+e:]
			})},
		})
	}
	sched.add(&StepSync{})
	return sched
}

func lowerBroadcast(env algoEnv) Schedule {
	p, at, dstOff, s := env.p, env.hosts, env.dstOff, env.s
	// The native driver path is already near-optimal (§ VIII-B): one
	// domain transfer per payload serves all PEs, so all optimization
	// levels share this lowering.
	sched := newSchedule("Broadcast", Baseline, 3)
	iters := int64(s / 8)
	sched.add(&StepHostCompute{Rounds: 1,
		Charges: []Charge{
			{host.HostMem, int64(len(p.groups)) * int64(s)},
			{host.DT, int64(len(p.groups)) * int64(s)}, // DT once per payload
		},
	})
	sched.add(&StepColumnStream{
		Writes:  iters,
		Charges: []Charge{{host.SIMD, iters * p.columnBytes()}},
		segs: []*streamSeg{p.streamBroadcast(dstOff, s, func(c *Comm, pe, e int) []byte {
			return c.cur.hosts[at+int(p.groupOf[pe])][e:]
		})},
	})
	sched.add(&StepSync{})
	return sched
}

// streamBroadcast builds the seg that streams host-side bytes into every
// PE's arena region [dstOff, dstOff+perPE): a shard's run of element
// columns from e on is one copy per PE of the host bytes from(c, pe, e)
// begins with, c the executing comm — lane order, which is how the host
// holds the bytes: the domain transfer the hardware performs on the way
// is a charge of the step, not a byte permutation here. Iterations touch
// distinct columns, so the seg shards freely. Shared by the
// Scatter/Broadcast/single-group-AllGather write paths.
func (p *plan) streamBroadcast(dstOff, perPE int, from func(c *Comm, pe, e int) []byte) *streamSeg {
	return &streamSeg{cols: perPE / 8, body: func(sc *streamCtx, lo, hi int) {
		e, b := lo*8, (hi-lo)*8
		sc.tally(hi - lo)
		for pe := range p.rankOf {
			copy(sc.bank(pe, dstOff+e, b), from(sc.c, pe, e))
		}
	}}
}
