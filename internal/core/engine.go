package core

import (
	"repro/internal/elem"
	"repro/internal/par"
	"repro/internal/vec"
)

// runCols bounds a fold's run: a shard reduces at most runCols element
// columns (runCols·8 bytes per PE) per pass, so its accumulator holds a
// few hundred bytes per PE whatever the block size.
const runCols = 32

// streamCtx is one worker's private streaming context during a parallel
// ColumnStream epoch: the fold accumulator, so the steady-state streaming
// loops allocate nothing. Contexts are created once per shard slot on the
// Comm c (ensureStreams) and reused across runs; each is owned by exactly
// one worker for the duration of a par.Do call, whose segRunner sets base
// to c's running plan's arena base: the lowerings stream offsets relative
// to it, and read the run's host buffers (Hosts, which rooted primitives
// write) off c.cur.
//
// The engine streams 64-byte bursts in lane order (§ V-A2, § II-B): lane
// c is bank c's 8 bytes, so a PE's element is a whole lane and a run of
// columns is consecutive bytes of each bank. The seg bodies move a
// shard's columns as such runs, one copy per PE. They only move bytes:
// the bursts, the bus interleave and its domain transfer are the step's
// booking (Reads, Writes, Charges), never computed here.
type streamCtx struct {
	c    *Comm
	acc  []byte // fold accumulator, grown once to runCols columns per PE
	base int
}

// bank returns PE pe's n bytes at arena offset off.
func (sc *streamCtx) bank(pe, off, n int) []byte {
	off += sc.base
	return sc.c.hc.sys.BankBytes(pe)[off : off+n]
}

// shift copies every PE's b bytes at arena offset srcOff to the PE
// holding rank (rank+k) mod n of the same communication group, at dstOff
// — the multi-instance lane rotation at the heart of the optimized engine
// (Figure 9), one copy per PE for a whole run of columns. Because every
// PE belongs to exactly one group, the result is a full permutation,
// whether groups subdivide an entangled group, span several, or stride
// across them. k is in [0, n); the two regions must not overlap.
func (sc *streamCtx) shift(p *plan, k, dstOff, srcOff, b int) {
	for _, grp := range p.groups {
		j := k // rank i's run goes to rank j = (i+k) mod n
		for _, pe := range grp {
			copy(sc.bank(grp[j], dstOff, b), sc.bank(pe, srcOff, b))
			if j++; j == p.n {
				j = 0
			}
		}
	}
}

// store copies every PE's b-byte run of acc to its bank at dstOff.
func (sc *streamCtx) store(dstOff int, acc []byte, b int) {
	for pe := range len(acc) / b {
		copy(sc.bank(pe, dstOff, b), acc[pe*b:])
	}
}

// fold reduces element columns [lo, hi) of the n pre-rotated slots of s
// bytes at srcOff, at most runCols columns per run: slot k of rank r
// belongs to rank r+k, so PE pe's run of the accumulator, acc[pe*b:],
// ends as its rank's reduced bytes (vertical reductions, § V-B2). Each
// run then hands put its byte offset e in a slot, its bytes per PE b and
// acc. The loop walks every PE's slots in bank order while the
// accumulator stays in cache: integer reductions do not depend on their
// order, and rank 0's slots are copied in, the identity being neutral.
func (sc *streamCtx) fold(p *plan, t elem.Type, op elem.Op, srcOff, s, lo, hi int, put func(e, b int, acc []byte)) {
	if sc.acc == nil {
		sc.acc = make([]byte, len(p.rankOf)*runCols*vec.LaneBytes)
	}
	for i := lo; i < hi; i += runCols {
		cols := min(runCols, hi-i)
		e, b := i*8, cols*8
		acc := sc.acc[:len(p.rankOf)*b]
		for _, grp := range p.groups {
			for r, pe := range grp {
				j := r // slot k of rank r lands on rank j = (r+k) mod n
				for k := 0; k < p.n; k++ {
					dst, src := acc[grp[j]*b:grp[j]*b+b], sc.bank(pe, srcOff+k*s+e, b)
					if r == 0 {
						copy(dst, src)
					} else {
						elem.ReduceInto(t, op, dst, src)
					}
					if j++; j == p.n {
						j = 0
					}
				}
			}
		}
		put(e, b, acc)
	}
}

// ensureStreams grows the Comm's streaming-context set to k entries.
// Callers hold execMu.
func (c *Comm) ensureStreams(k int) {
	for len(c.streams) < k {
		c.streams = append(c.streams, &streamCtx{c: c})
	}
}

// rotateBlocksWork returns the per-PE accounted work of a non-trivial
// rotate-blocks pass over an m-byte region: one full streaming pass in
// and out of MRAM (2*m bytes of DMA) and ~1 instruction per 4 bytes of
// address arithmetic, rounded UP to whole instructions, so a region
// whose byte count is not a multiple of 4 is not undercounted.
func rotateBlocksWork(m int) (instr, mramBytes int64) {
	return int64((m + 3) / 4), int64(2 * m)
}

// rotate is the functional pass of a rotate-blocks step, the PE-assisted
// reordering of § V-A1: each PE's region [Off, Off+N*S) of the running
// plan's arena (c.cur) is treated as N blocks of S bytes and left-rotated
// by r = rotation(rank) blocks — new block l = old block (l + r) mod N —
// in place, through the comm's per-shard slab. The PEs shard across the
// workers. Callers hold execMu.
func (c *Comm) rotate(st *StepRotateBlocks) {
	if !st.busy() {
		return
	}
	pes := len(st.p.rankOf)
	c.growSlabs(min(c.workers, pes), st.N*st.S)
	c.rrun.c, c.rrun.st = c, st
	par.Do(c.workers, pes, &c.rrun)
	c.rrun.st = nil
}

// rotateRunner is the comm's one par.Runner of a rotation (rotate): its
// shards own contiguous ranges of PEs and rotate each through the
// shard's slab.
type rotateRunner struct {
	c  *Comm
	st *StepRotateBlocks
}

func (rr *rotateRunner) RunShard(shard, lo, hi int) {
	c, st := rr.c, rr.st
	m, off := st.N*st.S, c.cur.base+st.Off
	for pe := lo; pe < hi; pe++ {
		b := st.rotation(int(st.p.rankOf[pe])) * st.S
		if b == 0 {
			continue
		}
		region, head := c.hc.sys.BankBytes(pe)[off:off+m], c.slabs[shard][:b]
		copy(head, region)
		copy(region, region[b:])
		copy(region[m-b:], head)
	}
}
