package core

import (
	"repro/internal/dpu"
	"repro/internal/elem"
	"repro/internal/host"
	"repro/internal/vec"
)

// runCols bounds a fold's run: a shard reduces at most runCols element
// columns (runCols·8 bytes per PE) per pass, so its accumulator holds a
// few hundred bytes per PE whatever the block size.
const runCols = 32

// streamCtx is one worker's private streaming context during a parallel
// ColumnStream epoch: a host shard (private bus tallies) plus the fold
// accumulator, so the steady-state streaming loops allocate nothing.
// Contexts are created once per shard slot on the Comm c (ensureStreams)
// and reused across runs; each is owned by exactly one worker for the
// duration of a par.Do call, whose segRunner sets base to c's running
// plan's arena base: the lowerings stream offsets relative to it, and
// read the run's host buffers (Hosts, which rooted primitives write) off
// c.cur.
//
// The engine streams 64-byte bursts in lane order (§ V-A2, § II-B): lane
// c is bank c's 8 bytes, so a PE's element is a whole lane and a run of
// columns is consecutive bytes of each bank. The seg bodies move a
// shard's columns as such runs, one copy per PE, each booked first with
// one tally on every entangled group; the bus interleave and its domain
// transfer are charges, never computed.
type streamCtx struct {
	c    *Comm
	sh   *host.Shard
	acc  []byte // fold accumulator, grown once to runCols columns per PE
	base int
}

// tally books cols column transfers: cols bursts on every entangled
// group. Must run inside a transfer epoch, before the bytes move.
func (sc *streamCtx) tally(cols int) { sc.sh.TallyAllGroups(int64(cols)) }

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
// run first books bursts bursts per column on every entangled group,
// then hands put its byte offset e in a slot, its bytes per PE b and
// acc. The loop walks every PE's slots in bank order while the
// accumulator stays in cache: integer reductions do not depend on their
// order, and rank 0's slots are copied in, the identity being neutral.
func (sc *streamCtx) fold(p *plan, t elem.Type, op elem.Op, srcOff, s, lo, hi, bursts int, put func(e, b int, acc []byte)) {
	if sc.acc == nil {
		sc.acc = make([]byte, len(p.rankOf)*runCols*vec.LaneBytes)
	}
	for i := lo; i < hi; i += runCols {
		cols := min(runCols, hi-i)
		e, b := i*8, cols*8
		sc.tally(bursts * cols)
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
// Callers hold execMu; the underlying host Shard slots are shared with
// the bulk-transfer paths (same shard index -> same worker slot).
func (c *Comm) ensureStreams(k int) {
	shards := c.h.Shards(k)
	for len(c.streams) < k {
		c.streams = append(c.streams, &streamCtx{c: c, sh: shards[len(c.streams)]})
	}
}

// rotateBlocksWork returns the per-PE accounted work of a non-trivial
// rotate-blocks pass over an m-byte region: one full streaming pass in
// and out of MRAM (2*m bytes of DMA) and ~1 instruction per 4 bytes of
// address arithmetic, rounded UP to whole instructions. The helper is
// shared by the functional kernel and the cost backend's analytic
// accounting so the two cannot drift — in particular on regions whose
// byte count is not a multiple of 4, where truncating division would
// undercount on one side only.
func rotateBlocksWork(m int) (instr, mramBytes int64) {
	return int64((m + 3) / 4), int64(2 * m)
}

// rotate is the comm's one PE-assisted reordering kernel (§ V-A1), run for
// the rotation step being launched (c.rotStep): each PE's region [Off,
// Off+N*S) of the running plan's arena (c.cur) is treated as N blocks of
// S bytes and left-rotated by r = rotation(rank) blocks: new block l =
// old block (l + r) mod N. The kernel streams MRAM through WRAM-sized
// chunks; the paper's incremental shifting touches each byte once in and
// once out, which is what the accounting reflects.
func (c *Comm) rotate(ctx *dpu.Ctx) {
	st := c.rotStep
	r := st.rotation(ctx.GroupRank)
	if r == 0 {
		return // nothing to move; kernel exits immediately
	}
	m, off := st.N*st.S, c.cur.base+st.Off
	// Read the full region through WRAM-sized chunks into a rotation
	// pipeline, then write each block to its rotated position. The
	// arena buffer models the double-buffered WRAM streaming of the
	// real kernel; MRAM traffic (the dominant cost) is fully accounted.
	tmp := ctx.Buf(m)
	chunk := len(ctx.Wram()) / 2
	for o := 0; o < m; o += chunk {
		end := min(o+chunk, m)
		ctx.ReadMram(off+o, tmp[o:end])
	}
	for l := 0; l < st.N; l++ {
		srcBlock := (l + r) % st.N
		for o := 0; o < st.S; o += chunk {
			end := min(o+chunk, st.S)
			ctx.WriteMram(off+l*st.S+o, tmp[srcBlock*st.S+o:srcBlock*st.S+end])
		}
	}
	instr, _ := rotateBlocksWork(m) // address arithmetic; DMA accounted above
	ctx.Exec(instr)
}
