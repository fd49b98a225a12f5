package core

import (
	"repro/internal/dpu"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
	"repro/internal/vec"
)

// column holds one 64-byte burst per entangled group, all at the same
// per-bank MRAM offset — the unit the optimized engine streams. Registers
// are in lane order: lane c is bank c's 8 bytes, the host byte order of
// a burst after its domain transfer (§ II-B), so a PE's element is one
// whole lane. The bus-order interleave is never computed here; a level
// that pays for domain transfers declares them as charges.
type column []vec.Reg

// streamCtx is one worker's private streaming context during a parallel
// ColumnStream epoch: a host shard (private bus tallies) plus
// preallocated column buffers, so the steady-state streaming loops
// allocate nothing. Contexts are created once per shard slot on the Comm
// c (ensureStreams) and reused across runs; each is owned by exactly one
// worker for the duration of a par.Do call, whose segRunner sets base to
// c's running plan's arena base: the lowerings stream offsets relative to
// it, and read the run's host buffers (Hosts, which rooted primitives
// write) off c.cur.
type streamCtx struct {
	c    *Comm
	sh   *host.Shard
	vu   vec.Unit // scratch reductions; cost is charged declaratively
	a    column   // read target
	b    column   // shift target
	ac   column   // reduction accumulator
	base int
}

// readColumn reads the burst at arena offset off from every entangled
// group into dst. Must run inside a transfer epoch.
func (sc *streamCtx) readColumn(off int, dst column) {
	for g := range dst {
		sc.sh.ReadLanes(g, sc.base+off, &dst[g])
	}
}

// writeColumn writes one burst per entangled group at arena offset off.
func (sc *streamCtx) writeColumn(off int, col column) {
	for g := range col {
		sc.sh.WriteLanes(g, sc.base+off, &col[g])
	}
}

// shiftColumn moves every lane's element of src to the PE holding rank
// (rank+shift) mod n of the same communication group, storing into dst —
// the multi-instance lane rotation at the heart of the optimized engine.
// Because every PE belongs to exactly one group, the result is a full
// permutation of the column, whether groups subdivide an entangled group,
// span several, or stride across them (Figure 9 general cases). dst must
// not alias src.
func (sc *streamCtx) shiftColumn(p *plan, dst, src column, shift int) {
	shift %= p.n
	if shift < 0 {
		shift += p.n
	}
	for _, grp := range p.groups {
		j := shift // rank i's element goes to rank j = (i+shift) mod n
		for _, pe := range grp {
			*dst.lane(grp[j]) = *src.lane(pe)
			if j++; j == p.n {
				j = 0
			}
		}
	}
}

// reduceColumnInto accumulates src into acc elementwise (lane order:
// each lane is a whole element, so vertical SIMD ops apply; § V-B2).
func (sc *streamCtx) reduceColumnInto(t elem.Type, op elem.Op, acc, src column) {
	for g := range acc {
		acc[g] = sc.vu.Reduce(t, op, acc[g], src[g])
	}
}

// fillIdentity fills col with reduction identities.
func (sc *streamCtx) fillIdentity(t elem.Type, op elem.Op, col column) {
	id := sc.vu.FillIdentity(t, op)
	for g := range col {
		col[g] = id
	}
}

// lane returns the 8-byte lane of PE pe within the column: the PE's
// whole element word.
func (c column) lane(pe int) *[vec.LaneBytes]byte {
	return (*[vec.LaneBytes]byte)(c[pe/dram.ChipsPerRank][pe%dram.ChipsPerRank*vec.LaneBytes:])
}

// ensureStreams grows the Comm's streaming-context set to k entries.
// Callers hold execMu; the underlying host Shard slots are shared with
// the bulk-transfer paths (same shard index -> same worker slot).
func (c *Comm) ensureStreams(k int) {
	shards := c.h.Shards(k)
	nEG := c.hc.sys.Geometry().NumGroups()
	for len(c.streams) < k {
		i := len(c.streams)
		c.streams = append(c.streams, &streamCtx{
			c:  c,
			sh: shards[i],
			a:  make(column, nEG),
			b:  make(column, nEG),
			ac: make(column, nEG),
		})
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
		end := o + chunk
		if end > m {
			end = m
		}
		ctx.ReadMram(off+o, tmp[o:end])
	}
	for l := 0; l < st.N; l++ {
		srcBlock := (l + r) % st.N
		for o := 0; o < st.S; o += chunk {
			end := o + chunk
			if end > st.S {
				end = st.S
			}
			ctx.WriteMram(off+l*st.S+o, tmp[srcBlock*st.S+o:srcBlock*st.S+end])
		}
	}
	instr, _ := rotateBlocksWork(m) // address arithmetic; DMA accounted above
	ctx.Exec(instr)
}
