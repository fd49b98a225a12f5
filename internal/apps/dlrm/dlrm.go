// Package dlrm implements the deep-learning recommendation model
// benchmark (§ VII-A, Figure 11). The embedding tables are split three
// ways and mapped onto a 3-D hypercube: embedding columns across x,
// table rows across y, and tables across z. Each batch flows through:
//
//  1. Scatter: lookup indices to their home PEs.
//  2. AlltoAll over xyz: requests travel to every PE holding a shard
//     that may serve them (all x column slices, all y row shards of the
//     table's z owner).
//  3. Lookup kernel: owning row shards emit embedding slices, others
//     zeros.
//  4. ReduceScatter along y: row-wise parallelism — summing the aligned
//     response slots completes every embedding slice and scatters the
//     batch across y.
//  5. AlltoAll over xz: relocates all column slices and table shards of
//     each sample to its final PE for the top MLP.
//  6. Top-MLP kernel, then Gather of the per-sample outputs.
//
// Slot positions are arranged so a sample's global index equals its
// response-slot index, which makes steps 4-5 zero-copy on the PEs.
// Integer arithmetic is bit-exact against the CPU reference.
package dlrm

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/apps/appcore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/dpu"
	"repro/internal/elem"
)

// Config sizes the DLRM benchmark.
type Config struct {
	// Tables, RowsPerTable, EmbDim shape the embedding tables (paper:
	// Criteo with embedding dimensions 16 and 32).
	Tables, RowsPerTable, EmbDim int
	// Batch is the number of samples per run.
	Batch int
	// X, Y, Z are the hypercube dimensions: embedding columns split
	// across X, table rows across Y, tables across Z (Figure 11).
	X, Y, Z int
	// TopOut is the top-MLP hidden/output width per sample.
	TopOut int
	// TopLayers is the top-MLP depth: one input layer (T*D -> TopOut)
	// plus TopLayers-1 hidden layers (TopOut -> TopOut). The paper's DLRM
	// carries multi-layer top/bottom MLPs, which keeps its communication
	// share the smallest of the benchmarks (Figure 13).
	TopLayers int
	// Batches is how many click batches are served per embedding-table
	// distribution (recommendation serving amortizes the one-time table
	// Scatter; 0 means 1).
	Batches int
	// Seed makes tables, clicks and weights deterministic.
	Seed int64
}

// DefaultConfig returns the reproduction-scale configuration.
func DefaultConfig() Config {
	return Config{Tables: 16, RowsPerTable: 8192, EmbDim: 32, Batch: 4096,
		X: 4, Y: 4, Z: 16, TopOut: 64, TopLayers: 3, Seed: 1}
}

// Validate checks the divisibility constraints of the 3-D split.
func (c Config) Validate() error {
	n := c.X * c.Y * c.Z
	switch {
	case c.Tables <= 0 || c.RowsPerTable <= 0 || c.EmbDim <= 0 || c.Batch <= 0 || c.TopOut <= 0:
		return fmt.Errorf("dlrm: non-positive config")
	case c.Tables%c.Z != 0:
		return fmt.Errorf("dlrm: %d tables not divisible by Z=%d", c.Tables, c.Z)
	case c.RowsPerTable%c.Y != 0:
		return fmt.Errorf("dlrm: %d rows not divisible by Y=%d", c.RowsPerTable, c.Y)
	case c.EmbDim%c.X != 0 || (c.EmbDim/c.X*4)%8 != 0:
		return fmt.Errorf("dlrm: emb dim %d not cleanly split by X=%d", c.EmbDim, c.X)
	case c.Batch%n != 0:
		return fmt.Errorf("dlrm: batch %d not divisible by %d PEs", c.Batch, n)
	case c.TopLayers <= 0:
		return fmt.Errorf("dlrm: TopLayers must be positive")
	}
	return nil
}

func (c Config) clicks(batch int) *data.ClickLog {
	return data.Clicks(c.Tables, c.RowsPerTable, c.Batch, c.Seed*31+int64(batch))
}

func (c Config) batches() int {
	if c.Batches <= 0 {
		return 1
	}
	return c.Batches
}

// embRNG draws the embedding tables, entries in [-7,7], table-major, then
// row, then column (embeddings()'s order). RunPIM and RunCPU consume the
// same stream in the same order.
func (c Config) embRNG() *rand.Rand { return rand.New(rand.NewSource(c.Seed * 77)) }

// topLen is the top-MLP weight count: the input layer (TopOut x T*D, in
// assembled-vector order) followed by TopLayers-1 hidden layers (TopOut x
// TopOut each).
func (c Config) topLen() int {
	return c.TopOut*c.Tables*c.EmbDim + (c.TopLayers-1)*c.TopOut*c.TopOut
}

// embeddings returns the tables for the CPU reference, row-major per
// table.
func (c Config) embeddings() []int32 {
	e := make([]int32, c.Tables*c.RowsPerTable*c.EmbDim)
	data.Ints(c.embRNG(), e, -7, 7)
	return e
}

// packShards draws the embedding tables straight into their owners' slots
// of dst, the embedding Scatter's payload of N shards of embB bytes: PE
// (x,y,z) owns the tables of shard z, the rows of shard y and the columns
// of slice x, stored [table][row][column].
func (c Config) packShards(dst []byte, embB int) {
	X, Y := c.X, c.Y
	Tz, Ry, Dx := c.Tables/c.Z, c.RowsPerTable/c.Y, c.EmbDim/c.X
	rng := c.embRNG()
	for t := 0; t < c.Tables; t++ {
		z, tl := t/Tz, t%Tz
		for row := 0; row < c.RowsPerTable; row++ {
			y, r := row/Ry, row%Ry
			for x := 0; x < X; x++ {
				data.PutInts(rng, dst[(x+X*(y+Y*z))*embB+(tl*Ry+r)*Dx*4:][:Dx*4], -7, 7)
			}
		}
	}
}

// packTop draws the topLen top-MLP weights, entries in [-3,3], straight
// into dst: the weight Broadcast's payload, which RunCPU decodes.
func (c Config) packTop(dst []byte) {
	data.PutInts(rand.New(rand.NewSource(c.Seed*131)), dst[:4*c.topLen()], -3, 3)
}

// topMLP runs the shared top-MLP pipeline on one assembled sample vector
// and writes the sample's TopOut outputs to out; cur and next are
// TopOut-long staging for the layer activations. Identical code serves the
// DPU kernel and the CPU reference, keeping the integer results bit-exact.
func (c Config) topMLP(w []int32, vec, cur, next []int64, out []int32) {
	n := c.Tables * c.EmbDim // the current layer's input width
	cur, next = cur[:c.TopOut], next[:c.TopOut]
	for l := 0; l < c.TopLayers; l++ {
		in := vec
		if l > 0 {
			in = cur
		}
		for o := range next {
			next[o] = int64(activation(appcore.Dot(w[o*n:(o+1)*n], in)))
		}
		w = w[c.TopOut*n:]
		n = c.TopOut
		cur, next = next, cur
	}
	for o, v := range cur {
		out[o] = int32(v)
	}
}

func activation(v int64) int32 {
	v >>= 4
	if v > 1<<30 {
		v = 1 << 30
	}
	if v < -(1 << 30) {
		v = -(1 << 30)
	}
	return int32(v)
}

// assembledIndex maps (x, z, tIdx, col) to the position of that value in
// a sample's assembled top-MLP input vector (the AlltoAll arrival order).
func (c Config) assembledIndex(x, z, tIdx, col int) int {
	dx := c.EmbDim / c.X
	tz := c.Tables / c.Z
	rank := x + c.X*z
	return rank*(tz*dx) + tIdx*dx + col
}

// RunPIM executes DLRM on the simulated PIM system and returns the
// per-sample top-MLP outputs (Batch x TopOut) plus the profile.
func RunPIM(cfg Config, lvl core.Level) ([]int32, *appcore.Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	X, Y, Z := cfg.X, cfg.Y, cfg.Z
	N := X * Y * Z
	B := cfg.Batch
	T, Rr, D := cfg.Tables, cfg.RowsPerTable, cfg.EmbDim
	Tz := T / Z     // tables per z shard
	Ry := Rr / Y    // rows per y shard
	Dx := D / X     // embedding columns per x slice
	perPE := B / N  // samples homed per PE
	Q := perPE * Tz // requests per (source, destination) pair
	Bd := B / N     // samples per final PE

	reqEntry := 8 // [u32 row][u32 tLocal]
	idxB := alignUp(perPE * T * 4)
	reqB := N * Q * reqEntry // AlltoAll(xyz) buffers
	respB := N * Q * Dx * 4  // lookup responses
	rsB := respB / Y         // ReduceScatter slice
	aaB := rsB               // AlltoAll(xz) result (same volume)
	embB := alignUp(Tz * Ry * Dx * 4)
	wB := alignUp(cfg.topLen() * 4)
	outB := alignUp(Bd * cfg.TopOut * 4)

	idxOff := 0
	reqOff := idxOff + idxB
	req2Off := reqOff + reqB // AA dst
	respOff := req2Off + reqB
	rsOff := respOff + respB
	aaOff := rsOff + alignUp(rsB)
	embOff := aaOff + alignUp(aaB)
	wOff := embOff + embB
	outOff := wOff + wB

	tr, comm, err := appcore.CommForPEs([]int{X, Y, Z}, N, outOff+outB)
	if err != nil {
		return nil, nil, err
	}

	// Scatter embedding shards, each entry drawn straight into its
	// owner's slot of the staged payload: PE (x,y,z) owns tables of shard
	// z, rows of shard y, columns of slice x.
	embBuf := tr.Stage(N * embB)
	cfg.packShards(embBuf, embB)
	wBuf := tr.Stage(4 * cfg.topLen())
	cfg.packTop(wBuf)
	// The embedding Scatter and the top-MLP weight Broadcast (already in
	// assembled-vector order) distribute together as one fused sequence:
	// a single submission whose interior synchronization the fuser
	// elides.
	setup, err := comm.CompileSequence(
		core.Collective{Prim: core.Scatter, Dims: "111",
			Hosts: [][]byte{embBuf}, Dst: core.Span(embOff, embB), Level: lvl},
		core.Collective{Prim: core.Broadcast, Dims: "111",
			Hosts: [][]byte{wBuf}, Dst: core.At(wOff), Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.CommSequence(setup.Submit(), nil); err != nil {
		return nil, nil, err
	}

	// Serving replays the same five collective signatures every batch
	// (Figure 11's pipeline), so compile them once and replay. The index
	// Scatter binds the staged idxBuf, which is refilled in place per batch.
	idxBuf := tr.Stage(N * idxB)
	idxPlan, err := comm.Compile(core.Collective{Prim: core.Scatter, Dims: "111",
		Hosts: [][]byte{idxBuf}, Dst: core.Span(idxOff, idxB), Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	reqAA, err := comm.Compile(core.Collective{Prim: core.AlltoAll, Dims: "111",
		Src: core.Span(reqOff, reqB), Dst: core.At(req2Off), Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	// Steps 4-5 are a producer-consumer pair with no kernel between: the
	// y-axis ReduceScatter completes the embedding slices and the
	// xz-plane AlltoAll relocates them. Compile them through the fuser as
	// one per-batch sequence — the interior synchronization collapses and
	// the two stream as one plan (the RAW hazard that used to order the
	// two submissions is now internal to the schedule).
	rsAA, err := comm.CompileSequence(
		core.Collective{Prim: core.ReduceScatter, Dims: "010",
			Src: core.Span(respOff, respB), Dst: core.At(rsOff),
			Elem: elem.I32, Op: elem.Sum, Level: lvl},
		core.Collective{Prim: core.AlltoAll, Dims: "101",
			Src: core.Span(rsOff, aaB), Dst: core.At(aaOff), Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	bufs := [][]byte{tr.Stage(N * outB)}
	outGather, err := comm.Compile(core.Collective{Prim: core.Gather, Dims: "111",
		Src: core.Span(outOff, outB), Level: lvl, Hosts: bufs})
	if err != nil {
		return nil, nil, err
	}
	var gatherF *core.Future // previous batch's output Gather, possibly in flight
	for batch := 0; batch < cfg.batches(); batch++ {
		clicks := cfg.clicks(batch)
		// Scatter lookup indices to home PEs (sample s lives on PE s/perPE).
		// Refilling idxBuf is safe: the previous index Scatter completed
		// before the previous batch's request kernel ran (Tracker.Kernel
		// flushes the queue), and the in-flight Gather never reads it.
		for s := 0; s < B; s++ {
			p := s / perPE
			ls := s % perPE
			for t := 0; t < T; t++ {
				binary.LittleEndian.PutUint32(idxBuf[p*idxB+(ls*T+t)*4:], uint32(clicks.Index(s, t)))
			}
		}
		// Submit the index Scatter asynchronously: its MRAM footprint is
		// disjoint from the previous batch's output Gather, so the two
		// overlap on the elapsed-time timeline (serving pipelining).
		idxF := idxPlan.Submit()
		if gatherF != nil {
			if err := tr.CommFuture(core.Gather, gatherF, nil); err != nil {
				return nil, nil, err
			}
		}
		if err := tr.CommFuture(core.Scatter, idxF, nil); err != nil {
			return nil, nil, err
		}
		// Request-build kernel: for every destination PE q = (qx,qy,qz), the
		// block holds this PE's requests whose table belongs to shard qz —
		// identical for all (qx,qy), which is what aligns the response slots
		// across the y axis.
		tr.Kernel(func(ctx *dpu.Ctx) {
			idx := ctx.Buf(idxB)
			ctx.ReadMram(idxOff, idx)
			req := ctx.Buf(reqB)
			for q := 0; q < N; q++ {
				qz := q / (X * Y)
				for ls := 0; ls < perPE; ls++ {
					for tl := 0; tl < Tz; tl++ {
						t := qz*Tz + tl
						row := binary.LittleEndian.Uint32(idx[(ls*T+t)*4:])
						off := q*Q*reqEntry + (ls*Tz+tl)*reqEntry
						binary.LittleEndian.PutUint32(req[off:], row)
						binary.LittleEndian.PutUint32(req[off+4:], uint32(tl))
					}
				}
			}
			ctx.WriteMram(reqOff, req)
			ctx.Exec(int64(N * Q * 4))
		})
		// AlltoAll over all three dimensions distributes the requests.
		if err := tr.CommFuture(core.AlltoAll, reqAA.Submit(), nil); err != nil {
			return nil, nil, err
		}
		// Lookup kernel: owning y shards emit embedding column slices.
		tr.Kernel(func(ctx *dpu.Ctx) {
			y := ctx.PE / X % Y
			req := ctx.Buf(reqB)
			ctx.ReadMram(req2Off, req)
			embS := ctx.Buf(embB)
			ctx.ReadMram(embOff, embS)
			resp := ctx.Buf(respB)
			clear(resp) // slots other y shards serve stay zero
			var hits int64
			for slot := 0; slot < N*Q; slot++ {
				row := int(binary.LittleEndian.Uint32(req[slot*reqEntry:]))
				tl := int(binary.LittleEndian.Uint32(req[slot*reqEntry+4:]))
				if row/Ry != y {
					continue
				}
				hits++
				rl := row % Ry
				src := (tl*Ry + rl) * Dx * 4
				copy(resp[slot*Dx*4:(slot+1)*Dx*4], embS[src:src+Dx*4])
			}
			ctx.WriteMram(respOff, resp)
			ctx.Exec(int64(N*Q)*2 + hits*int64(Dx))
		})
		// ReduceScatter along y completes the embedding slices (§ VII-A),
		// then AlltoAll over the xz-plane relocates every sample's column
		// slices and table shards to its final PE. The ReduceScatter output
		// is already in destination-block order (samples ascending), so it
		// is the AlltoAll source as-is — the fused per-batch sequence
		// compiled above runs both as one plan.
		if err := tr.CommSequence(rsAA.Submit(), nil); err != nil {
			return nil, nil, err
		}
		// Top-MLP kernel over each final PE's Bd samples.
		blockB := aaB / (X * Z) // one (x,z) source block
		perSampleB := Tz * Dx * 4
		tr.Kernel(func(ctx *dpu.Ctx) {
			aa := ctx.Buf(aaB)
			ctx.ReadMram(aaOff, aa)
			w := ctx.Buf(wB)
			ctx.ReadMram(wOff, w)
			out := ctx.Buf(outB)
			clear(out[Bd*cfg.TopOut*4:])
			vecLen := T * D
			ws := ctx.I32(wB / 4)
			for i := range ws {
				ws[i] = int32(binary.LittleEndian.Uint32(w[4*i:]))
			}
			vec := ctx.I64(vecLen)
			cur, next := ctx.I64(cfg.TopOut), ctx.I64(cfg.TopOut)
			res := ctx.I32(cfg.TopOut)
			for b := 0; b < Bd; b++ {
				// Assemble the input vector from the arrival blocks.
				for rnk := 0; rnk < X*Z; rnk++ {
					src := aa[rnk*blockB+b*perSampleB:][:perSampleB]
					dst := vec[rnk*Tz*Dx:][:Tz*Dx]
					for i := range dst {
						dst[i] = int64(int32(binary.LittleEndian.Uint32(src[4*i:])))
					}
				}
				cfg.topMLP(ws, vec, cur, next, res)
				for o, v := range res {
					binary.LittleEndian.PutUint32(out[(b*cfg.TopOut+o)*4:], uint32(v))
				}
			}
			ctx.WriteMram(outOff, out)
			ctx.Exec(int64(Bd*cfg.TopOut*(vecLen+(cfg.TopLayers-1)*cfg.TopOut)) * 3)
		})
		// Submit the per-sample output Gather; the next batch's index
		// Scatter overlaps it (disjoint regions). Each run overwrites bufs,
		// and only the last batch's are read.
		gatherF = outGather.Submit()
	}
	if err := tr.CommFuture(core.Gather, gatherF, nil); err != nil {
		return nil, nil, err
	}
	// Reorder the last batch's outputs by global sample ID (earlier
	// batches' outputs are superseded, matching the CPU reference).
	final := make([]int32, B*cfg.TopOut)
	for s := 0; s < B; s++ {
		y := s / (B / Y)
		q := s % (B / Y)
		d := q / Bd
		b := q % Bd
		fx, fz := d%X, d/X
		pe := fx + X*(y+Y*fz)
		for o := 0; o < cfg.TopOut; o++ {
			final[s*cfg.TopOut+o] = int32(binary.LittleEndian.Uint32(bufs[0][pe*outB+(b*cfg.TopOut+o)*4:]))
		}
	}
	tr.Finish()
	return final, &tr.Prof, nil
}

// RunCPU computes the identical model on the CPU-only baseline.
func RunCPU(cfg Config) ([]int32, cost.Seconds, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	emb := cfg.embeddings()
	wb := make([]byte, 4*cfg.topLen())
	cfg.packTop(wb)
	w := make([]int32, cfg.topLen())
	for i := range w {
		w[i] = int32(binary.LittleEndian.Uint32(wb[4*i:]))
	}
	T, Rr, D := cfg.Tables, cfg.RowsPerTable, cfg.EmbDim
	Tz := T / cfg.Z
	Dx := D / cfg.X
	vecLen := T * D
	// pos[t*D+c] is where column c of table t's embedding lands in the
	// assembled vector.
	pos := make([]int, vecLen)
	for t := 0; t < T; t++ {
		for c := 0; c < D; c++ {
			pos[t*D+c] = cfg.assembledIndex(c/Dx, t/Tz, t%Tz, c%Dx)
		}
	}
	out := make([]int32, cfg.Batch*cfg.TopOut)
	vec := make([]int64, vecLen)
	cur, next := make([]int64, cfg.TopOut), make([]int64, cfg.TopOut)
	var cpuTotal cost.Seconds
	for batch := 0; batch < cfg.batches(); batch++ {
		clicks := cfg.clicks(batch)
		for s := 0; s < cfg.Batch; s++ {
			for t := 0; t < T; t++ {
				row := int(clicks.Index(s, t))
				p := pos[t*D : (t+1)*D]
				for c, v := range emb[(t*Rr+row)*D:][:D] {
					vec[p[c]] = int64(v)
				}
			}
			cfg.topMLP(w, vec, cur, next, out[s*cfg.TopOut:])
		}
		cpu := appcore.DefaultCPU()
		// Embedding fetches are latency-bound at Criteo scale; the top MLP is
		// a streaming integer kernel.
		mlpOps := int64(cfg.Batch) * int64(cfg.TopOut) * int64(vecLen+(cfg.TopLayers-1)*cfg.TopOut) * 2
		cpuTotal += cpu.LookupTime(int64(cfg.Batch)*int64(T)) +
			cpu.Time(int64(cfg.Batch*vecLen*4), mlpOps)
	}
	return out, cpuTotal, nil
}

func alignUp(n int) int { return (n + 7) &^ 7 }
