// Package gnn implements the graph-neural-network benchmark (§ VII-B,
// Figure 12): layers of sparse aggregation (SpGEMM) and dense combination
// (GeMM) over a 2-D hypercube of PEs, with two communication strategies:
//
//   - RS&AR: partial aggregations are ReduceScattered along x, combined,
//     and the padded per-column strips AllReduced along y.
//   - AR&AG: aggregations are AllReduced along x (full row strips),
//     combined into 2-D tiles, and AllGathered along y into the next
//     layer's strips.
//
// The vertex set is partitioned so that the strip each PE column needs
// next layer is exactly what the y-axis collective produces; the paper's
// per-layer dimension alternation (Algorithm 1) serves the same strip
// re-orientation and is fixed here by construction. Feature elements are
// quantized integers of configurable width (INT8/16/32 — the Figure 22
// sensitivity study); integer wraparound is bit-exact between the PIM run
// and the CPU reference.
package gnn

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

// Variant selects the communication strategy (Table III rows GNN RS&AR
// and GNN AR&AG).
type Variant int

const (
	// RSAR is the ReduceScatter + AllReduce strategy.
	RSAR Variant = iota
	// ARAG is the AllReduce + AllGather strategy (GNN-B in Figure 12).
	ARAG
)

// String returns the paper's label.
func (v Variant) String() string {
	if v == RSAR {
		return "RS&AR"
	}
	return "AR&AG"
}

// Config sizes the GNN benchmark.
type Config struct {
	// InputName selects "PM" (PubMed-like) or "RD" (Reddit-like).
	InputName string
	// Input optionally overrides the named dataset.
	Input *data.GNNInput
	// Rows, Cols define the PE grid (y and x lengths); Rows*Cols PEs.
	Rows, Cols int
	// Layers is the GNN depth (paper: 3).
	Layers int
	// Elem is the feature word width (Figure 22: INT8/16/32).
	Elem elem.Type
	// Seed makes features and weights deterministic.
	Seed int64
}

// DefaultConfig returns the reproduction-scale configuration.
func DefaultConfig() Config {
	return Config{InputName: "PM", Rows: 16, Cols: 16, Layers: 3, Elem: elem.I32, Seed: 1}
}

func (c Config) input() data.GNNInput {
	if c.Input != nil {
		return *c.Input
	}
	return data.GNNByName(c.InputName)
}

// Validate checks grid and divisibility constraints.
func (c Config) Validate() error {
	in := c.input()
	if c.Rows <= 0 || c.Cols <= 0 || c.Layers <= 0 {
		return fmt.Errorf("gnn: non-positive config")
	}
	if in.Graph.V%(c.Rows*c.Cols) != 0 {
		return fmt.Errorf("gnn: %d vertices not divisible by %dx%d grid", in.Graph.V, c.Rows, c.Cols)
	}
	sub := in.Graph.V / (c.Rows * c.Cols)
	if sub*in.F*c.Elem.Size()%8 != 0 || (sub*in.F*c.Elem.Size())/1 < 8 {
		return fmt.Errorf("gnn: sub-strip %dB too small or unaligned", sub*in.F*c.Elem.Size())
	}
	return nil
}

// activation quantizes combination outputs into int8 range, keeping all
// widths exact across layers.
func activation(v int64) int64 {
	v >>= 4
	if v > 127 {
		v = 127
	}
	if v < -128 {
		v = -128
	}
	return v
}

// stripRow maps (column j, strip-local index) to the global vertex ID:
// strip j interleaves one V/(R*C) sub-block from every row block.
func stripRow(v, rows, cols, j, idx int) int {
	sub := v / (rows * cols)
	i := idx / sub
	t := idx % sub
	return i*(v/rows) + j*sub + t
}

// localCol returns strip-local index of global vertex w in strip j, or -1.
func localCol(v, rows, cols, j, w int) int {
	sub := v / (rows * cols)
	blockPos := w % (v / rows)
	if blockPos/sub != j {
		return -1
	}
	return (w/(v/rows))*sub + blockPos%sub
}

func genWeights(cfg Config, l int, f int) []int64 {
	rng := rand.New(rand.NewSource(cfg.Seed*9000 + int64(l)))
	w := make([]int64, f*f)
	data.Ints(rng, w, -3, 3)
	return w
}

func genFeatures(cfg Config, v, f int) []int64 {
	rng := rand.New(rand.NewSource(cfg.Seed * 555))
	x := make([]int64, v*f)
	data.Ints(rng, x, -3, 3)
	return x
}

// packInto stores vals into dst as elements of type t (wrapping).
func packInto(t elem.Type, dst []byte, vals []int64) {
	if t == elem.I32 {
		dst = dst[:4*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
		return
	}
	sz := t.Size()
	for i, v := range vals {
		elem.Store(t, dst, i*sz, v)
	}
}

// unpackInto loads len(dst) elements of type t from b.
func unpackInto(t elem.Type, dst []int64, b []byte) {
	if t == elem.I32 {
		b = b[:4*len(dst)]
		for i := range dst {
			dst[i] = int64(int32(binary.LittleEndian.Uint32(b[4*i:])))
		}
		return
	}
	sz := t.Size()
	for i := range dst {
		dst[i] = elem.Load(t, b, i*sz)
	}
}

// addPacked adds the len(dst) elements of type t packed in src to dst:
// the aggregation decodes only the strip rows its tile's edges name.
func addPacked(t elem.Type, dst []int64, src []byte) {
	if t == elem.I32 {
		src = src[:4*len(dst)]
		for f := range dst {
			dst[f] += int64(int32(binary.LittleEndian.Uint32(src[4*f:])))
		}
		return
	}
	sz := t.Size()
	for f := range dst {
		dst[f] += elem.Load(t, src, f*sz)
	}
}

// wrapInto truncates every value to t's width, sign-extended back: what a
// store and a load at width t do to it.
func wrapInto(t elem.Type, vals []int64) {
	switch t {
	case elem.I8:
		for i, v := range vals {
			vals[i] = int64(int8(v))
		}
	case elem.I16:
		for i, v := range vals {
			vals[i] = int64(int16(v))
		}
	case elem.I32:
		for i, v := range vals {
			vals[i] = int64(int32(v))
		}
	}
}

// tileSize returns the common size of the rows x cols adjacency tiles
// packTiles writes: PE (x=j, y=i)'s tile is a CSR whose rows are row block
// i's vertices and whose columns are strip-j locals,
//
//	[rowptr: (V/rows+1) x u32][cols: nnz x u32]
//
// zero-padded to the largest tile's 8-byte-aligned size.
func tileSize(g *data.Graph, rows, cols int) int {
	rowsPer := g.V / rows
	nnz := make([]int, rows*cols)
	maxNnz := 0
	for v := 0; v < g.V; v++ {
		for _, w := range g.Neighbors(v) {
			k := tileStrip(w, rowsPer, cols) + v/rowsPer*cols
			nnz[k]++
			maxNnz = max(maxNnz, nnz[k])
		}
	}
	return (4*(rowsPer+1) + 4*maxNnz + 7) &^ 7
}

// tileStrip is the strip j of global vertex w (the j with localCol >= 0).
func tileStrip(w int32, rowsPer, cols int) int { return int(w) % rowsPer / (rowsPer / cols) }

// packTiles writes the rows x cols adjacency tiles into dst, one Scatter
// payload that holds PE (x=j, y=i)'s tile at slot j+i*cols; maxTile is
// tileSize's and dst reads zero, which becomes each tile's padding.
func packTiles(dst []byte, g *data.Graph, rows, cols, maxTile int) {
	rowsPer := g.V / rows
	fill := make([]int, cols) // entries written so far to each tile of the row block
	for i := 0; i < rows; i++ {
		clear(fill)
		tiles := dst[i*cols*maxTile:]
		for r := 0; r < rowsPer; r++ {
			for _, w := range g.Neighbors(i*rowsPer + r) {
				j := tileStrip(w, rowsPer, cols)
				putU32(tiles[j*maxTile+4*(rowsPer+1)+4*fill[j]:], uint32(localCol(g.V, rows, cols, j, int(w))))
				fill[j]++
			}
			for j, n := range fill {
				putU32(tiles[j*maxTile+4*(r+1):], uint32(n))
			}
		}
	}
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// RunPIM executes the GNN on the simulated PIM system and returns the
// final feature matrix (V x F, row-major int64-widened) plus the profile.
func RunPIM(cfg Config, variant Variant, lvl core.Level) ([]int64, *appcore.Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	in := cfg.input()
	g := in.Graph
	R, C, F, T := cfg.Rows, cfg.Cols, in.F, cfg.Elem
	sz := T.Size()
	N := R * C
	V := g.V
	rowsPer := V / R  // A-tile rows per PE
	stripLen := V / C // strip rows per column
	sub := V / N      // sub-strip rows per PE

	maxTile := tileSize(g, R, C)

	stripB := stripLen * F * sz
	wB := F * F * sz
	p1B := rowsPer * F * sz
	subB := sub * F * sz
	adjOff := 0
	xOff := adjOff + maxTile
	wOff := xOff + stripB
	p1Off := wOff + wB
	iOff := p1Off + p1B // RS dst (subB) or AR dst (p1B)
	candOff := iOff + p1B
	xsubOff := candOff + stripB

	tr, comm, err := appcore.CommForPEs([]int{C, R}, N, xsubOff+subB)
	if err != nil {
		return nil, nil, err
	}

	// Distribute: A tiles and X strips by Scatter, W by Broadcast, each
	// payload staged and packed in place. The two Scatters go through the
	// fuser as one sequence: a single distribution plan whose interior
	// synchronization is elided.
	tiles := tr.Stage(N * maxTile)
	packTiles(tiles, g, R, C, maxTile)
	x0 := genFeatures(cfg, V, F)
	xbufs := tr.Stage(N * stripB)
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			strip := xbufs[(j+i*C)*stripB:]
			for c := 0; c < stripLen; c++ {
				gr := stripRow(V, R, C, j, c)
				packInto(T, strip[c*F*sz:], x0[gr*F:(gr+1)*F])
			}
		}
	}
	setup, err := comm.CompileSequence(
		core.Collective{Prim: core.Scatter, Dims: "11",
			Hosts: [][]byte{tiles}, Dst: core.Span(adjOff, maxTile), Level: lvl},
		core.Collective{Prim: core.Scatter, Dims: "11",
			Hosts: [][]byte{xbufs}, Dst: core.Span(xOff, stripB), Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.CommSequence(setup.Submit(), nil); err != nil {
		return nil, nil, err
	}

	// Combination kernel: X'_sub = act(I_sub x W) for this PE's sub-block;
	// either zero-padded into a strip candidate at the PE's y-slot (RS&AR)
	// or staged densely for the AllGather (AR&AG).
	gemm := func(ctx *dpu.Ctx, srcOff, dstOff int, padStrip bool) {
		wb := ctx.Buf(wB)
		ctx.ReadMram(wOff, wb)
		ws := ctx.I64(F * F)
		unpackInto(T, ws, wb)
		ib := ctx.Buf(subB)
		ctx.ReadMram(srcOff, ib)
		is := ctx.I64(sub * F)
		unpackInto(T, is, ib)
		res := ctx.I64(sub * F)
		combine(res, is, ws, F)
		if padStrip {
			strip := ctx.Buf(stripB)
			clear(strip)
			packInto(T, strip[(ctx.PE/C)*subB:], res)
			ctx.WriteMram(dstOff, strip)
		} else {
			packInto(T, ib, res) // ib is done with once unpacked into is
			ctx.WriteMram(dstOff, ib)
		}
		ctx.Exec(int64(sub*F*F) * 3)
	}

	// The layer loop replays the same collective signatures every layer,
	// so compile them once. The weight Broadcast binds the staged wBuf,
	// refilled in place with each layer's packed weights.
	wBuf := tr.Stage(wB)
	wBcast, err := comm.Compile(core.Collective{Prim: core.Broadcast, Dims: "11",
		Hosts: [][]byte{wBuf}, Dst: core.At(wOff), Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	var rsPlan, arPlan, agPlan *core.CompiledPlan
	if variant == RSAR {
		if rsPlan, err = comm.Compile(core.Collective{Prim: core.ReduceScatter, Dims: "10",
			Src: core.Span(p1Off, p1B), Dst: core.At(iOff),
			Elem: T, Op: elem.Sum, Level: lvl}); err != nil {
			return nil, nil, err
		}
		if arPlan, err = comm.Compile(core.Collective{Prim: core.AllReduce, Dims: "01",
			Src: core.Span(candOff, stripB), Dst: core.At(xOff),
			Elem: T, Op: elem.Sum, Level: lvl}); err != nil {
			return nil, nil, err
		}
	} else {
		if arPlan, err = comm.Compile(core.Collective{Prim: core.AllReduce, Dims: "10",
			Src: core.Span(p1Off, p1B), Dst: core.At(iOff),
			Elem: T, Op: elem.Sum, Level: lvl}); err != nil {
			return nil, nil, err
		}
		if agPlan, err = comm.Compile(core.Collective{Prim: core.AllGather, Dims: "01",
			Src: core.Span(xsubOff, subB), Dst: core.At(xOff), Level: lvl}); err != nil {
			return nil, nil, err
		}
	}
	var pendF *core.Future // previous layer's y-axis collective, possibly in flight
	var pendPrim core.Primitive
	for l := 0; l < cfg.Layers; l++ {
		w := genWeights(cfg, l, F)
		// Refilling wBuf is safe: the previous Broadcast was waited before
		// the previous layer's aggregation kernel ran.
		packInto(T, wBuf, w)
		// The weight Broadcast (writes wOff) is independent of the previous
		// layer's y-axis collective (writes xOff), so the two overlap on
		// the elapsed-time timeline.
		wF := wBcast.Submit()
		if pendF != nil {
			if err := tr.CommFuture(pendPrim, pendF, nil); err != nil {
				return nil, nil, err
			}
			pendF = nil
		}
		if err := tr.CommFuture(core.Broadcast, wF, nil); err != nil {
			return nil, nil, err
		}
		// Aggregation kernel: P1 = A_tile x X_strip (SpGEMM).
		tr.Kernel(func(ctx *dpu.Ctx) {
			adj := ctx.Buf(maxTile)
			ctx.ReadMram(adjOff, adj)
			xb := ctx.Buf(stripB)
			ctx.ReadMram(xOff, xb)
			acc := ctx.I64(rowsPer * F)
			clear(acc)
			var nnz int64
			for r := 0; r < rowsPer; r++ {
				lo := getU32(adj[4*r:])
				hi := getU32(adj[4*(r+1):])
				dst := acc[r*F : (r+1)*F]
				for e := lo; e < hi; e++ {
					c := int(getU32(adj[4*(rowsPer+1)+4*int(e):]))
					addPacked(T, dst, xb[c*F*sz:(c+1)*F*sz])
				}
				nnz += int64(hi - lo)
			}
			p1 := ctx.Buf(p1B)
			packInto(T, p1, acc) // store wraps to T
			ctx.WriteMram(p1Off, p1)
			ctx.Exec(nnz*int64(F) + int64(rowsPer))
		})
		if variant == RSAR {
			// ReduceScatter the partial aggregations along x.
			if err := tr.CommFuture(core.ReduceScatter, rsPlan.Submit(), nil); err != nil {
				return nil, nil, err
			}
			// Combination kernel on the received sub-block, placed into a
			// zero-padded strip candidate at this PE's y-rank slot.
			tr.Kernel(func(ctx *dpu.Ctx) { gemm(ctx, iOff, candOff, true) })
			// AllReduce the padded strips along y: summing the disjoint
			// slots concatenates them — every PE gets the full new strip.
			// Left in flight so the next layer's weight Broadcast overlaps.
			pendF, pendPrim = arPlan.Submit(), core.AllReduce
		} else {
			// AllReduce the partial aggregations along x (full strips).
			if err := tr.CommFuture(core.AllReduce, arPlan.Submit(), nil); err != nil {
				return nil, nil, err
			}
			// Combination on this PE's designated sub-block only (the j-th
			// sub-block of its row strip — 2-D tiled results), staged for
			// the AllGather.
			tr.Kernel(func(ctx *dpu.Ctx) { gemm(ctx, iOff+(ctx.PE%C)*subB, xsubOff, false) })
			// AllGather the sub-blocks along y into the new strips; left in
			// flight like the RS&AR AllReduce above.
			pendF, pendPrim = agPlan.Submit(), core.AllGather
		}
	}
	if pendF != nil {
		if err := tr.CommFuture(pendPrim, pendF, nil); err != nil {
			return nil, nil, err
		}
	}
	// Retrieve: each PE stages its unique sub-strip; host reassembles.
	tr.Kernel(func(ctx *dpu.Ctx) {
		i := ctx.PE / C
		b := ctx.Buf(subB)
		ctx.ReadMram(xOff+i*subB, b)
		ctx.WriteMram(xsubOff, b)
		ctx.Exec(int64(sub))
	})
	bufs := [][]byte{tr.Stage(N * subB)}
	gaF, err := comm.Submit(core.Collective{Prim: core.Gather, Dims: "11",
		Src: core.Span(xsubOff, subB), Level: lvl, Hosts: bufs})
	if err := tr.CommFuture(core.Gather, gaF, err); err != nil {
		return nil, nil, err
	}
	out := make([]int64, V*F)
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			vals := bufs[0][(j+i*C)*subB:]
			for t := 0; t < sub; t++ {
				gr := stripRow(V, R, C, j, i*sub+t)
				unpackInto(T, out[gr*F:(gr+1)*F], vals[t*F*sz:])
			}
		}
	}
	tr.Finish()
	return out, &tr.Prof, nil
}

// combine sets res = act(in x w) for the row-major rows of in and the F x F
// matrix w, accumulating each output row in ikj order: res's row is the sum
// of w's rows scaled by the input row's entries. Integer sums wrap, so the
// order does not change the result.
func combine(res, in, w []int64, F int) {
	for r := 0; r < len(in)/F; r++ {
		out := res[r*F : (r+1)*F]
		clear(out)
		for fi, a := range in[r*F : (r+1)*F] {
			if a == 0 {
				continue
			}
			for fo, v := range w[fi*F : (fi+1)*F] {
				out[fo] += a * v
			}
		}
		for fo, acc := range out {
			out[fo] = activation(acc)
		}
	}
}

// RunCPU computes the identical GNN on the CPU-only model (same integer
// wrapping at width cfg.Elem) and returns the final features plus the
// roofline time.
func RunCPU(cfg Config, variant Variant) ([]int64, cost.Seconds, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	in := cfg.input()
	g := in.Graph
	F, T := in.F, cfg.Elem
	V := g.V
	x := genFeatures(cfg, V, F)
	cpu := appcore.DefaultCPU()
	var total cost.Seconds
	for l := 0; l < cfg.Layers; l++ {
		w := genWeights(cfg, l, F)
		// Aggregation: I = wrapT(A x X).
		agg := make([]int64, V*F)
		var nnz int64
		for v := 0; v < V; v++ {
			dst := agg[v*F : (v+1)*F]
			for _, nb := range g.Neighbors(v) {
				for f, xv := range x[int(nb)*F : (int(nb)+1)*F] {
					dst[f] += xv
				}
			}
			nnz += int64(g.OutDegree(v))
		}
		wrapInto(T, agg)
		// Combination: X' = act(I x W).
		nx := make([]int64, V*F)
		combine(nx, agg, w, F)
		x = nx
		// Aggregation gathers random feature rows (latency-bound per
		// edge) and streams them; combination is a naive GEMM streaming
		// the full weight panel per row block (the reference OpenMP
		// kernels of [28]/[29] do not cache-block).
		total += cpu.GraphTime(nnz) +
			cpu.Time(nnz*int64(F*T.Size())+int64(V*F)*int64(F)*int64(T.Size()), nnz*int64(F)*2+int64(V*F*F)*2)
	}
	_ = variant // both variants compute identical results
	return x, total, nil
}
