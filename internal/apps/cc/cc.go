// Package cc implements the connected-components benchmark (§ VII-D):
// label propagation over an undirected graph. Every iteration each PE
// pushes its owned vertices' labels to their neighbors, producing a
// candidate-label array that is combined with a MIN AllReduce; iteration
// stops when no label changes. At convergence every vertex's label is the
// minimum vertex ID in its component.
package cc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/apps/appcore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/dpu"
	"repro/internal/elem"
)

// Config sizes the CC benchmark.
type Config struct {
	// GraphName selects the dataset ("LJ" or "LG"); edges are mirrored to
	// form an undirected graph (§ VII-D). CC uses smaller vertex counts
	// than BFS because labels are 4 bytes per vertex rather than 1 bit.
	GraphName string
	// Graph optionally overrides the named dataset (must be symmetric).
	Graph *data.Graph
	// PEs is the PE count; must divide the vertex count.
	PEs int
}

// DefaultConfig returns the reproduction-scale configuration.
func DefaultConfig() Config { return Config{GraphName: "LG", PEs: 64} }

func (c Config) graph() *data.Graph {
	if c.Graph != nil {
		return c.Graph
	}
	switch c.GraphName {
	case "LJ":
		return data.Undirected(data.RMAT(1<<14, 1<<17, 1001))
	case "LG":
		return data.Undirected(data.RMAT(1<<13, 1<<15, 1002))
	default:
		panic(fmt.Sprintf("cc: unknown graph %q", c.GraphName))
	}
}

// RunPIM executes CC on the simulated PIM system and returns per-vertex
// component labels plus the execution profile.
func RunPIM(cfg Config, lvl core.Level) ([]int32, *appcore.Profile, error) {
	g := cfg.graph()
	N := cfg.PEs
	if g.V%N != 0 {
		return nil, nil, fmt.Errorf("cc: %d vertices not divisible by %d PEs", g.V, N)
	}
	owned := g.V / N

	// Label arrays: full V int32 per PE, padded to AllReduce block
	// granularity (padding holds MaxInt32, neutral for MIN).
	lB := g.V * 4
	if lB < 8*N {
		lB = 8 * N
	}
	lB = (lB + 8*N - 1) / (8 * N) * (8 * N)

	adjSz, err := appcore.CSRSize(g, N)
	if err != nil {
		return nil, nil, err
	}
	adjOff := 0
	labelOff := adjOff + adjSz // current global labels
	candOff := labelOff + lB   // this PE's pushed candidates
	newOff := candOff + lB     // MIN-AllReduced labels
	flagOff := newOff + lB     // "any label changed" flag

	tr, comm, err := appcore.CommForPEs([]int{N}, N, flagOff+8)
	if err != nil {
		return nil, nil, err
	}

	adjBuf := tr.Stage(N * adjSz)
	appcore.PartitionCSR(adjBuf, g, N, adjSz)
	bd, err := comm.Run(core.Collective{Prim: core.Scatter, Dims: "1",
		Hosts: [][]byte{adjBuf}, Dst: core.Span(adjOff, adjSz), Level: lvl})
	if err := tr.Comm(core.Scatter, bd, err); err != nil {
		return nil, nil, err
	}
	// Initial labels: label[v] = v; padding = MaxInt32.
	init := tr.Stage(lB)
	for v := 0; v < lB/4; v++ {
		x := int32(v)
		if v >= g.V {
			x = 1<<31 - 1
		}
		binary.LittleEndian.PutUint32(init[4*v:], uint32(x))
	}
	bd, err = comm.Run(core.Collective{Prim: core.Broadcast, Dims: "1",
		Hosts: [][]byte{init}, Dst: core.At(labelOff), Level: lvl})
	if err := tr.Comm(core.Broadcast, bd, err); err != nil {
		return nil, nil, err
	}

	// Every label-propagation round replays the same candidate AllReduce
	// and termination-flag Gather; compile them once and replay.
	candAR, err := comm.Compile(core.Collective{Prim: core.AllReduce, Dims: "1",
		Src: core.Span(candOff, lB), Dst: core.At(newOff),
		Elem: elem.I32, Op: elem.Min, Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	flags := [][]byte{tr.Stage(N * 8)}
	flagGather, err := comm.Compile(core.Collective{Prim: core.Gather, Dims: "1",
		Src: core.Span(flagOff, 8), Level: lvl, Hosts: flags})
	if err != nil {
		return nil, nil, err
	}
	for iter := 0; iter < g.V; iter++ {
		// Push kernel: candidates start as the current labels; each owned
		// vertex pushes its label to its neighbors (min).
		tr.Kernel(func(ctx *dpu.Ctx) {
			labels := ctx.Buf(lB)
			ctx.ReadMram(labelOff, labels)
			adj := ctx.Buf(adjSz)
			ctx.ReadMram(adjOff, adj)
			sg := appcore.NewSubgraphReader(adj, owned)
			// Candidates: identity except where our pushes win. Start
			// from MaxInt32 so the AllReduce MIN of all PEs'
			// candidates composes with the current labels cheaply:
			// cand = min(pushes); result label = min(label, allmin).
			cand := ctx.Buf(lB)
			for i := range cand {
				cand[i] = 0xFF
			}
			for i := 0; i < lB/4; i++ {
				cand[4*i+3] = 0x7F // MaxInt32 little-endian
			}
			var instr int64
			base := ctx.PE * owned
			for i := 0; i < owned; i++ {
				lv := int32(binary.LittleEndian.Uint32(labels[4*(base+i):]))
				deg := sg.Degree(i)
				for j := 0; j < deg; j++ {
					w := sg.Neighbor(i, j)
					cur := int32(binary.LittleEndian.Uint32(cand[4*w:]))
					if lv < cur {
						binary.LittleEndian.PutUint32(cand[4*w:], uint32(lv))
					}
				}
				instr += int64(deg) * 4
			}
			ctx.WriteMram(candOff, cand)
			ctx.Exec(instr + int64(owned))
		})
		// Combine candidate labels across PEs: MIN AllReduce (§ VII-D).
		bd, err := candAR.Run()
		if err := tr.Comm(core.AllReduce, bd, err); err != nil {
			return nil, nil, err
		}
		// Update kernel: labels = min(labels, candidates); flag changes.
		tr.Kernel(func(ctx *dpu.Ctx) {
			labels := ctx.Buf(lB)
			ctx.ReadMram(labelOff, labels)
			cand := ctx.Buf(lB)
			ctx.ReadMram(newOff, cand)
			var changed byte
			for v := 0; v < g.V; v++ {
				old := int32(binary.LittleEndian.Uint32(labels[4*v:]))
				nw := int32(binary.LittleEndian.Uint32(cand[4*v:]))
				if nw < old {
					binary.LittleEndian.PutUint32(labels[4*v:], uint32(nw))
					changed = 1
				}
			}
			ctx.WriteMram(labelOff, labels)
			flag := ctx.Buf(8)
			clear(flag)
			flag[0] = changed
			ctx.WriteMram(flagOff, flag)
			ctx.Exec(int64(g.V))
		})
		fbd, err := flagGather.Run()
		if err := tr.Comm(core.Gather, fbd, err); err != nil {
			return nil, nil, err
		}
		if flags[0][0] == 0 {
			break
		}
	}
	// Labels are replicated on every PE; each PE stages its owned slice at
	// a common offset (reusing the candidate region) so the closing Gather
	// moves only V labels total.
	sliceB := (owned*4 + 7) &^ 7
	tr.Kernel(func(ctx *dpu.Ctx) {
		slice := ctx.Buf(sliceB)
		ctx.ReadMram(labelOff+ctx.PE*owned*4, slice[:owned*4])
		clear(slice[owned*4:])
		ctx.WriteMram(candOff, slice)
		ctx.Exec(int64(owned))
	})
	bufs := [][]byte{tr.Stage(N * sliceB)}
	labelGather, err := comm.Compile(core.Collective{Prim: core.Gather, Dims: "1",
		Src: core.Span(candOff, sliceB), Level: lvl, Hosts: bufs})
	if err != nil {
		return nil, nil, err
	}
	gbd, err := labelGather.Run()
	if err := tr.Comm(core.Gather, gbd, err); err != nil {
		return nil, nil, err
	}
	out := make([]int32, g.V)
	for p := 0; p < N; p++ {
		for i := 0; i < owned; i++ {
			out[p*owned+i] = int32(binary.LittleEndian.Uint32(bufs[0][p*sliceB+4*i:]))
		}
	}
	tr.Finish()
	return out, &tr.Prof, nil
}

// RunCPU computes reference labels (min vertex ID per component) and the
// roofline time of a CPU label-propagation run.
func RunCPU(cfg Config) ([]int32, cost.Seconds, error) {
	g := cfg.graph()
	labels := make([]int32, g.V)
	for v := range labels {
		labels[v] = int32(v)
	}
	var touched int64
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.V; v++ {
			for _, w := range g.Neighbors(v) {
				touched++
				if labels[v] < labels[w] {
					labels[w] = labels[v]
					changed = true
				} else if labels[w] < labels[v] {
					labels[v] = labels[w]
					changed = true
				}
			}
		}
	}
	cpu := appcore.DefaultCPU()
	t := cpu.GraphTime(touched)
	return labels, t, nil
}
