// Package bfs implements the breadth-first search benchmark (§ VII-C):
// vertices are range-partitioned across the PEs; every iteration each PE
// expands the global frontier over its owned vertices' edges into a
// next-frontier bitmap, and the bitmaps are combined with an OR AllReduce
// (1-D hypercube, Table III). Distances live with the owning PEs and are
// gathered at the end.
package bfs

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

// Config sizes the BFS benchmark.
type Config struct {
	// GraphName selects the dataset: "LJ" or "LG" (Table III).
	GraphName string
	// Graph optionally overrides the named dataset.
	Graph *data.Graph
	// PEs is the PE count; must divide the vertex count.
	PEs int
	// Source is the BFS root vertex.
	Source int
}

// DefaultConfig returns the reproduction-scale configuration.
func DefaultConfig() Config { return Config{GraphName: "LG", PEs: 128, Source: 0} }

func (c Config) graph() *data.Graph {
	if c.Graph != nil {
		return c.Graph
	}
	return data.GraphByName(c.GraphName)
}

// RunPIM executes BFS on the simulated PIM system. It returns per-vertex
// distances (-1 for unreachable) and the execution profile.
func RunPIM(cfg Config, lvl core.Level) ([]int32, *appcore.Profile, error) {
	g := cfg.graph()
	N := cfg.PEs
	if g.V%N != 0 {
		return nil, nil, fmt.Errorf("bfs: %d vertices not divisible by %d PEs", g.V, N)
	}
	if cfg.Source < 0 || cfg.Source >= g.V {
		return nil, nil, fmt.Errorf("bfs: source %d out of range", cfg.Source)
	}
	owned := g.V / N

	// Bitmap region: padded up to a multiple of 8*N bytes so the OR
	// AllReduce's blocks stay 8-byte aligned for any PE count (zero
	// padding is neutral for OR).
	fB := g.V / 8
	if fB < 8*N {
		fB = 8 * N
	}
	fB = (fB + 8*N - 1) / (8 * N) * (8 * N)
	distB := (owned*4 + 7) &^ 7

	adjSz, err := appcore.CSRSize(g, N)
	if err != nil {
		return nil, nil, err
	}
	// MRAM layout per PE.
	adjOff := 0
	frontOff := adjOff + adjSz   // current frontier (global bitmap)
	nextPartOff := frontOff + fB // this PE's next-frontier contribution
	nextOff := nextPartOff + fB  // OR-AllReduced next frontier
	visitedOff := nextOff + fB   // global visited bitmap (locally maintained)
	distOff := visitedOff + fB   // distances of owned vertices
	flagOff := distOff + distB   // "frontier non-empty" flag

	tr, comm, err := appcore.CommForPEs([]int{N}, N, flagOff+8)
	if err != nil {
		return nil, nil, err
	}

	// Distribute the graph; broadcast the initial frontier/visited state.
	adjBuf := tr.Stage(N * adjSz)
	appcore.PartitionCSR(adjBuf, g, N, adjSz)
	bd, err := comm.Run(core.Collective{Prim: core.Scatter, Dims: "1",
		Hosts: [][]byte{adjBuf}, Dst: core.Span(adjOff, adjSz), Level: lvl})
	if err := tr.Comm(core.Scatter, bd, err); err != nil {
		return nil, nil, err
	}
	init := tr.Stage(fB)
	init[cfg.Source/8] |= 1 << (cfg.Source % 8)
	bd, err = comm.Run(core.Collective{Prim: core.Broadcast, Dims: "1",
		Hosts: [][]byte{init}, Dst: core.At(frontOff), Level: lvl})
	if err := tr.Comm(core.Broadcast, bd, err); err != nil {
		return nil, nil, err
	}
	bd, err = comm.Run(core.Collective{Prim: core.Broadcast, Dims: "1",
		Hosts: [][]byte{init}, Dst: core.At(visitedOff), Level: lvl})
	if err := tr.Comm(core.Broadcast, bd, err); err != nil {
		return nil, nil, err
	}

	// Initialize distances: 0 for the source's owner, -1 elsewhere.
	tr.Kernel(func(ctx *dpu.Ctx) {
		dist := ctx.Buf(distB)
		unreached := int32(-1)
		for i := 0; i < owned; i++ {
			binary.LittleEndian.PutUint32(dist[4*i:], uint32(unreached))
		}
		clear(dist[4*owned:])
		if cfg.Source/owned == ctx.PE {
			binary.LittleEndian.PutUint32(dist[4*(cfg.Source%owned):], 0)
		}
		ctx.WriteMram(distOff, dist)
		ctx.Exec(int64(owned))
	})

	// Every traversal level replays the same frontier AllReduce and
	// termination-flag Gather; compile them once and replay.
	frontierAR, err := comm.Compile(core.Collective{Prim: core.AllReduce, Dims: "1",
		Src: core.Span(nextPartOff, fB), Dst: core.At(nextOff),
		Elem: elem.I8, Op: elem.Or, Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	flags := [][]byte{tr.Stage(N * 8)}
	flagGather, err := comm.Compile(core.Collective{Prim: core.Gather, Dims: "1",
		Src: core.Span(flagOff, 8), Level: lvl, Hosts: flags})
	if err != nil {
		return nil, nil, err
	}
	for level := int32(1); level <= int32(g.V); level++ {
		// Expansion kernel: scan owned vertices in the frontier, mark
		// unvisited neighbors in the partial next bitmap.
		tr.Kernel(func(ctx *dpu.Ctx) {
			front := ctx.Buf(fB)
			ctx.ReadMram(frontOff, front)
			visited := ctx.Buf(fB)
			ctx.ReadMram(visitedOff, visited)
			adj := ctx.Buf(adjSz)
			ctx.ReadMram(adjOff, adj)
			sg := appcore.NewSubgraphReader(adj, owned)
			next := ctx.Buf(fB)
			clear(next)
			var instr int64
			base := ctx.PE * owned
			for i := 0; i < owned; i++ {
				v := base + i
				if front[v/8]&(1<<(v%8)) == 0 {
					continue
				}
				deg := sg.Degree(i)
				for j := 0; j < deg; j++ {
					w := sg.Neighbor(i, j)
					if visited[w/8]&(1<<(w%8)) == 0 {
						next[w/8] |= 1 << (w % 8)
					}
				}
				instr += int64(deg) * 3
			}
			ctx.WriteMram(nextPartOff, next)
			ctx.Exec(instr + int64(owned)/8 + 1)
		})
		// Combine the partial frontiers: OR AllReduce (§ VII-C).
		bd, err := frontierAR.Run()
		if err := tr.Comm(core.AllReduce, bd, err); err != nil {
			return nil, nil, err
		}
		// Update kernel: fold the new frontier into visited and distances,
		// promote it to the current frontier, report emptiness.
		lv := level
		tr.Kernel(func(ctx *dpu.Ctx) {
			next := ctx.Buf(fB)
			ctx.ReadMram(nextOff, next)
			visited := ctx.Buf(fB)
			ctx.ReadMram(visitedOff, visited)
			dist := ctx.Buf(distB)
			ctx.ReadMram(distOff, dist)
			var any byte
			base := ctx.PE * owned
			for b := 0; b < fB; b++ {
				if next[b] != 0 {
					any = 1
				}
				visited[b] |= next[b]
			}
			for i := 0; i < owned; i++ {
				v := base + i
				if next[v/8]&(1<<(v%8)) != 0 {
					binary.LittleEndian.PutUint32(dist[4*i:], uint32(lv))
				}
			}
			ctx.WriteMram(visitedOff, visited)
			ctx.WriteMram(distOff, dist)
			ctx.WriteMram(frontOff, next)
			flag := ctx.Buf(8)
			clear(flag)
			flag[0] = any
			ctx.WriteMram(flagOff, flag)
			ctx.Exec(int64(fB/8 + owned))
		})
		// Host checks termination via a small Gather of the flags.
		fbd, err := flagGather.Run()
		if err := tr.Comm(core.Gather, fbd, err); err != nil {
			return nil, nil, err
		}
		if flags[0][0] == 0 { // all PEs computed the same global flag
			break
		}
	}
	// Collect distances from the owning PEs.
	bufs := [][]byte{tr.Stage(N * distB)}
	distGather, err := comm.Compile(core.Collective{Prim: core.Gather, Dims: "1",
		Src: core.Span(distOff, distB), Level: lvl, Hosts: bufs})
	if err != nil {
		return nil, nil, err
	}
	gbd, err := distGather.Run()
	if err := tr.Comm(core.Gather, gbd, err); err != nil {
		return nil, nil, err
	}
	dist := make([]int32, g.V)
	for p := 0; p < N; p++ {
		for i := 0; i < owned; i++ {
			dist[p*owned+i] = int32(binary.LittleEndian.Uint32(bufs[0][p*distB+4*i:]))
		}
	}
	tr.Finish()
	return dist, &tr.Prof, nil
}

// RunCPU computes reference distances and the roofline time for the
// CPU-only baseline.
func RunCPU(cfg Config) ([]int32, cost.Seconds, error) {
	g := cfg.graph()
	if cfg.Source < 0 || cfg.Source >= g.V {
		return nil, 0, fmt.Errorf("bfs: source %d out of range", cfg.Source)
	}
	dist := make([]int32, g.V)
	for i := range dist {
		dist[i] = -1
	}
	dist[cfg.Source] = 0
	queue := []int32{int32(cfg.Source)}
	var touchedEdges int64
	for len(queue) > 0 {
		var nextQ []int32
		for _, v := range queue {
			for _, w := range g.Neighbors(int(v)) {
				touchedEdges++
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					nextQ = append(nextQ, w)
				}
			}
		}
		queue = nextQ
	}
	cpu := appcore.DefaultCPU()
	// BFS on CPUs is memory-latency bound: every traversed edge is a
	// random access (calibrated at LiveJournal scale).
	t := cpu.GraphTime(touchedEdges) + cpu.Time(int64(g.V)*8, int64(g.V))
	return dist, t, nil
}
