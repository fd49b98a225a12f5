// Package data provides deterministic synthetic datasets standing in for
// the paper's inputs (Table III): RMAT social graphs for LiveJournal (LJ)
// and Gowalla (LG), GNN inputs for PubMed (PM) and Reddit (RD), and a
// Criteo-like categorical click log for DLRM. Generators preserve the
// structural properties that drive communication volume (degree skew,
// density, dimensionality) at simulator-friendly scale: GraphByName and
// GNNByName build each stand-in at reproduction scale.
package data

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a directed graph in CSR form. Vertex IDs are dense [0, V).
type Graph struct {
	V      int
	RowPtr []int32 // len V+1
	Col    []int32 // len E
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Col) }

// OutDegree returns vertex v's out-degree.
func (g *Graph) OutDegree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// Neighbors returns vertex v's out-neighbor slice (shared storage).
func (g *Graph) Neighbors(v int) []int32 {
	return g.Col[g.RowPtr[v]:g.RowPtr[v+1]]
}

// RMAT generates a scale-free graph with the classic R-MAT recursive
// partitioning (a=0.57, b=0.19, c=0.19, d=0.05 — the Graph500 skew that
// social networks like LiveJournal exhibit). Self-loops are kept,
// duplicate edges removed, and adjacency lists sorted.
func RMAT(v, e int, seed int64) *Graph {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("data: RMAT vertex count %d must be a positive power of two", v))
	}
	rng := rand.New(rand.NewSource(seed))
	type edge struct{ u, w int32 }
	seen := make(map[[2]int32]bool, e)
	edges := make([]edge, 0, e)
	for len(edges) < e {
		lo, hi := 0, v
		loC, hiC := 0, v
		for hi-lo > 1 {
			r := rng.Float64()
			switch {
			case r < 0.57: // a: top-left
				hi = (lo + hi) / 2
				hiC = (loC + hiC) / 2
			case r < 0.76: // b: top-right
				hi = (lo + hi) / 2
				loC = (loC + hiC) / 2
			case r < 0.95: // c: bottom-left
				lo = (lo + hi) / 2
				hiC = (loC + hiC) / 2
			default: // d: bottom-right
				lo = (lo + hi) / 2
				loC = (loC + hiC) / 2
			}
		}
		k := [2]int32{int32(lo), int32(loC)}
		if !seen[k] {
			seen[k] = true
			edges = append(edges, edge{k[0], k[1]})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].w < edges[j].w
	})
	g := &Graph{V: v, RowPtr: make([]int32, v+1), Col: make([]int32, len(edges))}
	for i, ed := range edges {
		g.RowPtr[ed.u+1]++
		g.Col[i] = ed.w
	}
	for i := 0; i < v; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	return g
}

// Uniform generates an Erdos-Renyi-style graph with e random edges.
func Uniform(v, e int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	type edge struct{ u, w int32 }
	seen := make(map[[2]int32]bool, e)
	edges := make([]edge, 0, e)
	for len(edges) < e {
		k := [2]int32{int32(rng.Intn(v)), int32(rng.Intn(v))}
		if !seen[k] {
			seen[k] = true
			edges = append(edges, edge{k[0], k[1]})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].w < edges[j].w
	})
	g := &Graph{V: v, RowPtr: make([]int32, v+1), Col: make([]int32, len(edges))}
	for i, ed := range edges {
		g.RowPtr[ed.u+1]++
		g.Col[i] = ed.w
	}
	for i := 0; i < v; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	return g
}

// Undirected returns the graph with every edge mirrored (the CC
// preprocessing of § VII-D), deduplicated.
func Undirected(g *Graph) *Graph {
	seen := make(map[[2]int32]bool, 2*g.NumEdges())
	type edge struct{ u, w int32 }
	var edges []edge
	add := func(u, w int32) {
		k := [2]int32{u, w}
		if !seen[k] {
			seen[k] = true
			edges = append(edges, edge{u, w})
		}
	}
	for u := 0; u < g.V; u++ {
		for _, w := range g.Neighbors(u) {
			add(int32(u), w)
			add(w, int32(u))
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].w < edges[j].w
	})
	out := &Graph{V: g.V, RowPtr: make([]int32, g.V+1), Col: make([]int32, len(edges))}
	for i, ed := range edges {
		out.RowPtr[ed.u+1]++
		out.Col[i] = ed.w
	}
	for i := 0; i < g.V; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// GraphByName builds the named benchmark graph at reproduction scale:
// "LJ" (LiveJournal-like, large skewed), "LG" (Gowalla-like, smaller).
func GraphByName(name string) *Graph {
	switch name {
	case "LJ":
		return RMAT(1<<15, 1<<18, 1001)
	case "LG":
		return RMAT(1<<13, 1<<15, 1002)
	default:
		panic(fmt.Sprintf("data: unknown graph %q", name))
	}
}

// Features generates a dense V x F int32 feature matrix with small values
// (bounded so several GNN layers stay within int32 without UB; wraparound
// is well-defined anyway).
func Features(v, f int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, v*f)
	for i := range out {
		out[i] = int32(rng.Intn(7)) - 3
	}
	return out
}

// GNNInput bundles a graph and features for the GNN benchmarks.
type GNNInput struct {
	Name  string
	Graph *Graph
	F     int // feature width
}

// GNNByName builds "PM" (PubMed-like: small, sparse) or "RD"
// (Reddit-like: denser, wider) at reproduction scale.
func GNNByName(name string) GNNInput {
	switch name {
	case "PM":
		return GNNInput{Name: name, Graph: RMAT(1<<12, 1<<14, 2001), F: 256}
	case "RD":
		return GNNInput{Name: name, Graph: RMAT(1<<13, 1<<17, 2002), F: 320}
	default:
		panic(fmt.Sprintf("data: unknown GNN input %q", name))
	}
}

// ClickLog is a Criteo-like categorical log: for each sample, one row
// index per embedding table, with a Zipf-like popularity skew.
type ClickLog struct {
	Tables  int
	Rows    int // rows per table
	Batch   int
	Indices []int32 // Batch x Tables, row-major
}

// Clicks generates a click log with zipfian row popularity (s=1.07, like
// production recommendation traffic).
func Clicks(tables, rows, batch int, seed int64) *ClickLog {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.07, 1, uint64(rows-1))
	log := &ClickLog{Tables: tables, Rows: rows, Batch: batch, Indices: make([]int32, batch*tables)}
	for i := range log.Indices {
		log.Indices[i] = int32(z.Uint64())
	}
	return log
}

// Index returns the row index for (sample, table).
func (c *ClickLog) Index(sample, table int) int32 {
	return c.Indices[sample*c.Tables+table]
}
