// Package data provides deterministic synthetic datasets standing in for
// the paper's inputs (Table III): RMAT social graphs for LiveJournal (LJ)
// and Gowalla (LG), GNN inputs for PubMed (PM) and Reddit (RD), and a
// Criteo-like categorical click log for DLRM. Generators preserve the
// structural properties that drive communication volume (degree skew,
// density, dimensionality) at simulator-friendly scale: GraphByName and
// GNNByName build each stand-in at reproduction scale.
package data

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
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
	return distinctEdges(v, e, func() uint64 {
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
		return edgeKey(int32(lo), int32(loC))
	})
}

// Uniform generates an Erdos-Renyi-style graph with e random edges.
func Uniform(v, e int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	return distinctEdges(v, e, func() uint64 {
		u := int32(rng.Intn(v))
		return edgeKey(u, int32(rng.Intn(v)))
	})
}

// Undirected returns the graph with every edge mirrored (the CC
// preprocessing of § VII-D), deduplicated.
func Undirected(g *Graph) *Graph {
	keys := make([]uint64, 0, 2*g.NumEdges())
	for u := 0; u < g.V; u++ {
		for _, w := range g.Neighbors(u) {
			keys = append(keys, edgeKey(int32(u), w), edgeKey(w, int32(u)))
		}
	}
	return fromKeys(g.V, keys)
}

// edgeKey packs edge (u, w) into a key that orders edges by u, then w.
func edgeKey(u, w int32) uint64 { return uint64(u)<<32 | uint64(uint32(w)) }

// distinctEdges draws edge keys until e of them are distinct and returns
// the graph of those e edges. seen is an open-addressing hash set, at most
// half full, that holds key+1 so that 0 marks an empty slot.
func distinctEdges(v, e int, draw func() uint64) *Graph {
	shift := 64 - bits.Len(uint(2*e))
	seen := make([]uint64, 1<<(64-shift))
	mask := uint64(len(seen) - 1)
	keys := make([]uint64, 0, e)
	for len(keys) < e {
		k := draw() + 1
		for i := k * 0x9e3779b97f4a7c15 >> shift; seen[i] != k; i = (i + 1) & mask {
			if seen[i] == 0 {
				seen[i] = k
				keys = append(keys, k-1)
				break
			}
		}
	}
	return fromKeys(v, keys)
}

// fromKeys builds the CSR graph on v vertices whose edges are keys,
// sorted and deduplicated in place.
func fromKeys(v int, keys []uint64) *Graph {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	g := &Graph{V: v, RowPtr: make([]int32, v+1), Col: make([]int32, len(keys))}
	for i, k := range keys {
		g.RowPtr[k>>32+1]++
		g.Col[i] = int32(uint32(k))
	}
	for i := 0; i < v; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	return g
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

// Ints fills dst with integers from [lo, hi], each drawn as
// lo + rng.Intn(hi-lo+1) draws it: the same values from the same draws of
// rng (hi-lo+1 must be positive and below 1<<31). The weight, table and
// feature generators draw through it.
func Ints[T int32 | int64](rng *rand.Rand, dst []T, lo, hi int32) {
	d := newIntn(hi - lo + 1)
	for i := range dst {
		v := rng.Int31()
		for v > d.max {
			v = rng.Int31()
		}
		dst[i] = T(lo + d.mod(v))
	}
}

// PutInts is Ints into the len(dst)/4 little-endian int32 words of dst.
func PutInts(rng *rand.Rand, dst []byte, lo, hi int32) {
	var v [64]int32
	for len(dst) >= 4 {
		n := min(len(v), len(dst)/4)
		Ints(rng, v[:n], lo, hi)
		for _, x := range v[:n] {
			binary.LittleEndian.PutUint32(dst, uint32(x))
			dst = dst[4:]
		}
	}
}

// intn is rand.Rand.Int31n's arithmetic for one bound n, worked out once
// per call of Ints rather than per draw: Int31n rejects a draw above max,
// then takes it modulo n. mod is Lemire's remainder by multiplication,
// exact for every 32-bit value and divisor. (Int31n masks instead when n
// is a power of two; max is then 1<<31-1, which rejects nothing, and the
// remainder is that mask.)
type intn struct {
	max  int32
	n, m uint64
}

func newIntn(n int32) intn {
	if n <= 0 {
		panic(fmt.Sprintf("data: draw bound %d is not positive", n))
	}
	return intn{max: int32((1 << 31) - 1 - (1<<31)%uint32(n)), n: uint64(n), m: ^uint64(0)/uint64(n) + 1}
}

func (d intn) mod(v int32) int32 {
	hi, _ := bits.Mul64(d.m*uint64(v), d.n)
	return int32(hi)
}

// Features generates a dense V x F int32 feature matrix with small values
// (bounded so several GNN layers stay within int32 without UB; wraparound
// is well-defined anyway).
func Features(v, f int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, v*f)
	Ints(rng, out, -3, 3)
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
