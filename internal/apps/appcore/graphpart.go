package appcore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/data"
)

// CSRSize returns the common size of one part of g's n-way PartitionCSR:
// PE p owns vertices [p*V/n, (p+1)*V/n), and its part holds
//
//	[rowptr: (ownedV+1) x u32, local offsets][cols: edges x u32]
//
// padded to the largest part's 8-byte-aligned size.
func CSRSize(g *data.Graph, n int) (int, error) {
	if g.V%n != 0 {
		return 0, fmt.Errorf("appcore: %d vertices not divisible by %d PEs", g.V, n)
	}
	owned := g.V / n
	maxSz := 0
	for p := 0; p < n; p++ {
		edges := int(g.RowPtr[(p+1)*owned] - g.RowPtr[p*owned])
		maxSz = max(maxSz, 4*(owned+1)+4*edges)
	}
	return (maxSz + 7) &^ 7, nil
}

// PartitionCSR writes g's n per-PE subgraphs back to back into dst — a
// Scatter's host payload as it is, PE p's part at [p*size, (p+1)*size)
// for size = CSRSize(g, n). dst holds n*size bytes that read zero, which
// become each part's padding.
func PartitionCSR(dst []byte, g *data.Graph, n, size int) {
	owned := g.V / n
	for p := 0; p < n; p++ {
		buf := dst[p*size : (p+1)*size]
		base := g.RowPtr[p*owned]
		for i := 0; i <= owned; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(g.RowPtr[p*owned+i]-base))
		}
		for i, c := range g.Col[base:g.RowPtr[(p+1)*owned]] {
			binary.LittleEndian.PutUint32(buf[4*(owned+1)+4*i:], uint32(c))
		}
	}
}

// SubgraphReader decodes a PartitionCSR buffer inside a DPU kernel.
// The caller supplies the raw bytes read from MRAM.
type SubgraphReader struct {
	owned int
	buf   []byte
}

// NewSubgraphReader wraps a serialized subgraph with ownedV vertices.
func NewSubgraphReader(buf []byte, ownedV int) *SubgraphReader {
	return &SubgraphReader{owned: ownedV, buf: buf}
}

// Degree returns local vertex i's edge count.
func (r *SubgraphReader) Degree(i int) int {
	return int(r.rowptr(i+1) - r.rowptr(i))
}

// Neighbor returns the j-th neighbor (global vertex ID) of local vertex i.
func (r *SubgraphReader) Neighbor(i, j int) int32 {
	off := 4*(r.owned+1) + 4*(int(r.rowptr(i))+j)
	return int32(binary.LittleEndian.Uint32(r.buf[off:]))
}

func (r *SubgraphReader) rowptr(i int) uint32 {
	return binary.LittleEndian.Uint32(r.buf[4*i:])
}
