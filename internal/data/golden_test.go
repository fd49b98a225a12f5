package data

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// digest is a short hash of a graph's V, RowPtr and Col.
func digest(g *Graph) string {
	h := sha256.New()
	var b [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	put(int32(g.V))
	for _, v := range g.RowPtr {
		put(v)
	}
	for _, v := range g.Col {
		put(v)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// The generators output the graphs they always have: every app input, and
// every figure built on one, is a function of these bytes. The digests were
// taken from the map-and-sort.Slice generators.
func TestGraphGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() *Graph
		want string
	}{
		{"RMAT(256,1024,7)", func() *Graph { return RMAT(256, 1024, 7) }, "8589adc86e791b1d"},
		{"RMAT(1024,4096,1)", func() *Graph { return RMAT(1024, 4096, 1) }, "48221c15d3f712fc"},
		{"RMAT(16384,65536,8)", func() *Graph { return RMAT(1<<14, 1<<16, 8) }, "9990f0fcf3690825"},
		{"RMAT(4096,32768,3)", func() *Graph { return RMAT(4096, 1<<15, 3) }, "241043009f993517"},
		{"Uniform(1000,5000,3)", func() *Graph { return Uniform(1000, 5000, 3) }, "b04bff49c59c38bf"},
		{"Uniform(4096,32768,3)", func() *Graph { return Uniform(4096, 1<<15, 3) }, "114c52cf76a20913"},
		{"Uniform(64,3000,9)", func() *Graph { return Uniform(64, 3000, 9) }, "3e5da3eb9a9f0efa"},
		{"Undirected(RMAT(512,2048,5))", func() *Graph { return Undirected(RMAT(512, 2048, 5)) }, "9e73a2bb1d335fc9"},
		{"Undirected(RMAT(2048,8192,9))", func() *Graph { return Undirected(RMAT(2048, 8192, 9)) }, "fde9dab0ff075fbc"},
		{"Undirected(Uniform(300,900,2))", func() *Graph { return Undirected(Uniform(300, 900, 2)) }, "b131167631e707f1"},
	} {
		if got := digest(tc.g()); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
