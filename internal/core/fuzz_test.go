package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/elem"
)

// fuzzDescBytes is the wire size of one fuzzed descriptor: four int64
// region fields, five one-byte enums, a dims selector, and the Hosts
// shape (count, then a 16-bit buffer size).
const fuzzDescBytes = 4*8 + 5 + 1 + 1 + 2

// fuzzDims are the dims strings a fuzzed descriptor selects from: every
// valid selection of the 8×8 test hypercube plus malformed ones.
var fuzzDims = []string{"10", "01", "11", "00", "", "1", "12", "111"}

// encodeDesc is decodeDesc's inverse for the seed corpus (Hosts buffers
// must share one length).
func encodeDesc(d Collective) []byte {
	b := make([]byte, fuzzDescBytes)
	for i, v := range []int{d.Src.Off, d.Src.Bytes, d.Dst.Off, d.Dst.Bytes} {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	b[32], b[33], b[34], b[35], b[36] = byte(d.Prim), byte(d.Elem), byte(d.Op), byte(d.Level), byte(d.Algorithm)
	for i, s := range fuzzDims {
		if s == d.Dims {
			b[37] = byte(i)
		}
	}
	b[38] = byte(len(d.Hosts))
	if len(d.Hosts) > 0 {
		binary.LittleEndian.PutUint16(b[39:], uint16(len(d.Hosts[0])))
	}
	return b
}

// decodeDesc maps arbitrary bytes onto a Collective: short inputs are
// zero-padded, enums are signed so negative values occur.
func decodeDesc(data []byte) Collective {
	b := make([]byte, fuzzDescBytes)
	copy(b, data)
	i64 := func(i int) int { return int(int64(binary.LittleEndian.Uint64(b[8*i:]))) }
	d := Collective{
		Src:       Region{Off: i64(0), Bytes: i64(1)},
		Dst:       Region{Off: i64(2), Bytes: i64(3)},
		Prim:      Primitive(int8(b[32])),
		Elem:      elem.Type(int8(b[33])),
		Op:        elem.Op(int8(b[34])),
		Level:     Level(int8(b[35])),
		Algorithm: Algorithm(int8(b[36])),
		Dims:      fuzzDims[int(b[37])%len(fuzzDims)],
	}
	if n := int(b[38]) % 10; n > 0 {
		d.Hosts = make([][]byte, n)
		for g := range d.Hosts {
			d.Hosts[g] = make([]byte, binary.LittleEndian.Uint16(b[39:]))
		}
	}
	return d
}

// FuzzCollectiveCompile feeds arbitrary descriptors to Compile on a
// cost-only comm: whatever the bytes say, the answer is a plan or an
// error, never a panic. The seed corpus is the eight valid shapes.
func FuzzCollectiveCompile(f *testing.F) {
	const n, m = 8, 8 * 64 // group size of dims "10", payload
	hosts := func(bytes int) [][]byte {
		out := make([][]byte, 8)
		for g := range out {
			out[g] = make([]byte, bytes)
		}
		return out
	}
	c := newTestComm(f, geo64, []int{8, 8}, Config{Backend: CostBackend()})
	for _, d := range []Collective{
		{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(2 * m), Level: CM},
		{Prim: ReduceScatter, Dims: "10", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum},
		{Prim: AllReduce, Dims: "10", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I16, Op: elem.Max, Level: IM, Algorithm: AlgoReference},
		{Prim: AllGather, Dims: "10", Src: Span(0, m/n), Dst: Span(2*m, m), Level: PR},
		{Prim: Scatter, Dims: "10", Dst: Span(0, m/n), Hosts: hosts(m), Level: IM},
		{Prim: Gather, Dims: "10", Src: Span(0, m/n), Level: Baseline},
		{Prim: Reduce, Dims: "10", Src: Span(0, m), Elem: elem.I64, Op: elem.Xor},
		{Prim: Broadcast, Dims: "10", Dst: At(0), Hosts: hosts(m)},
	} {
		seed := encodeDesc(d)
		if _, err := c.Compile(decodeDesc(seed)); err != nil {
			f.Fatalf("seed %v does not compile: %v", d.Prim, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := c.Compile(decodeDesc(data))
		if (cp == nil) == (err == nil) {
			t.Fatalf("Compile returned plan %v and error %v", cp, err)
		}
	})
}
