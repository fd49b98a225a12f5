package core

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/elem"
)

// Reference implementations of the eight collective semantics (Figure 2),
// operating on plain per-rank byte slices. They are the oracle the
// simulator-backed implementations are verified against: by this
// package's tests, by internal/fuzz's checks and by the benchmark's
// output check.

// RefAlltoAll: out[j] block i = in[i] block j. Every in[i] must have n*s
// bytes where n = len(in).
func RefAlltoAll(in [][]byte, s int) [][]byte {
	n := len(in)
	out := make([][]byte, n)
	for j := range out {
		out[j] = make([]byte, n*s)
		for i := 0; i < n; i++ {
			copy(out[j][i*s:(i+1)*s], in[i][j*s:(j+1)*s])
		}
	}
	return out
}

// RefReduceScatter: out[p] = reduce over i of in[i] block p (s bytes).
func RefReduceScatter(t elem.Type, op elem.Op, in [][]byte, s int) [][]byte {
	n := len(in)
	out := make([][]byte, n)
	for p := range out {
		out[p] = refReduceBlock(t, op, in, p*s, s)
	}
	return out
}

// RefAllGather: out[j] = concat of all in[i] (each s bytes).
func RefAllGather(in [][]byte) [][]byte {
	n := len(in)
	s := len(in[0])
	out := make([][]byte, n)
	for j := range out {
		out[j] = make([]byte, n*s)
		for i := 0; i < n; i++ {
			copy(out[j][i*s:], in[i])
		}
	}
	return out
}

// RefAllReduce: out[j] = elementwise reduce over i of in[i].
func RefAllReduce(t elem.Type, op elem.Op, in [][]byte) [][]byte {
	n := len(in)
	red := RefReduce(t, op, in)
	out := make([][]byte, n)
	for j := range out {
		out[j] = append([]byte(nil), red...)
	}
	return out
}

// RefScatter: out[p] = block p of buf (s bytes each).
func RefScatter(buf []byte, n int) [][]byte {
	if len(buf)%n != 0 {
		panic(fmt.Sprintf("core: scatter buffer %d not divisible by %d", len(buf), n))
	}
	s := len(buf) / n
	out := make([][]byte, n)
	for p := range out {
		out[p] = append([]byte(nil), buf[p*s:(p+1)*s]...)
	}
	return out
}

// RefGather: concatenation of all in[i].
func RefGather(in [][]byte) []byte { return slices.Concat(in...) }

// RefReduce: elementwise reduce over i of in[i].
func RefReduce(t elem.Type, op elem.Op, in [][]byte) []byte {
	return refReduceBlock(t, op, in, 0, len(in[0]))
}

// RefBroadcast: every rank receives a copy of buf.
func RefBroadcast(buf []byte, n int) [][]byte {
	out := make([][]byte, n)
	for j := range out {
		out[j] = append([]byte(nil), buf...)
	}
	return out
}

// refReduceBlock folds block [off, off+s) of every later in[i] into a
// copy of in[0]'s. Its callers never pass it no input.
func refReduceBlock(t elem.Type, op elem.Op, in [][]byte, off, s int) []byte {
	out := bytes.Clone(in[0][off : off+s])
	for _, b := range in[1:] {
		elem.ReduceInto(t, op, out, b[off:off+s])
	}
	return out
}
