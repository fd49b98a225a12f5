package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Layout of a check on a group of n ranks at block size s: every rank
// holds m = n·s random bytes at offset 0 and its input is the first src
// bytes of those; a non-rooted result lands at 2m (at 0 in place), dst
// bytes per rank; each group reads one random host payload of host
// bytes, or a rooted row writes one zeroed host buffer of host bytes.

// size is the byte count of one role of a check.
type size uint8

const (
	none    size = iota // the primitive has no such role
	block               // s bytes
	payload             // m = n·s bytes
	drawn               // 8-200 bytes, drawn once per run (Broadcast's payload)
)

// check is one row of the table.
type check struct {
	prim           core.Primitive
	src, dst, host size
	// inPlace runs with Dst at Src, on the staged levels: at IM and above
	// the level becomes Auto, which must skip the streaming candidates.
	inPlace bool
	// ref returns each rank's result of a group, given the group's inputs
	// and host payload; a rooted primitive returns its one host result.
	ref func(d core.Collective, in [][]byte, host []byte) [][]byte
}

func (k check) String() string {
	if k.inPlace {
		return "in-place " + k.prim.LongName()
	}
	return k.prim.LongName()
}

func refAlltoAll(_ core.Collective, in [][]byte, _ []byte) [][]byte {
	return core.RefAlltoAll(in, len(in[0])/len(in))
}

// checks is the table: the eight primitives and the in-place AlltoAll.
var checks = []check{
	{prim: core.AlltoAll, src: payload, dst: payload, ref: refAlltoAll},
	{prim: core.AlltoAll, src: payload, dst: payload, inPlace: true, ref: refAlltoAll},
	{prim: core.ReduceScatter, src: payload, dst: block, ref: func(d core.Collective, in [][]byte, _ []byte) [][]byte {
		return core.RefReduceScatter(d.Elem, d.Op, in, len(in[0])/len(in))
	}},
	{prim: core.AllReduce, src: payload, dst: payload, ref: func(d core.Collective, in [][]byte, _ []byte) [][]byte {
		return core.RefAllReduce(d.Elem, d.Op, in)
	}},
	{prim: core.AllGather, src: block, dst: payload, ref: func(_ core.Collective, in [][]byte, _ []byte) [][]byte {
		return core.RefAllGather(in)
	}},
	{prim: core.Scatter, dst: block, host: payload, ref: func(_ core.Collective, in [][]byte, host []byte) [][]byte {
		return core.RefScatter(host, len(in))
	}},
	{prim: core.Gather, src: block, host: payload, ref: func(_ core.Collective, in [][]byte, _ []byte) [][]byte {
		return [][]byte{core.RefGather(in)}
	}},
	{prim: core.Reduce, src: payload, ref: func(d core.Collective, in [][]byte, _ []byte) [][]byte {
		return [][]byte{core.RefReduce(d.Elem, d.Op, in)}
	}},
	{prim: core.Broadcast, dst: drawn, host: drawn, ref: func(_ core.Collective, in [][]byte, host []byte) [][]byte {
		return core.RefBroadcast(host, len(in))
	}},
}

// ranks is the communicator a check runs on: the ranks of each
// communication group, a rank's bytes at an arena offset, and a run of a
// descriptor that returns its rooted results, one per group (where the
// descriptor has no Hosts to write them to).
type ranks struct {
	groups [][]int
	set    func(rank, off int, b []byte)
	get    func(rank, off, n int) []byte
	run    func(core.Collective) ([][]byte, error)
}

// verify runs the row on r at block size s and compares every group's
// result with the reference model. d carries the caller's Dims, Elem,
// Op, Level and Algorithm; the row fills in the rest.
func (k check) verify(rng *rand.Rand, r ranks, d core.Collective, s int) error {
	m := len(r.groups[0]) * s
	drawnBytes := 0
	if k.dst == drawn || k.host == drawn {
		drawnBytes = 8 * (1 + rng.Intn(25))
	}
	of := func(z size) int {
		return [...]int{none: 0, block: s, payload: m, drawn: drawnBytes}[z]
	}
	src, dst, host := of(k.src), of(k.dst), of(k.host)

	// Fill every rank; its input is the head of its bytes.
	in := make([][][]byte, len(r.groups))
	for g, grp := range r.groups {
		in[g] = make([][]byte, len(grp))
		for i, rank := range grp {
			b := make([]byte, m)
			rng.Read(b)
			r.set(rank, 0, b)
			in[g][i] = b[:src]
		}
	}
	// Draw the payloads, one per group; a rooted row's stay zeroed.
	hosts := make([][]byte, len(r.groups))
	if host > 0 {
		for g := range hosts {
			hosts[g] = make([]byte, host)
			if dst > 0 {
				rng.Read(hosts[g])
			}
		}
		d.Hosts = hosts
	}
	// Build the descriptor and run it.
	d.Prim = k.prim
	if src > 0 {
		d.Src = core.Span(0, src)
	}
	off := 2 * m
	if k.inPlace {
		off = 0
		if core.EffectiveLevel(k.prim, d.Level) >= core.IM {
			d.Level = core.Auto
		}
	}
	if dst > 0 {
		d.Dst = core.Span(off, dst)
	}
	got, err := r.run(d)
	if err != nil {
		return fmt.Errorf("%v: %w", k, err)
	}
	if dst == 0 && host > 0 {
		got = hosts // the rooted results must be in the caller's Hosts
	}
	// Compare each group at Dst, or its rooted result.
	for g, grp := range r.groups {
		want := k.ref(d, in[g], hosts[g])
		if dst == 0 {
			if g >= len(got) || !bytes.Equal(got[g], want[0]) {
				return fmt.Errorf("%v diverges at group %d", k, g)
			}
			continue
		}
		for j, rank := range grp {
			if !bytes.Equal(r.get(rank, off, dst), want[j]) {
				return fmt.Errorf("%v diverges at rank %d", k, rank)
			}
		}
	}
	return nil
}
