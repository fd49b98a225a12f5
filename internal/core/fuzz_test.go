package core

import (
	"encoding/binary"
	"strings"
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
// error, never a panic, and an out-of-range Level is an error. The seed
// corpus is the eight valid shapes, plus Gather and Reduce writing Hosts.
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
		{Prim: Gather, Dims: "10", Src: Span(0, m/n), Hosts: hosts(m), Level: IM},
		{Prim: Reduce, Dims: "10", Src: Span(0, m), Elem: elem.I64, Op: elem.Xor},
		{Prim: Reduce, Dims: "10", Src: Span(0, m), Elem: elem.I32, Op: elem.Max, Hosts: hosts(m), Level: Baseline},
		{Prim: Broadcast, Dims: "10", Dst: At(0), Hosts: hosts(m)},
	} {
		seed := encodeDesc(d)
		if _, err := c.Compile(decodeDesc(seed)); err != nil {
			f.Fatalf("seed %v does not compile: %v", d.Prim, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeDesc(data)
		cp, err := c.Compile(d)
		if (cp == nil) == (err == nil) {
			t.Fatalf("Compile returned plan %v and error %v", cp, err)
		}
		if (d.Level < Auto || d.Level > CM) && err == nil {
			t.Fatalf("Compile accepted %v", d.Level)
		}
	})
}

// FuzzParse feeds arbitrary strings to the three parsers: a name either
// parses to a value that prints back as the input or errors — the two
// name parsers listing every name of their table — and nothing panics.
// The seed corpus is every table name plus TestParseDims' inputs.
func FuzzParse(f *testing.F) {
	hc := newTestComm(f, geo64, []int{4, 2, 8}, Config{Backend: CostBackend()}).Hypercube()
	var algNames, polNames []string
	for _, a := range append([]Algorithm{AlgoAuto}, Algorithms()...) {
		algNames = append(algNames, a.String())
	}
	for _, p := range SchedPolicies() {
		polNames = append(polNames, p.String())
	}
	for _, s := range append(append([]string{"101", "", "1", "1010", "abc", "000", "nope"}, algNames...), polNames...) {
		f.Add(s)
	}
	listsAll := func(t *testing.T, err error, names []string) {
		for _, n := range names {
			if !strings.Contains(err.Error(), n) {
				t.Fatalf("parse error %q does not list %q", err, n)
			}
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		if a, err := ParseAlgorithm(s); err != nil {
			listsAll(t, err, algNames)
		} else if a.String() != s {
			t.Fatalf("ParseAlgorithm(%q) = %v", s, a)
		}
		if p, err := ParseSchedPolicy(s); err != nil {
			listsAll(t, err, polNames)
		} else if p.String() != s {
			t.Fatalf("ParseSchedPolicy(%q) = %v", s, p)
		}
		if sel, err := hc.ParseDims(s); err == nil {
			var on []int
			for i, b := range sel {
				if b {
					on = append(on, i)
				}
			}
			if back := DimsString(len(sel), on...); back != s || len(on) == 0 {
				t.Fatalf("ParseDims(%q) = %v, which prints as %q", s, sel, back)
			}
		}
	})
}

// FuzzClusterCompile feeds arbitrary cluster descriptors — a fuzzed
// Collective plus a root byte and a flat byte — to two cost-only 3-host
// clusters, one on the whole-cluster session and one on a 4 KiB session
// carved behind a pad. A rejected descriptor returns no plan; an
// accepted one gives
// every host the plan a per-host build of that host produces
// (perHostBuild, the role oracle) and replays with a run total equal to
// its precomputed cost. The seed corpus is the leg table: every
// primitive, the flat AllReduce and the pinned wire legs.
func FuzzClusterCompile(f *testing.F) {
	const H, P, s = 3, 16, 8
	const m = H * P * s
	whole := withSessions(f, testCluster(f, H, geoHost, []int{P}, true))
	padded := testCluster(f, H, geoHost, []int{P}, true)
	var sharded *ClusterTenant
	for _, bytes := range []int{rolePad, 4 << 10} {
		var err error
		if sharded, err = padded.NewTenant(TenantConfig{ArenaBytes: bytes}); err != nil {
			f.Fatal(err)
		}
	}
	decode := func(data []byte) ClusterCollective {
		var tail [2]byte
		if len(data) > fuzzDescBytes {
			copy(tail[:], data[fuzzDescBytes:])
		}
		return ClusterCollective{Collective: decodeDesc(data), Root: int(int8(tail[0])), Flat: tail[1]&1 == 1}
	}
	reduce := func(p Primitive, alg Algorithm) Collective {
		return Collective{Prim: p, Dims: "1", Src: Span(0, m), Dst: At(8192), Elem: elem.I32, Op: elem.Sum, Level: IM, Algorithm: alg}
	}
	rooted := reduce(Reduce, AlgoAuto)
	rooted.Dst = Region{}
	for _, d := range []ClusterCollective{
		{Collective: Collective{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(8192), Level: IM}},
		{Collective: reduce(ReduceScatter, AlgoAuto)},
		{Collective: reduce(AllReduce, AlgoAuto)},
		{Collective: reduce(AllReduce, AlgoRing)},
		{Collective: reduce(AllReduce, AlgoTree), Root: 2},
		{Collective: reduce(AllReduce, AlgoAuto), Flat: true},
		{Collective: Collective{Prim: AllGather, Dims: "1", Src: Span(0, s), Dst: At(8192), Level: IM}},
		{Collective: Collective{Prim: Scatter, Dims: "1", Dst: Span(0, s), Level: IM}, Root: 1},
		{Collective: Collective{Prim: Gather, Dims: "1", Src: Span(0, s), Level: IM}},
		{Collective: rooted},
		{Collective: Collective{Prim: Broadcast, Dims: "1", Dst: Span(0, 256), Level: IM}},
	} {
		seed := append(encodeDesc(d.Collective), byte(d.Root), 0)
		if d.Flat {
			seed[len(seed)-1] = 1
		}
		if _, err := whole.Compile(decode(seed)); err != nil {
			f.Fatalf("seed %v does not compile: %v", d.Prim, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decode(data)
		for _, s := range []*ClusterTenant{whole.s, sharded} {
			cp, err := s.Compile(d)
			if err != nil {
				if cp != nil {
					t.Fatalf("rejected descriptor (%v) returned plan %v", err, cp)
				}
				continue
			}
			for h := range s.cl.comms {
				want, global, err := perHostBuild(s, d, h)
				if err != nil {
					t.Fatalf("host %d: compile accepted what the per-host build rejects: %v", h, err)
				}
				if diff := diffPlans(cp.HostPlan(h), want, globalOf(cp), global); diff != "" {
					t.Fatalf("host %d of %+v: %s", h, d, diff)
				}
			}
			if bd, err := cp.Run(); err != nil || bd.Total() != cp.Cost().Total() {
				t.Fatalf("Run = %v, %v; Cost = %v", bd.Total(), err, cp.Cost().Total())
			}
		}
	})
}
