package pidcomm_test

import (
	"fmt"
	"testing"

	"repro/pidcomm"
)

// validGeo is one 16-PE host; every communicator below is the whole
// machine (or cluster) as a single group.
var validGeo = pidcomm.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 14}

// validShape returns a well-formed descriptor of prim on one group of n
// ranks: 8-byte blocks, source at 0, destination at 4096.
func validShape(prim pidcomm.Primitive, n int) pidcomm.Collective {
	m := 8 * n
	d := pidcomm.Collective{Prim: prim, Dims: "1", Level: pidcomm.PR}
	switch prim {
	case pidcomm.AlltoAll:
		d.Src, d.Dst = pidcomm.Span(0, m), pidcomm.At(4096)
	case pidcomm.ReduceScatter, pidcomm.AllReduce:
		d.Src, d.Dst, d.Elem, d.Op = pidcomm.Span(0, m), pidcomm.At(4096), pidcomm.I32, pidcomm.Sum
	case pidcomm.AllGather:
		d.Src, d.Dst = pidcomm.Span(0, 16), pidcomm.At(4096)
	case pidcomm.Scatter:
		d.Hosts, d.Dst = [][]byte{make([]byte, m)}, pidcomm.Span(4096, 8)
	case pidcomm.Gather:
		d.Src = pidcomm.Span(0, 8)
	case pidcomm.Reduce:
		d.Src, d.Elem, d.Op = pidcomm.Span(0, m), pidcomm.I32, pidcomm.Sum
	case pidcomm.Broadcast:
		d.Hosts, d.Dst = [][]byte{make([]byte, 64)}, pidcomm.At(4096)
	}
	return d
}

// malformed returns every way of breaking d the shape table must reject,
// by name. A breakage that does not apply to d's primitive is absent.
func malformed(d pidcomm.Collective) map[string]pidcomm.Collective {
	hostInput := d.Prim == pidcomm.Scatter || d.Prim == pidcomm.Broadcast
	rooted := d.Prim == pidcomm.Gather || d.Prim == pidcomm.Reduce
	reducing := d.Prim == pidcomm.ReduceScatter || d.Prim == pidcomm.AllReduce || d.Prim == pidcomm.Reduce
	blocked := reducing || d.Prim == pidcomm.AlltoAll
	out := map[string]pidcomm.Collective{}
	mut := func(name string, f func(d *pidcomm.Collective)) {
		c := d
		f(&c)
		out[name] = c
	}
	// The region the payload size is read from, and the one it lands in.
	payload := func(d *pidcomm.Collective) *pidcomm.Region {
		if hostInput {
			return &d.Dst
		}
		return &d.Src
	}
	last := func(d *pidcomm.Collective) *pidcomm.Region {
		if rooted {
			return &d.Src
		}
		return &d.Dst
	}

	mut("unknown primitive", func(d *pidcomm.Collective) { d.Prim = 99 })
	mut("misaligned offset", func(d *pidcomm.Collective) { payload(d).Off += 4 })
	mut("out of arena", func(d *pidcomm.Collective) { last(d).Off = 1 << 14 })
	mut("negative offset", func(d *pidcomm.Collective) { last(d).Off = -8 })
	mut("offset overflow", func(d *pidcomm.Collective) { last(d).Off = 1<<63 - 8 })
	// An empty region may sit at its arena's end, where it would name the
	// next arena's first byte.
	mut("empty payload", func(d *pidcomm.Collective) {
		if hostInput {
			d.Dst.Bytes, d.Hosts = 0, [][]byte{{}}
		} else {
			d.Src.Bytes = 0
		}
	})
	if hostInput {
		mut("superfluous Src", func(d *pidcomm.Collective) { d.Src = pidcomm.Span(0, 8) })
		mut("missing Hosts", func(d *pidcomm.Collective) { d.Hosts = nil })
		mut("extra Hosts buffer", func(d *pidcomm.Collective) { d.Hosts = append(d.Hosts, d.Hosts[0]) })
		mut("misaligned size", func(d *pidcomm.Collective) { d.Hosts = [][]byte{make([]byte, len(d.Hosts[0])+4)} })
		mut("wrong implied size", func(d *pidcomm.Collective) { d.Dst.Bytes = len(d.Hosts[0]) + 8 })
	} else {
		mut("Hosts on a non-host-input primitive", func(d *pidcomm.Collective) { d.Hosts = [][]byte{make([]byte, 8)} })
		mut("misaligned size", func(d *pidcomm.Collective) { d.Src.Bytes += 4 })
	}
	if rooted {
		mut("superfluous Dst", func(d *pidcomm.Collective) { d.Dst = pidcomm.At(4096) })
	}
	if !hostInput && !rooted {
		mut("wrong implied size", func(d *pidcomm.Collective) { d.Dst.Bytes = d.Src.Bytes + 8 })
		mut("partial src/dst overlap", func(d *pidcomm.Collective) { d.Dst.Off = d.Src.Off + d.Src.Bytes - 8 })
		if d.Prim == pidcomm.AlltoAll {
			mut("in place at IM", func(d *pidcomm.Collective) { d.Dst.Off, d.Level = d.Src.Off, pidcomm.IM })
			mut("in place at CM", func(d *pidcomm.Collective) { d.Dst.Off, d.Level = d.Src.Off, pidcomm.CM })
		} else {
			mut("in place", func(d *pidcomm.Collective) { d.Dst.Off = d.Src.Off })
		}
	}
	if blocked {
		mut("payload not a whole number of blocks", func(d *pidcomm.Collective) { d.Src.Bytes += 8 })
	}
	if reducing {
		mut("unknown Elem", func(d *pidcomm.Collective) { d.Elem = 99 })
		mut("negative Elem", func(d *pidcomm.Collective) { d.Elem = -1 })
		mut("unknown Op", func(d *pidcomm.Collective) { d.Op = 99 })
	}
	return out
}

// Every malformed descriptor must come back from Compile as an error —
// never a plan, never a panic — on a single machine and on a cluster
// with a non-power-of-two host count (n = H×P), for every primitive.
func TestMalformedDescriptorsError(t *testing.T) {
	mach, err := pidcomm.NewMachine(validGeo, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := mach.Comm()
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 3
	cl, err := pidcomm.NewCluster(hosts, validGeo, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	targets := []struct {
		name    string
		n       int
		compile func(d pidcomm.Collective) error
	}{
		{"machine", 16, func(d pidcomm.Collective) error {
			_, err := comm.Compile(d)
			return err
		}},
		{"cluster", hosts * 16, func(d pidcomm.Collective) error {
			_, err := cl.Compile(pidcomm.ClusterCollective{Collective: d})
			return err
		}},
	}
	for _, tg := range targets {
		for _, prim := range []pidcomm.Primitive{pidcomm.AlltoAll, pidcomm.ReduceScatter, pidcomm.AllReduce,
			pidcomm.AllGather, pidcomm.Scatter, pidcomm.Gather, pidcomm.Reduce, pidcomm.Broadcast} {
			good := validShape(prim, tg.n)
			if err := tg.compile(good); err != nil {
				t.Fatalf("%s %v: well-formed descriptor rejected: %v", tg.name, prim, err)
			}
			for name, bad := range malformed(good) {
				t.Run(fmt.Sprintf("%s/%v/%s", tg.name, prim, name), func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("Compile panicked: %v", r)
						}
					}()
					if err := tg.compile(bad); err == nil {
						t.Error("Compile accepted the descriptor")
					}
				})
			}
		}
	}
}
