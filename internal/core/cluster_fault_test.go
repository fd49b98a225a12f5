package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/elem"
)

// faultBackend is the functional backend with one injected fault: the
// at-th byte-moving step (rotate, bulk or column stream, counted from 0
// across runs) that comm target moves panics; at < 0 never fires.
// Booking-only steps move nothing and are not counted. Only target's
// steps touch the count, one run at a time under its execMu.
type faultBackend struct {
	functionalBackend
	target *Comm
	at, n  int
}

func (f *faultBackend) move(c *Comm, st Step) {
	switch st.(type) {
	case *StepRotateBlocks, *StepBulk, *StepColumnStream:
		if c == f.target {
			if f.n++; f.n-1 == f.at {
				panic(fmt.Sprintf("injected fault at step %d", f.at))
			}
		}
	}
	f.functionalBackend.move(c, st)
}

// within runs fn and fails the test if it does not return in time: a
// host stranded waiting for a peer must fail the test, not hang it.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s: a host is stranded", what)
		return nil
	}
}

// A host that fails mid-schedule must not strand its peers: a functional
// cluster's failed run, serial or submitted, returns the error, before or
// after the wire leg, and the next run of that plan and of another plan
// is correct on every host.
func TestClusterHostFaultUnwindsPeers(t *testing.T) {
	const P, m = 16, 256
	for _, H := range []int{2, 3} {
		for _, submit := range []bool{false, true} {
			for _, last := range []bool{false, true} {
				t.Run(fmt.Sprintf("H%d/submit=%v/afterWire=%v", H, submit, last), func(t *testing.T) {
					fb := &faultBackend{at: -1}
					cl, err := NewCluster(H, geoHost, []int{P}, Config{Backend: fb})
					if err != nil {
						t.Fatal(err)
					}
					fb.target = cl.Host(0)
					sc := withSessions(t, cl)
					ranks := clusterRanks(t, sc, "1")
					ar := func(dst int) ClusterCollective {
						return ClusterCollective{Collective: Collective{Prim: AllReduce, Dims: "1",
							Src: Span(0, m), Dst: At(dst), Elem: elem.I32, Op: elem.Sum, Level: IM}}
					}
					cp, err := sc.Compile(ar(2 * m))
					if err != nil {
						t.Fatal(err)
					}
					other, err := sc.Compile(ar(3 * m))
					if err != nil {
						t.Fatal(err)
					}
					exec := func(cp *ClusterPlan) error {
						return within(t, "cluster run", func() error {
							if submit {
								return cp.Submit().Err()
							}
							_, err := cp.Run()
							return err
						})
					}
					// check seeds fresh inputs, runs cp and compares every
					// global rank's result with the reference reduction.
					seed := int64(1)
					check := func(cp *ClusterPlan, dst int) {
						t.Helper()
						in := randGlobal(H*P, m, seed)
						seed++
						want := make([]byte, m)
						elem.Fill(elem.I32, want, 0)
						for g, data := range in {
							sc.Host(g/P).SetPEBuffer(ranks[g/P][g%P], 0, data)
							elem.ReduceInto(elem.I32, elem.Sum, want, data)
						}
						if err := exec(cp); err != nil {
							t.Fatal(err)
						}
						for g := 0; g < H*P; g++ {
							if got := sc.Host(g/P).GetPEBuffer(ranks[g/P][g%P], dst, m); !bytes.Equal(got, want) {
								t.Fatalf("global rank %d: wrong AllReduce result", g)
							}
						}
					}

					check(cp, 2*m) // a clean run counts host 0's steps per run
					steps := fb.n
					if steps < 2 {
						t.Fatalf("host 0 moved %d steps, want a local leg on each side of the wire", steps)
					}
					// The first step is the local leg before the wire; the
					// last, the redistribution leg after it.
					fb.at = fb.n
					if last {
						fb.at += steps - 1
					}
					if err := exec(cp); err == nil {
						t.Fatal("a run with a faulted host reported no error")
					}
					if fb.n <= fb.at {
						t.Fatalf("the fault at step %d never fired (%d steps)", fb.at, fb.n)
					}
					check(cp, 2*m)
					check(other, 3*m)
				})
			}
		}
	}
}
