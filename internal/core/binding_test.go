package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/elem"
)

// This file tests what a run binds. Every plan of one shape row runs the
// row's schedule, lowered once at arena-relative offsets; a functional run
// reads its own plan's arena base and host buffers, which rooted
// primitives read or write (Comm.cur).

// sessionInputs writes n random bytes at arena offset off of every PE of s
// and returns the per-PE copies.
func sessionInputs(s *Tenant, rng *rand.Rand, off, n int) [][]byte {
	in := make([][]byte, s.c.hc.sys.Geometry().NumPEs())
	for pe := range in {
		in[pe] = make([]byte, n)
		rng.Read(in[pe])
		s.SetPEBuffer(pe, off, in[pe])
	}
	return in
}

// guard fills the arenas of ts with random bytes and returns the check
// that they still hold them.
func guard(t *testing.T, rng *rand.Rand, ts ...*Tenant) func(when string) {
	want := make([][][]byte, len(ts))
	for i, g := range ts {
		_, size := g.Arena()
		want[i] = sessionInputs(g, rng, 0, size)
	}
	return func(when string) {
		t.Helper()
		for i, g := range ts {
			for pe, w := range want[i] {
				if !bytes.Equal(g.GetPEBuffer(pe, 0, len(w)), w) {
					t.Fatalf("%s: session %q of PE %d was written", when, g.Name(), pe)
				}
			}
		}
	}
}

// refOf is the reference result of d for the PE at rank j of group g,
// given the per-PE inputs at d's source and d's host payloads: its
// destination bytes, or for a rooted primitive the group's result.
func refOf(d Collective, groups [][]int, in [][]byte, s, g, j int) []byte {
	switch d.Prim {
	case Scatter:
		return RefScatter(d.Hosts[g], len(groups[g]))[j]
	case Broadcast:
		return d.Hosts[g]
	}
	grp := groupInputs(in, groups[g])
	switch d.Prim {
	case AlltoAll:
		return RefAlltoAll(grp, s)[j]
	case ReduceScatter:
		return RefReduceScatter(d.Elem, d.Op, grp, s)[j]
	case AllReduce:
		return RefAllReduce(d.Elem, d.Op, grp)[j]
	case AllGather:
		return RefAllGather(grp)[j]
	case Gather:
		return RefGather(grp)
	}
	return RefReduce(d.Elem, d.Op, grp)
}

// randomPayloads returns groups random host payloads of n bytes each.
func randomPayloads(rng *rand.Rand, groups, n int) [][]byte {
	out := make([][]byte, groups)
	for g := range out {
		out[g] = make([]byte, n)
		rng.Read(out[g])
	}
	return out
}

// Every primitive × level × registered algorithm, the in-place AlltoAll
// and a fused sequence with two payload members run on a functional
// session behind a pad and match the reference model, while the pad and
// the session after it stay untouched. A run addresses its arena at base
// plus the row's relative offsets: a backend path that drops the base —
// the bulk transfers, the streaming contexts, the rotate kernel — moves
// the pad's bytes instead.
func TestFunctionalRunsAtTheArenaBase(t *testing.T) {
	const s, dst = 16, 1024
	c := newMachine(t, geo64, []int{8, 8}, Config{})
	rng := rand.New(rand.NewSource(3))
	var ts [3]*Tenant
	for i, bytes := range []int{1032, 2048, 1024} {
		var err error
		if ts[i], err = c.NewTenant(TenantConfig{ArenaBytes: bytes}); err != nil {
			t.Fatal(err)
		}
	}
	sess, untouched := ts[1], guard(t, rng, ts[0], ts[2])
	p, err := c.plan("10")
	if err != nil {
		t.Fatal(err)
	}
	n, groups := p.n, p.groups
	m := n * s
	ran := 0
	for _, prim := range Primitives() {
		for _, alg := range RegisteredAlgorithms(prim) {
			for _, lvl := range Levels() {
				if _, err := loweringOf(alg, prim, EffectiveLevel(prim, lvl), n); err != nil {
					continue // the row does not apply at this level
				}
				what := fmt.Sprintf("%v/%v/%v", prim, alg, lvl)
				d := placed(prim, "10", n, len(groups), m, 0, dst)
				d.Level, d.Algorithm = lvl, alg
				for _, h := range d.Hosts {
					rng.Read(h)
				}
				in := sessionInputs(sess, rng, 0, d.Src.Bytes)
				cp, err := sess.Compile(d)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if _, err := cp.Run(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for g, grp := range groups {
					for j, pe := range grp {
						want := refOf(d, groups, in, s, g, j)
						var got []byte
						if shapes[prim].rooted() {
							got = cp.Results()[g]
						} else {
							got = sess.GetPEBuffer(pe, dst, len(want))
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: group %d rank %d diverges from the reference", what, g, j)
						}
					}
				}
				ran++
			}
		}
	}
	if ran < 20 {
		t.Fatalf("%d primitive × algorithm × level runs, want every applicable one", ran)
	}
	untouched("after every primitive")

	for _, lvl := range []Level{Baseline, PR} { // the levels that run in place
		in := sessionInputs(sess, rng, 0, m)
		if _, err := sess.Run(Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(0), Level: lvl}); err != nil {
			t.Fatal(err)
		}
		for g, grp := range groups {
			want := RefAlltoAll(groupInputs(in, grp), s)
			for j, pe := range grp {
				if !bytes.Equal(sess.GetPEBuffer(pe, 0, m), want[j]) {
					t.Fatalf("in-place AlltoAll/%v: group %d rank %d diverges from the reference", lvl, g, j)
				}
			}
		}
	}
	untouched("after the in-place AlltoAll")

	// Scatter → AlltoAll of what it scattered → a ring Broadcast: the
	// Broadcast's payloads follow the Scatter's in the plan's hosts.
	sc := Collective{Prim: Scatter, Dims: "10", Dst: Span(0, m), Level: IM, Hosts: randomPayloads(rng, len(groups), n*m)}
	aa := Collective{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(m), Level: CM}
	br := Collective{Prim: Broadcast, Dims: "10", Dst: At(2 * m), Level: Baseline, Algorithm: AlgoRing, Hosts: randomPayloads(rng, len(groups), m)}
	cp, err := sess.CompileSequence(sc, aa, br)
	if err != nil {
		t.Fatal(err)
	}
	for _, submit := range []bool{false, true} {
		for _, h := range append(append([][]byte{}, sc.Hosts...), br.Hosts...) {
			rng.Read(h) // refilled in place: the plan reads them when it runs
		}
		if submit {
			err = cp.Submit().Err()
		} else {
			_, err = cp.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		for g, grp := range groups {
			want := RefAlltoAll(RefScatter(sc.Hosts[g], n), s)
			for j, pe := range grp {
				if !bytes.Equal(sess.GetPEBuffer(pe, m, m), want[j]) || !bytes.Equal(sess.GetPEBuffer(pe, 2*m, m), br.Hosts[g]) {
					t.Fatalf("sequence (submit=%v): group %d rank %d diverges from the reference", submit, g, j)
				}
			}
		}
	}
	untouched("after the sequence")
}

// Two rooted plans of one row, in sessions at two bases, each write
// their own result buffers — after Run, and after Futures submitted
// together — on the bulk and the streaming paths.
func TestRootedResultsBelongToTheirPlan(t *testing.T) {
	const s = 16
	c := newMachine(t, geo64, []int{8, 8}, Config{})
	a, b := rowSessions(t, c, 1024)
	p, err := c.plan("10")
	if err != nil {
		t.Fatal(err)
	}
	m := p.n * s
	rng := rand.New(rand.NewSource(5))
	for _, d := range []Collective{
		{Prim: Reduce, Dims: "10", Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: Baseline},
		{Prim: Reduce, Dims: "10", Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: PR},
		{Prim: Reduce, Dims: "10", Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: IM},
		{Prim: Gather, Dims: "10", Src: Span(0, s), Level: Baseline},
		{Prim: Gather, Dims: "10", Src: Span(0, s), Level: IM},
	} {
		var plans [2]*CompiledPlan
		var ins, want [2][][]byte
		for i, sess := range []*Tenant{a, b} {
			ins[i] = sessionInputs(sess, rng, 0, d.Src.Bytes)
			for g := range p.groups {
				want[i] = append(want[i], refOf(d, p.groups, ins[i], s, g, 0))
			}
			if plans[i], err = sess.Compile(d); err != nil {
				t.Fatal(err)
			}
		}
		what := fmt.Sprintf("%v/%v", d.Prim, d.Level)
		if plans[0].planEntry != plans[1].planEntry {
			t.Fatalf("%s: the sessions' plans do not share a row", what)
		}
		refill := func() { // a Reduce from PR up rotates its source in place
			for i, sess := range []*Tenant{a, b} {
				for pe, buf := range ins[i] {
					sess.SetPEBuffer(pe, 0, buf)
				}
			}
		}
		for i, cp := range plans {
			if _, err := cp.Run(); err != nil {
				t.Fatal(err)
			}
			refill()
			if i == 1 && !equalBufs(plans[0].Results(), want[0]) {
				t.Errorf("%s: the other session's run overwrote the first plan's results", what)
			}
		}
		for i, cp := range plans {
			if !equalBufs(cp.Results(), want[i]) {
				t.Errorf("%s: session %d's Results after Run are not its own", what, i)
			}
		}
		fs := [2]*Future{plans[0].Submit(), plans[1].Submit()}
		for i, f := range fs {
			if err := f.Err(); err != nil {
				t.Fatal(err)
			}
			if !equalBufs(f.Plan().Results(), want[i]) {
				t.Errorf("%s: session %d's submitted run did not write its own results", what, i)
			}
		}
	}
}

// Gather and Reduce write the caller's Hosts, at Baseline and IM: a run
// fills exactly those buffers, which Results returns; a plan binding them
// is never cached, so a run of the descriptor with other Hosts leaves the
// first ones intact; a wrong buffer count or size is a compile error.
func TestRootedPlansWriteTheirHosts(t *testing.T) {
	const s = 16
	c := testSystem(t, geo64, []int{8, 8})
	p, err := c.plan("10")
	if err != nil {
		t.Fatal(err)
	}
	groups, m := p.groups, p.n*s // both primitives write m bytes per group
	rng := rand.New(rand.NewSource(3))
	for _, d := range []Collective{
		{Prim: Gather, Dims: "10", Src: Span(0, s), Level: Baseline},
		{Prim: Gather, Dims: "10", Src: Span(0, s), Level: IM},
		{Prim: Reduce, Dims: "10", Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: Baseline},
		{Prim: Reduce, Dims: "10", Src: Span(0, m), Elem: elem.I32, Op: elem.Sum, Level: IM},
	} {
		what := fmt.Sprintf("%v/%v", d.Prim, d.Level)
		// run compiles d with hosts, pre-filled with noise the run must
		// overwrite, runs it on fresh inputs and returns the plan and the
		// reference results.
		run := func(hosts [][]byte) (*CompiledPlan, [][]byte) {
			in := sessionInputs(c.s, rng, 0, d.Src.Bytes)
			d.Hosts = hosts
			cp, err := c.Compile(d)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if _, err := cp.Run(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want := make([][]byte, len(groups))
			for g := range groups {
				want[g] = refOf(d, groups, in, s, g, 0)
			}
			return cp, want
		}
		first := randomPayloads(rng, len(groups), m)
		cp, want := run(first)
		got := cp.Results()
		for g := range first {
			if len(got) != len(first) || &got[g][0] != &first[g][0] || !bytes.Equal(first[g], want[g]) {
				t.Fatalf("%s: group %d: the run did not write the caller's buffer", what, g)
			}
		}
		if again, err := c.Compile(d); err != nil || again == cp {
			t.Errorf("%s: a second compile returned %p (the first plan %p), %v", what, again, cp, err)
		}
		second := randomPayloads(rng, len(groups), m)
		if _, other := run(second); !equalBufs(second, other) {
			t.Errorf("%s: the run with other Hosts did not write them", what)
		}
		if !equalBufs(first, want) {
			t.Errorf("%s: the run with other Hosts wrote the first plan's", what)
		}
		short := slices.Clone(first)
		short[len(short)-1] = short[len(short)-1][:m-8]
		for _, bad := range [][][]byte{first[1:], append(slices.Clip(first), first[0]), short} {
			d.Hosts = bad
			if _, err := c.Compile(d); err == nil {
				t.Errorf("%s: %d host buffers of %d bytes (last) compiled", what, len(bad), len(bad[len(bad)-1]))
			}
		}
	}
}

// equalBufs reports whether two buffer lists hold the same bytes.
func equalBufs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Two host-input compiles of one session with different payloads share a
// row, and each Run or Submit writes its own caller's bytes.
func TestHostPayloadsBelongToTheirPlan(t *testing.T) {
	const s = 16
	c := testSystem(t, geo64, []int{8, 8})
	p, err := c.plan("10")
	if err != nil {
		t.Fatal(err)
	}
	n, groups := p.n, p.groups
	m := n * s
	rng := rand.New(rand.NewSource(9))
	for _, shape := range []struct {
		prim Primitive
		alg  Algorithm
		lvl  Level
	}{{Scatter, AlgoReference, Baseline}, {Scatter, AlgoReference, IM}, {Broadcast, AlgoReference, IM},
		{Broadcast, AlgoRing, Baseline}, {Broadcast, AlgoTree, Baseline}} {
		var ds [2]Collective
		var plans [2]*CompiledPlan
		for i := range ds {
			ds[i] = placed(shape.prim, "10", n, len(groups), m, 0, 0)
			ds[i].Level, ds[i].Algorithm = shape.lvl, shape.alg
			for _, h := range ds[i].Hosts {
				rng.Read(h)
			}
			if plans[i], err = c.Compile(ds[i]); err != nil {
				t.Fatal(err)
			}
		}
		what := fmt.Sprintf("%v/%v/%v", shape.prim, shape.alg, shape.lvl)
		if plans[0] == plans[1] || plans[0].planEntry != plans[1].planEntry {
			t.Fatalf("%s: the two compiles are not two plans of one row", what)
		}
		wrote := func(i int, how string) {
			for g, grp := range groups {
				for j, pe := range grp {
					want := refOf(ds[i], groups, nil, s, g, j)
					if !bytes.Equal(c.GetPEBuffer(pe, 0, len(want)), want) {
						t.Fatalf("%s: %s of plan %d did not write its own payload (group %d rank %d)", what, how, i, g, j)
					}
				}
			}
		}
		for _, i := range []int{0, 1, 0} {
			if _, err := plans[i].Run(); err != nil {
				t.Fatal(err)
			}
			wrote(i, "Run")
		}
		for _, i := range []int{1, 0} {
			if err := plans[i].Submit().Err(); err != nil {
				t.Fatal(err)
			}
			wrote(i, "Submit")
		}
	}
}

// Two sessions submit plans of one row from two goroutines: a Broadcast
// of the session's own payloads and a Gather of what it wrote. Every run
// binds its own plan — base, payloads, results — while the other
// session's plans of the same rows interleave with it (run under -race).
func TestConcurrentSessionsShareRows(t *testing.T) {
	const s, rounds = 16, 20
	c := newMachine(t, geo64, []int{8, 8}, Config{})
	a, b := rowSessions(t, c, 1024)
	p, err := c.plan("10")
	if err != nil {
		t.Fatal(err)
	}
	n, groups := p.n, len(p.groups)
	m := n * s
	var plans [2][2]*CompiledPlan
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i, sess := range []*Tenant{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			hosts := randomPayloads(rng, groups, m)
			bc, err := sess.Compile(Collective{Prim: Broadcast, Dims: "10", Dst: At(m), Hosts: hosts, Level: IM})
			if err != nil {
				errs <- err
				return
			}
			ga, err := sess.Compile(Collective{Prim: Gather, Dims: "10", Src: Span(m, s), Level: IM})
			if err != nil {
				errs <- err
				return
			}
			plans[i] = [2]*CompiledPlan{bc, ga}
			for r := 0; r < rounds; r++ {
				for _, h := range hosts {
					rng.Read(h)
				}
				bc.Submit()
				if err := ga.Submit().Err(); err != nil { // ordered after the Broadcast it reads
					errs <- err
					return
				}
				got := ga.Results()
				for g, h := range hosts {
					if !bytes.Equal(got[g], bytes.Repeat(h[:s], n)) {
						errs <- fmt.Errorf("session %d round %d: group %d gathered another plan's bytes", i, r, g)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for k := range plans[0] {
		if plans[0][k].planEntry != plans[1][k].planEntry {
			t.Errorf("plan %d: the sessions' plans do not share a row", k)
		}
	}
}
