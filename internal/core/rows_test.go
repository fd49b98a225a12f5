package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/elem"
)

// freshPlan builds ds in session s from nothing, past the shape table:
// the row it carries is built for s's own placement. The plan binds no
// host payload: it is for comparing rows, not for running.
func freshPlan(s *Tenant, ds ...Collective) (*CompiledPlan, error) {
	specs := make([]planSpec, len(ds))
	for i, d := range ds {
		var err error
		if specs[i], err = s.c.specIn(s.ar, d, false); err != nil {
			return nil, err
		}
	}
	s.c.compMu.Lock()
	defer s.c.compMu.Unlock()
	return s.planOn(s.c.buildLocked(specs), nil), nil
}

// placed returns prim's descriptor of per-PE payload m over groups of n
// ranks with its source (if any) at src and its destination (if any) at
// dst, plus the host payloads of groups groups a functional comm needs.
func placed(prim Primitive, dims string, n, groups, m, src, dst int) Collective {
	sh := &shapes[prim]
	d := Collective{Prim: prim, Dims: dims}
	if sh.reducing {
		d.Elem, d.Op = elem.I32, elem.Sum
	}
	switch {
	case prim == Scatter:
		d.Dst = Span(dst, m)
	case sh.hostInput():
		d.Dst = At(dst)
	case sh.rooted():
		d.Src = Span(src, m)
	case prim == AllGather:
		d.Src, d.Dst = Span(src, m/n), At(dst)
	default:
		d.Src, d.Dst = Span(src, m), At(dst)
	}
	if sh.hostInput() {
		d.Hosts = make([][]byte, groups)
		for g := range d.Hosts {
			d.Hosts[g] = make([]byte, sh.host.of(m, n))
		}
	}
	return d
}

// TestChargeTraceIsPositionIndependent is the premise of the shape table:
// a plan's row — charge trace (additions, bus statistics, total, lane
// segments), fusion report and member costs — is bit for bit the same
// wherever its regions sit, so one row keyed by arena-relative offsets
// serves every session at every base. Every primitive × level ×
// registered algorithm × hypercube case, on both backends, is built from
// nothing in a session at base 0, in one behind a burst-aligned pad, and
// at base 0 with src and dst moved apart; a fused sequence is built at
// both bases.
func TestChargeTraceIsPositionIndependent(t *testing.T) {
	const arenaBytes, pad = 6144, 1032
	for _, tc := range cases {
		for _, costOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cost-only=%v", tc.name, costOnly), func(t *testing.T) {
				cfg := Config{}
				if costOnly {
					cfg.Backend = CostBackend()
				}
				c := newMachine(t, tc.geo, tc.shape, cfg)
				var sessions [3]*Tenant
				for i, bytes := range []int{arenaBytes, pad, arenaBytes} {
					s, err := c.NewTenant(TenantConfig{ArenaBytes: bytes})
					if err != nil {
						t.Fatal(err)
					}
					sessions[i] = s
				}
				base0, shifted := sessions[0], sessions[2]
				p, err := c.plan(tc.dims)
				if err != nil {
					t.Fatal(err)
				}
				n, groups := p.n, len(p.groups)
				m := 16 * n
				built := 0
				for _, prim := range Primitives() {
					for _, alg := range RegisteredAlgorithms(prim) {
						for _, lvl := range Levels() {
							at := func(s *Tenant, src, dst int) (*CompiledPlan, error) {
								d := placed(prim, tc.dims, n, groups, m, src, dst)
								d.Level, d.Algorithm = lvl, alg
								return freshPlan(s, d)
							}
							ref, err := at(base0, 0, 2048)
							other := map[string]func() (*CompiledPlan, error){
								"behind the pad": func() (*CompiledPlan, error) { return at(shifted, 0, 2048) },
								"moved apart":    func() (*CompiledPlan, error) { return at(base0, 1096, 3080) },
							}
							for where, build := range other {
								got, gerr := build()
								switch {
								case (err == nil) != (gerr == nil):
									t.Errorf("%v/%v/%v %s: error %v, at base 0: %v", prim, alg, lvl, where, gerr, err)
								case err == nil:
									if diff := diffRows(got, ref); diff != "" {
										t.Errorf("%v/%v/%v %s: %s", prim, alg, lvl, where, diff)
									}
								}
							}
							if err == nil {
								built++
							}
						}
					}
				}
				if built == 0 {
					t.Fatal("no plan compiled")
				}
				// A fused AlltoAll → ReduceScatter sequence, member costs included.
				for _, lvl := range Levels() {
					seq := func(s *Tenant) (*CompiledPlan, error) {
						return freshPlan(s, Collective{Prim: AlltoAll, Dims: tc.dims, Src: Span(0, m), Dst: At(2 * m), Level: lvl},
							Collective{Prim: ReduceScatter, Dims: tc.dims, Src: Span(2*m, m), Dst: At(4 * m), Elem: elem.I32, Op: elem.Sum, Level: lvl})
					}
					ref, err := seq(base0)
					if err != nil {
						continue
					}
					got, err := seq(shifted)
					if err != nil {
						t.Fatalf("sequence at %v behind the pad: %v", lvl, err)
					}
					if len(ref.memberCosts) != 2 {
						t.Fatalf("sequence at %v traced %d member costs, want 2", lvl, len(ref.memberCosts))
					}
					if diff := diffRows(got, ref); diff != "" {
						t.Errorf("sequence at %v behind the pad: %s", lvl, diff)
					}
				}
			})
		}
	}
}

// dlrmPair is the serving driver's DLRM request (internal/serve) at
// payload m: an AlltoAll and a ReduceScatter over the x axis of a 4×4
// hypercube, chained through [m, 2m) of an arena of 4m.
func dlrmPair(m int) []Collective {
	return []Collective{
		{Prim: AlltoAll, Dims: "10", Src: Span(0, m), Dst: At(m), Level: CM},
		{Prim: ReduceScatter, Dims: "10", Src: Span(m, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum, Level: IM},
	}
}

// rowSessions returns two sessions of arena bytes on c, the second behind
// a pad, so they sit at different bases.
func rowSessions(t *testing.T, c *Comm, bytes int) (a, b *Tenant) {
	t.Helper()
	var s [3]*Tenant
	for i := range s {
		var err error
		if s[i], err = c.NewTenant(TenantConfig{ArenaBytes: bytes}); err != nil {
			t.Fatal(err)
		}
	}
	return s[0], s[2]
}

// A second session's first compile of a shape the first session traced
// finds its row, and on either backend that plan is the row plus its
// session: no lowering, no trace — it runs the row's schedule, which a
// cost-only row does not keep — the row's members and footprint at the
// session's own base. On a functional comm
// its runs move the bytes the first session's plan moves, at the same
// cost.
func TestRowHitLowersNothing(t *testing.T) {
	const m = 256
	for _, costOnly := range []bool{true, false} {
		cfg := Config{}
		if costOnly {
			cfg.Backend = CostBackend()
		}
		c := newMachine(t, geoHost, []int{4, 4}, cfg)
		a, b := rowSessions(t, c, 4*m)
		if !costOnly {
			fill := make([]byte, 4*m)
			for pe := 0; pe < geoHost.NumPEs(); pe++ {
				rand.New(rand.NewSource(int64(pe))).Read(fill)
				a.SetPEBuffer(pe, 0, fill)
				b.SetPEBuffer(pe, 0, fill)
			}
		}
		for _, ds := range [][]Collective{dlrmPair(m)[:1], dlrmPair(m)} {
			first, err := a.CompileSequence(ds...)
			if err != nil {
				t.Fatal(err)
			}
			before := c.Snapshot().PlanCache
			cp, err := b.CompileSequence(ds...)
			if err != nil {
				t.Fatal(err)
			}
			after := c.Snapshot().PlanCache
			what := fmt.Sprintf("cost-only=%v %d member(s)", costOnly, len(ds))
			switch {
			case after.TraceMisses != before.TraceMisses || after.TraceHits != before.TraceHits+1:
				t.Errorf("%s: the second session's compile booked %+v after %+v, want a trace hit", what, after, before)
			case cp.planEntry != first.planEntry:
				t.Errorf("%s: the second session's plan does not share the first's row, members and footprint", what)
			case cp.sched != first.sched:
				t.Errorf("%s: the second session's plan does not run the row's schedule", what)
			case (cp.sched == nil) != costOnly:
				t.Errorf("%s: the row keeps a schedule %v, want one only where it runs (functional)", what, cp.sched)
			case cp.base != b.ar.base || first.base != a.ar.base || cp.base == first.base:
				t.Errorf("%s: plans at bases %d and %d, want %d and %d", what, first.base, cp.base, a.ar.base, b.ar.base)
			}
			want, _ := first.Run()
			if got, _ := cp.Run(); got != want {
				t.Errorf("%s: the row hit charges %v, the first session's plan %v", what, got, want)
			}
			for pe := 0; !costOnly && pe < geoHost.NumPEs(); pe++ {
				if !bytes.Equal(b.GetPEBuffer(pe, 0, 4*m), a.GetPEBuffer(pe, 0, 4*m)) {
					t.Fatalf("%s: PE %d's arena differs between the sessions after a run", what, pe)
				}
			}
		}
	}
}

// A compile of a traced shape allocates the same on either backend: its
// plan, for a sequence too (its key is looked up without building a
// string). A functional row hit that lowered its own schedule would add
// its steps and closures (about 14 and 40 objects).
func TestRowHitCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m, runs = 256, 10
	compile := func(costOnly bool, ds []Collective) float64 {
		cfg := Config{}
		if costOnly {
			cfg.Backend = CostBackend()
		}
		c := newMachine(t, geoHost, []int{4, 4}, cfg)
		sessions := make([]*Tenant, runs+2) // AllocsPerRun warms up once
		for i := range sessions {
			var err error
			if sessions[i], err = c.NewTenant(TenantConfig{ArenaBytes: 4 * m}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sessions[0].CompileSequence(ds...); err != nil { // traces the row
			t.Fatal(err)
		}
		next := sessions[1:]
		return testing.AllocsPerRun(runs, func() {
			if _, err := next[0].CompileSequence(ds...); err != nil {
				t.Fatal(err)
			}
			next = next[1:]
		})
	}
	for _, tc := range []struct {
		name string
		ds   []Collective
		max  float64
	}{{"AlltoAll", dlrmPair(m)[:1], 1}, {"DLRM pair", dlrmPair(m), 1}} {
		cost, functional := compile(true, tc.ds), compile(false, tc.ds)
		t.Logf("%s: %v objects functional, %v cost-only", tc.name, functional, cost)
		if functional > cost || cost > tc.max {
			t.Errorf("%s: a row hit allocates %v objects on a functional comm, %v on a cost-only one, want equal and <= %v",
				tc.name, functional, cost, tc.max)
		}
	}
}

// Plans of two sessions at different bases share one row, and the hazard
// checks shift its footprint by each plan's base: within a session the
// pair stays RAW-ordered, across sessions the same shapes overlap.
func TestHazardsAcrossBases(t *testing.T) {
	const m = 256
	c := newMachine(t, geoHost, []int{4, 4}, Config{Backend: CostBackend()})
	a, b := rowSessions(t, c, 4*m)
	var plans [2][2]*CompiledPlan
	for i, s := range []*Tenant{a, b} {
		for j, d := range dlrmPair(m) {
			cp, err := s.Compile(d)
			if err != nil {
				t.Fatal(err)
			}
			plans[i][j] = cp
		}
	}
	for j := range plans[0] {
		if plans[0][j].planEntry != plans[1][j].planEntry {
			t.Fatalf("segment %d: the sessions' plans do not share a row", j)
		}
	}
	// Submission order: a's AlltoAll, b's, a's ReduceScatter, b's.
	var fs [2][2]*Future
	for j := range fs {
		for i := range fs {
			fs[i][j] = plans[i][j].Submit()
		}
	}
	c.Flush()
	type window struct{ start, end cost.Seconds }
	var w [2][2]window
	for i := range w {
		for j := range w[i] {
			w[i][j].start, w[i][j].end = fs[i][j].Window()
		}
		if w[i][1].start < w[i][0].end {
			t.Errorf("session %d: the ReduceScatter %v starts before the AlltoAll %v it reads ends", i, w[i][1], w[i][0])
		}
	}
	if w[1][0].start >= w[0][0].end {
		t.Errorf("the second session's AlltoAll %v waits for the first's %v", w[1][0], w[0][0])
	}
}

// Tenant churn on a cost-only machine that has traced the DLRM
// pair: closing the session, opening its successor and compiling the
// pair lowers nothing. It costs the session (its struct and recorder)
// and its two plans: 4 objects. Lowering the two schedules would add
// about 36.
func TestChurnReopenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m = 256
	c := newMachine(t, geoHost, []int{4, 4}, Config{Backend: CostBackend()})
	ds := dlrmPair(m)
	var s *Tenant
	open := func() {
		var err error
		if s, err = c.NewTenant(TenantConfig{Name: "batch", ArenaBytes: 4 * m, MaxPending: 64}); err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if _, err := s.Compile(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	open()
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		open()
	})
	if allocs > 4 {
		t.Errorf("Close, NewTenant and two compiles allocate %v objects, want <= 4", allocs)
	}
}

// An Auto compile on a fresh comm traces each applicable candidate once,
// into the shape table, and the winner's plan carries its candidate's
// row: nothing is traced twice. A session whose shapes were compiled at
// explicit levels — here another session, at another base — leaves an
// Auto compile at the same relative offsets nothing to trace at all.
func TestAutoTracesEachCandidateOnce(t *testing.T) {
	const m = 16 * 16
	for _, d := range []Collective{
		{Prim: AllReduce, Dims: "1", Src: Span(0, m), Dst: At(2 * m), Elem: elem.I32, Op: elem.Sum},
		{Prim: AlltoAll, Dims: "1", Src: Span(0, m), Dst: At(0)}, // in place: IM and CM do not apply
	} {
		// The applicable candidates, compiled explicitly in one session.
		explicit := withSession(t, tenantTestCommWith(t, 1<<13, Config{}))
		var candidates []Collective
		for _, alg := range RegisteredAlgorithms(d.Prim) {
			seen := map[Level]bool{}
			for _, l := range Levels() {
				e := d
				e.Algorithm, e.Level = alg, EffectiveLevel(d.Prim, l)
				if seen[e.Level] {
					continue
				}
				seen[e.Level] = true
				if _, err := explicit.Compile(e); err == nil {
					candidates = append(candidates, e)
				}
			}
		}
		if len(candidates) < 2 {
			t.Fatalf("%v: %d applicable candidates, want a search", d.Prim, len(candidates))
		}

		c := withSession(t, tenantTestCommWith(t, 1<<13, Config{}))
		cp, err := c.Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Snapshot().PlanCache
		if st.TraceMisses != uint64(len(candidates)) || st.CachedTraces != len(candidates) || st.TraceHits != 1 {
			t.Errorf("%v: Auto compile booked %+v, want a trace miss and a row per candidate (%d) and the winner's hit",
				d.Prim, st, len(candidates))
		}
		c.compMu.Lock()
		row := c.rows[seqKey{head: cp.key}]
		c.compMu.Unlock()
		if row == nil || &cp.tr != &row.tr {
			t.Errorf("%v: the winner's plan does not carry its candidate's row", d.Prim)
		}

		// Explicit compiles in one session, then Auto in another behind a pad.
		shared := tenantTestCommWith(t, 1<<13, Config{})
		first, err := shared.NewTenant(TenantConfig{ArenaBytes: 1 << 11})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range candidates {
			if _, err := first.Compile(e); err != nil {
				t.Fatal(err)
			}
		}
		second, err := shared.NewTenant(TenantConfig{ArenaBytes: 1 << 11})
		if err != nil {
			t.Fatal(err)
		}
		before := shared.Snapshot().PlanCache
		if _, err := second.Compile(d); err != nil {
			t.Fatal(err)
		}
		if after := shared.Snapshot().PlanCache; after.TraceMisses != before.TraceMisses {
			t.Errorf("%v: Auto compile after the explicit ones traced %d times", d.Prim, after.TraceMisses-before.TraceMisses)
		}
	}
}
