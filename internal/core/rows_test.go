package core

import (
	"fmt"
	"testing"

	"repro/internal/elem"
)

// freshPlan builds ds in session s from nothing, past the shape table:
// the row it carries is traced for s's own placement.
func freshPlan(s *Tenant, ds ...Collective) (*CompiledPlan, error) {
	specs := make([]planSpec, len(ds))
	for i, d := range ds {
		var err error
		if specs[i], err = s.c.specIn(s.ar, d, false); err != nil {
			return nil, err
		}
	}
	cp := &CompiledPlan{c: s.c, owner: s}
	s.c.compMu.Lock()
	defer s.c.compMu.Unlock()
	s.c.buildLocked(specs, cp, nil)
	return cp, nil
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
		if st.TraceMisses != uint64(len(candidates)) || st.CachedTraces != len(candidates) || st.PlanMisses != 1 {
			t.Errorf("%v: Auto compile booked %+v, want a trace miss and a row per candidate (%d) and one plan miss",
				d.Prim, st, len(candidates))
		}
		c.compMu.Lock()
		row := c.rows[seqKey{head: cp.key}]
		c.compMu.Unlock()
		if row == nil || cp.tr != row.tr {
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
