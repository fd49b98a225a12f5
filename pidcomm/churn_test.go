package pidcomm_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/pidcomm"
)

// TestChurnMeterProperty is the tenant-churn accounting property: over
// 1000 create/serve/teardown cycles — with a long-lived tenant
// submitting concurrently the whole time — every churned tenant's meter
// is bit-identical to a solo run of the same requests on a fresh
// machine (attributed cost is placement-independent), every snapshot on
// the way holds the check.Snapshot invariants — the machine meter
// bit-identical to the fold of retired-then-live tenant meters, arenas
// and free list tiling MRAM — and the allocator returns to its initial fully-coalesced
// free state. The concurrent background load makes this a race-detector
// test: churn must not race the submission worker.
func TestChurnMeterProperty(t *testing.T) {
	cycles := 1000
	if testing.Short() {
		cycles = 100
	}
	mach, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	const arena = 1 << 12
	const m = 8 * 8

	// Solo reference: the same two requests, alone on a fresh machine.
	solo, err := pidcomm.NewMachine(tenantGeo, []int{8, 4}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := solo.NewTenant(pidcomm.TenantConfig{Name: "solo", ArenaBytes: arena})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range workload(m) {
		if _, err := sc.Run(d); err != nil {
			t.Fatal(err)
		}
	}
	want := sc.Meter()

	// Background tenant churning the scheduler concurrently throughout.
	bg, err := mach.NewTenant(pidcomm.TenantConfig{Name: "bg", ArenaBytes: arena})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, d := range workload(m) {
				f, err := bg.Submit(d)
				if err != nil {
					t.Error(err)
					return
				}
				if err := f.Err(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var prev *pidcomm.Snapshot
	for i := 0; i < cycles; i++ {
		// This goroutine alone creates and closes tenants, so every
		// snapshot it takes is quiescent in check.Snapshot's sense.
		if i%50 == 0 {
			s := mach.Snapshot()
			if err := check.Snapshot(prev, s, tenantGeo.MramPerBank, true); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			prev = &s
		}
		c, err := mach.NewTenant(pidcomm.TenantConfig{Name: "churn", ArenaBytes: arena})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		for _, d := range workload(m) {
			f, err := c.Submit(d)
			if err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			if err := f.Err(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
		if got := c.Meter(); got != want {
			t.Fatalf("cycle %d: meter diverged from solo run:\n got %v\nwant %v", i, got, want)
		}
		if err := mach.CloseTenant(c); err != nil {
			t.Fatalf("cycle %d: close: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Teardown: every churned tenant and bg are retired rows with their
	// meters, and the allocator has re-coalesced to its initial single
	// free span.
	if err := mach.CloseTenant(bg); err != nil {
		t.Fatal(err)
	}
	s := mach.Snapshot()
	if err := check.Snapshot(prev, s, tenantGeo.MramPerBank, true); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Tenants); got != cycles+1 || s.Tenants[0].Meter != want || s.Tenants[cycles].Meter != bg.Meter() {
		t.Fatalf("%d tenant rows, want the %d churned and bg, each with its meter", got, cycles)
	}
	if len(s.FreeSpans) != 1 || s.FreeSpans[0].Base != 0 || s.FreeSpans[0].Bytes != tenantGeo.MramPerBank {
		t.Fatalf("allocator did not return to its initial free state: %v", s.FreeSpans)
	}
}

// A fresh cluster session after tenant churn must compile its own
// plans: the closed session's cluster plans are owned by dead tenants
// and used to be served to any later session of the same name (every
// cl.Comm() is named "machine"), failing its first Run with
// ErrTenantClosed. The third cycle carves the session behind a pad, so
// a plan bound to the previous session's base offset would read the
// pad's zeros and miss the expected sums.
func TestClusterSessionAfterChurn(t *testing.T) {
	const hosts, P, m = 2, 32, 8 * 32
	cl, err := pidcomm.NewCluster(hosts, tenantGeo, []int{P})
	if err != nil {
		t.Fatal(err)
	}
	d := pidcomm.ClusterCollective{Collective: pidcomm.Collective{
		Prim: pidcomm.AllReduce, Dims: "1", Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM,
	}}
	cycle := func(name string, cc *pidcomm.ClusterComm, err error, wantBase int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if base, _ := cc.Arena(); base != wantBase {
			t.Fatalf("%s: session carved at base %d, want %d", name, base, wantBase)
		}
		// Global rank g contributes g+1 in every element.
		var want uint32
		for g := 0; g < hosts*P; g++ {
			buf := make([]byte, m)
			for i := 0; i < m; i += 4 {
				binary.LittleEndian.PutUint32(buf[i:], uint32(g+1))
			}
			cc.Host(g/P).SetPEBuffer(g%P, 0, buf)
			want += uint32(g + 1)
		}
		if _, err := cc.Run(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for g := 0; g < hosts*P; g++ {
			got := cc.Host(g/P).GetPEBuffer(g%P, 2*m, m)
			for i := 0; i < m; i += 4 {
				if v := binary.LittleEndian.Uint32(got[i:]); v != want {
					t.Fatalf("%s: global rank %d element %d = %d, want %d", name, g, i/4, v, want)
				}
			}
		}
		if err := cc.Close(); err != nil {
			t.Fatalf("%s: closing the session: %v", name, err)
		}
	}
	cc, err := cl.Comm()
	cycle("first session", cc, err, 0)
	cc, err = cl.Comm()
	cycle("session after churn", cc, err, 0)
	const pad = 1 << 10
	if _, err := cl.NewTenant(pidcomm.TenantConfig{Name: "pad", ArenaBytes: pad}); err != nil {
		t.Fatal(err)
	}
	cc, err = cl.NewTenant(pidcomm.TenantConfig{Name: "machine", ArenaBytes: 4 * m})
	cycle("session behind a pad", cc, err, pad)
}

// A cluster run rejected by one host's quota must leave no host
// charged: admission scans the hosts in order, so the hosts before the
// rejecting one used to keep their reservation for a run that never
// happened. Gather rooted at the last host puts the expensive plan last.
func TestClusterRejectedRunRefundsQuota(t *testing.T) {
	const hosts, P = 3, 32
	cl, err := pidcomm.NewCluster(hosts, tenantGeo, []int{P}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	gather := pidcomm.ClusterCollective{Collective: pidcomm.Collective{
		Prim: pidcomm.Gather, Dims: "1", Src: pidcomm.Span(0, 512), Level: pidcomm.IM}, Root: hosts - 1}
	bcast := pidcomm.ClusterCollective{Collective: pidcomm.Collective{
		Prim: pidcomm.Broadcast, Dims: "1", Dst: pidcomm.Span(0, 8), Level: pidcomm.IM}}
	probe, err := cl.NewTenant(pidcomm.TenantConfig{Name: "probe", ArenaBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	hostCost := func(d pidcomm.ClusterCollective, h int) pidcomm.Seconds {
		cp, err := probe.Compile(d)
		if err != nil {
			t.Fatal(err)
		}
		return cp.HostPlan(h).Cost().Total()
	}
	nonRoot, root, small := hostCost(gather, 0), hostCost(gather, hosts-1), hostCost(bcast, 0)
	// The quota admits the non-root gather and the broadcast on their
	// own, but neither the root gather nor the broadcast on top of a
	// leaked non-root reservation.
	quota := (max(nonRoot, small) + root) / 2
	if !(max(nonRoot, small) < quota && quota < root && nonRoot+small > quota) {
		t.Fatalf("cost model drifted: non-root %v, root %v, broadcast %v leave no quota between", nonRoot, root, small)
	}
	cc, err := cl.NewTenant(pidcomm.TenantConfig{Name: "capped", ArenaBytes: 1 << 10, Quota: quota})
	if err != nil {
		t.Fatal(err)
	}
	checkRefunded := func(what string) {
		t.Helper()
		for h := 0; h < hosts; h++ {
			if got := tenantRow(t, cl.Machine(h), "capped").Admitted; got != 0 {
				t.Errorf("after a rejected %s, host %d keeps %v admitted", what, h, got)
			}
		}
	}
	if _, err := cc.Run(gather); !errors.Is(err, pidcomm.ErrQuotaExceeded) {
		t.Fatalf("over-quota Run: got %v, want ErrQuotaExceeded", err)
	}
	checkRefunded("Run")
	fut, err := cc.Submit(gather)
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Err(); !errors.Is(err, pidcomm.ErrQuotaExceeded) {
		t.Fatalf("over-quota Submit: got %v, want ErrQuotaExceeded", err)
	}
	checkRefunded("Submit")
	if _, err := cc.Run(bcast); err != nil {
		t.Fatalf("in-quota run after the rejections: %v", err)
	}
}

// hostState is what a failed cluster-wide carve must leave untouched on
// every host: the free MRAM and the live sessions.
func hostState(cl *pidcomm.Cluster) (free, live []int) {
	for h := 0; h < cl.NumHosts(); h++ {
		s := cl.Machine(h).Snapshot()
		n := 0
		for _, row := range s.Tenants {
			if !row.Retired {
				n++
			}
		}
		free, live = append(free, s.FreeBytes), append(live, n)
	}
	return free, live
}

// tenantRow returns the named session's row of mach's snapshot: the last
// of that name, which is the live one when retired namesakes precede it.
func tenantRow(t *testing.T, mach *pidcomm.Machine, name string) pidcomm.TenantSnapshot {
	t.Helper()
	rows := mach.Snapshot().Tenants
	for i := len(rows) - 1; i >= 0; i-- {
		if rows[i].Name == name {
			return rows[i]
		}
	}
	t.Fatalf("no snapshot row for session %q", name)
	return pidcomm.TenantSnapshot{}
}

// A Cluster.NewTenant that fails on a later host — no room there, or
// room only at another base — must close the shards it already made:
// they used to stay live and carved forever on the earlier hosts.
func TestFailedClusterTenantLeavesNoShards(t *testing.T) {
	geo := tenantGeo
	geo.MramPerBank = 4096
	cl, err := pidcomm.NewCluster(3, geo, []int{32}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		host, size int // the direct tenant that makes this host differ
	}{
		{"last host full", 2, 4096},
		{"arena diverges on host 1", 1, 1024},
	} {
		blocker, err := cl.Machine(tc.host).NewTenant(pidcomm.TenantConfig{Name: "blocker", ArenaBytes: tc.size})
		if err != nil {
			t.Fatal(err)
		}
		wantFree, wantLive := hostState(cl)
		if _, err := cl.NewTenant(pidcomm.TenantConfig{Name: "x", ArenaBytes: 2048}); err == nil {
			t.Fatalf("%s: cluster tenant accepted", tc.name)
		}
		free, live := hostState(cl)
		for h := range free {
			if free[h] != wantFree[h] || live[h] != wantLive[h] {
				t.Errorf("%s: host %d left with %d B free and %d live tenants, want %d and %d as before the failed call",
					tc.name, h, free[h], live[h], wantFree[h], wantLive[h])
			}
		}
		if err := blocker.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.NewTenant(pidcomm.TenantConfig{Name: "x", ArenaBytes: 2048}); err != nil {
		t.Fatalf("fitting cluster tenant after the failed ones: %v", err)
	}
}

// Compiling on a closed session must fail and cache nothing: the plan
// used to be cached, owned by the dead tenant, after the close had
// already evicted — and the successor carved at the same base then hit
// it and failed its first Run with an ownership error.
func TestCompileOnClosedSessionPoisonsNothing(t *testing.T) {
	const arena, m = 1 << 12, 8 * 32
	ag := pidcomm.Collective{Prim: pidcomm.AllGather, Dims: "1",
		Src: pidcomm.Span(0, m/32), Dst: pidcomm.At(m), Level: pidcomm.Baseline}
	aa := pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "1",
		Src: pidcomm.Span(2*m, m), Dst: pidcomm.At(3 * m), Level: pidcomm.Baseline}

	mach, err := pidcomm.NewMachine(tenantGeo, []int{32}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	a, err := mach.NewTenant(pidcomm.TenantConfig{Name: "a", ArenaBytes: arena})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	before := mach.Snapshot().PlanCache
	if _, err := a.Compile(ag); !errors.Is(err, pidcomm.ErrTenantClosed) {
		t.Errorf("Compile on a closed session: got %v, want ErrTenantClosed", err)
	}
	if _, err := a.CompileSequence(ag, aa); !errors.Is(err, pidcomm.ErrTenantClosed) {
		t.Errorf("CompileSequence on a closed session: got %v, want ErrTenantClosed", err)
	}
	if after := mach.Snapshot().PlanCache; after != before {
		t.Errorf("compiling on a closed session touched the plan caches:\n before %+v\n after  %+v", before, after)
	}
	b, err := mach.NewTenant(pidcomm.TenantConfig{Name: "b", ArenaBytes: arena})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(ag); err != nil {
		t.Errorf("successor at the same base: %v", err)
	}
	if _, err := b.CompileSequence(ag, aa); err != nil {
		t.Errorf("successor sequence at the same base: %v", err)
	}

	const hosts = 2
	cl, err := pidcomm.NewCluster(hosts, tenantGeo, []int{32}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	cag := pidcomm.ClusterCollective{Collective: pidcomm.Collective{Prim: pidcomm.AllGather, Dims: "1",
		Src: pidcomm.Span(0, m/32), Dst: pidcomm.At(m), Level: pidcomm.Baseline}}
	ca, err := cl.NewTenant(pidcomm.TenantConfig{Name: "a", ArenaBytes: arena})
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	var stats [hosts]pidcomm.Snapshot
	for h := 0; h < hosts; h++ {
		stats[h] = cl.Machine(h).Snapshot()
	}
	if _, err := ca.Compile(cag); !errors.Is(err, pidcomm.ErrTenantClosed) {
		t.Errorf("cluster Compile on a closed session: got %v, want ErrTenantClosed", err)
	}
	for h := 0; h < hosts; h++ {
		if after := cl.Machine(h).Snapshot().PlanCache; after != stats[h].PlanCache {
			t.Errorf("cluster compile on a closed session touched host %d's plan caches:\n before %+v\n after  %+v", h, stats[h].PlanCache, after)
		}
	}
	cb, err := cl.NewTenant(pidcomm.TenantConfig{Name: "b", ArenaBytes: arena})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Run(cag); err != nil {
		t.Errorf("successor cluster session at the same base: %v", err)
	}
}

// The whole-cluster session binds the largest contiguous free window, as
// Machine.Comm does — not the sum of the free bytes, which after churn no
// single window holds: closing the first of two tenants used to make
// Cluster.Comm ask for 61440 B where the largest span has 57344.
func TestClusterCommAfterFragmentation(t *testing.T) {
	geo := tenantGeo
	geo.MramPerBank = 1 << 16
	cl, err := pidcomm.NewCluster(2, geo, []int{32}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	a, err := cl.NewTenant(pidcomm.TenantConfig{Name: "a", ArenaBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NewTenant(pidcomm.TenantConfig{Name: "b", ArenaBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	sess, err := cl.Comm()
	if err != nil {
		t.Fatalf("whole-cluster session on a fragmented cluster: %v", err)
	}
	if base, bytes := sess.Arena(); base != 8192 || bytes != 57344 {
		t.Errorf("session bound [%d,+%d), want the largest free window [8192,+57344)", base, bytes)
	}
	for h, hs := range cl.Snapshot().Hosts {
		if err := check.Snapshot(nil, hs, geo.MramPerBank, true); err != nil {
			t.Errorf("host %d: %v", h, err)
		}
		if len(hs.FreeSpans) != 1 || hs.FreeBytes != 4096 {
			t.Errorf("host %d: free list %v, want a's 4096 B window alone", h, hs.FreeSpans)
		}
	}
}

// Default names are drawn from a per-machine counter, not from the
// number of live sessions: after churn a new unnamed session used to
// take a live session's name.
func TestDefaultTenantNamesSurviveChurn(t *testing.T) {
	mach, err := pidcomm.NewMachine(tenantGeo, []int{32}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	unnamed := func() *pidcomm.Comm {
		c, err := mach.NewTenant(pidcomm.TenantConfig{ArenaBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	first, second := unnamed(), unnamed()
	if first.Name() != "tenant-0" || second.Name() != "tenant-1" {
		t.Fatalf("default names %q, %q, want tenant-0, tenant-1", first.Name(), second.Name())
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if third := unnamed(); third.Name() == second.Name() {
		t.Errorf("two live sessions are both named %q", third.Name())
	}
}

// The shards of one cluster session share its name: an unnamed session
// used to draw a default name per host, so a host whose counter had
// moved on (a tenant carved and closed there alone) named its shard
// differently from host 0 — the session said "tenant-1" while host 1's
// snapshot row said "tenant-0".
func TestClusterTenantShardsShareName(t *testing.T) {
	cl, err := pidcomm.NewCluster(2, tenantGeo, []int{32}, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	solo, err := cl.Machine(0).NewTenant(pidcomm.TenantConfig{ArenaBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}
	cc, err := cl.NewTenant(pidcomm.TenantConfig{ArenaBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < cl.NumHosts(); h++ {
		if got := cc.Host(h).Name(); got != cc.Name() {
			t.Errorf("host %d shard named %q, session %q", h, got, cc.Name())
		}
		live := cl.Machine(h).Snapshot().Tenants
		if row := live[len(live)-1]; row.Name != cc.Name() || row.Retired {
			t.Errorf("host %d snapshot row %+v, want the live session %q", h, row, cc.Name())
		}
	}
}

// CloseTenant of another machine's session is an error that closes and
// frees nothing (it used to close the session, leak its window on its
// own machine and free the same range underneath this machine's live
// tenant), and so is CloseTenant(nil), which used to panic; the
// session's own Close is all a teardown needs.
func TestCloseTenantOfForeignSession(t *testing.T) {
	var machs [2]*pidcomm.Machine
	var comms [2]*pidcomm.Comm
	for i := range machs {
		var err error
		if machs[i], err = pidcomm.NewMachine(tenantGeo, []int{32}, pidcomm.CostOnly()); err != nil {
			t.Fatal(err)
		}
		if comms[i], err = machs[i].NewTenant(pidcomm.TenantConfig{Name: "t", ArenaBytes: 1 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	free := [2]int{machs[0].Snapshot().FreeBytes, machs[1].Snapshot().FreeBytes}
	if err := machs[1].CloseTenant(comms[0]); err == nil {
		t.Error("CloseTenant accepted another machine's session")
	}
	if err := machs[1].CloseTenant(nil); err == nil {
		t.Error("CloseTenant accepted a nil session")
	}
	if comms[0].Closed() {
		t.Error("the foreign CloseTenant closed the session")
	}
	for i, m := range machs {
		if got := m.Snapshot().FreeBytes; got != free[i] {
			t.Errorf("machine %d has %d B free after the foreign CloseTenant, want %d", i, got, free[i])
		}
	}
	if err := comms[0].Close(); err != nil {
		t.Fatal(err)
	}
	if got := machs[0].Snapshot().FreeBytes; got != tenantGeo.MramPerBank {
		t.Errorf("Close alone left %d B free, want the whole %d", got, tenantGeo.MramPerBank)
	}
}
