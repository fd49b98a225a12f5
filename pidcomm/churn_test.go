package pidcomm_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/pidcomm"
)

// TestChurnMeterProperty is the tenant-churn accounting property: over
// 1000 create/serve/teardown cycles — with a long-lived tenant
// submitting concurrently the whole time — every churned tenant's meter
// is bit-identical to a solo run of the same requests on a fresh
// machine (attributed cost is placement-independent), the machine
// Breakdown stays bit-identical to the fold of retired-then-live tenant
// meters, and the allocator returns to its initial fully-coalesced free
// state. The concurrent background load makes this a race-detector
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

	for i := 0; i < cycles; i++ {
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

	// The machine total must be the exact fold of retired-then-live
	// meters — bit-identical, not approximately equal.
	var fold pidcomm.Breakdown
	for _, ti := range mach.RetiredTenants() {
		fold = fold.Add(ti.Meter)
	}
	for _, ti := range mach.Tenants() {
		fold = fold.Add(ti.Meter)
	}
	if bd := mach.Breakdown(); bd != fold {
		t.Fatalf("Breakdown diverged from tenant-meter fold:\n got %v\nfold %v", bd, fold)
	}
	if got, n := len(mach.RetiredTenants()), cycles; got != n {
		t.Fatalf("retired %d tenants, want %d", got, n)
	}

	// Teardown: with every tenant closed the allocator must re-coalesce
	// to its initial single free span.
	if err := mach.CloseTenant(bg); err != nil {
		t.Fatal(err)
	}
	spans := mach.FreeArenaSpans()
	if len(spans) != 1 || spans[0].Base != 0 || spans[0].Bytes != tenantGeo.MramPerBank {
		t.Fatalf("allocator did not return to its initial free state: %v", spans)
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
		for h := 0; h < hosts; h++ {
			if err := cc.Host(h).Close(); err != nil {
				t.Fatalf("%s: closing shard %d: %v", name, h, err)
			}
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
			if got := cc.Host(h).Admitted(); got != 0 {
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
