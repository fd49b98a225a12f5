package bench

import (
	"fmt"

	"repro/pidcomm"
)

// The multi-tenant serving experiment: N tenants share one simulated
// 1024-PE machine through the Machine/Tenant session API. Each tenant
// is bound to a disjoint MRAM arena and serves a stream of requests —
// a DLRM-style AlltoAll/CM + ReduceScatter/IM pair per request
// (dlrmRequest, at the arena's start) — and
// the experiment compares the makespan of serving the tenants serially
// (blocking Run, one machine-wide barrier per plan) against submitting
// every stream asynchronously, where the weighted-fair scheduler
// interleaves the tenants and the shared four-lane timeline overlaps
// their disjoint footprints.
//
// The per-tenant work is identical in both modes, and each tenant's
// meter is bit-identical to running its stream alone, so the machine
// breakdown (the fold of the tenant meters) is equal in both modes;
// only the elapsed time differs — by exactly the overlap won.

// tenantSpec configures one serving tenant of the experiment.
type tenantSpec struct {
	name   string
	weight float64
}

// multiTenantMachine builds a cost-only paper-scale machine with one
// session per spec, each bound to a fresh arena of arenaBytes. The queue
// drains only when the experiment flushes, so the weighted-fair order is
// decided by the whole submitted backlog.
func multiTenantMachine(specs []tenantSpec, arenaBytes int) (*pidcomm.Machine, []*pidcomm.Comm, error) {
	mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(len(specs)*arenaBytes), []int{32, 32},
		pidcomm.CostOnly())
	if err != nil {
		return nil, nil, err
	}
	comms := make([]*pidcomm.Comm, len(specs))
	for i, sp := range specs {
		comms[i], err = mach.NewTenant(pidcomm.TenantConfig{
			Name: sp.name, ArenaBytes: arenaBytes, Weight: sp.weight,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return mach, comms, nil
}

// runMultiTenant measures serial vs weighted-fair makespan for the
// given tenants, each serving requests request-pairs of m bytes/PE.
// It returns the two machines' final snapshots: their meters (for the
// equality pin), makespans and, in fair, the tenant table.
func runMultiTenant(specs []tenantSpec, m, requests int) (serial, fair pidcomm.Snapshot, err error) {
	arena := 4 * m

	// Serial: every plan runs blocking, a machine-wide barrier each.
	smach, scomms, err := multiTenantMachine(specs, arena)
	if err != nil {
		return
	}
	for r := 0; r < requests; r++ {
		for _, c := range scomms {
			for _, d := range dlrmRequest(0, m, false) {
				if _, err = c.Run(d); err != nil {
					return
				}
			}
		}
	}
	serial = smach.Snapshot()

	// Weighted-fair: every stream submits asynchronously; the scheduler
	// interleaves tenants by weight and the timeline overlaps their
	// disjoint arenas.
	fmach, fcomms, err := multiTenantMachine(specs, arena)
	if err != nil {
		return
	}
	var futures []*pidcomm.Future
	for r := 0; r < requests; r++ {
		for _, c := range fcomms {
			for _, d := range dlrmRequest(0, m, false) {
				f, ferr := c.Submit(d)
				if ferr != nil {
					err = ferr
					return
				}
				futures = append(futures, f)
			}
		}
	}
	fmach.Flush()
	for _, f := range futures {
		if werr := f.Err(); werr != nil {
			err = werr
			return
		}
	}
	fair = fmach.Snapshot()
	return
}

func init() {
	register("multitenant", "Multi-tenant serving: N tenants sharing 1024 PEs, serial vs weighted-fair makespan", func(o Options, c *cells) error {
		// Always cost-only: a capacity study over a phantom system (the
		// breakdowns are bit-identical to a functional machine).
		const requests = 8
		size := sizeFor(o, 16<<10, 256<<10)
		specs := []tenantSpec{
			{"dlrm-a", 4},
			{"dlrm-b", 2},
			{"gnn", 1},
			{"mlp", 1},
		}
		fmt.Fprintf(o.W, "(4 tenants on 1024 PEs (32x32), %d KiB/PE per request, %d requests each,"+
			" cost-only backend; blocking Run vs weighted-fair Submit)\n", size>>10, requests)
		serial, fair, err := runMultiTenant(specs, size, requests)
		if err != nil {
			return err
		}
		t := newTable("Tenant", "Weight", "Arena KiB/PE", "Plans", "Attributed ms")
		for _, ti := range fair.Tenants {
			t.add(ti.Name, fmt.Sprintf("%.0f", ti.Weight),
				fmt.Sprintf("%d", ti.Bytes>>10),
				fmt.Sprintf("%d", 2*requests),
				fmt.Sprintf("%.3f", c.put(ti.Name, ti.Meter.Total())*1e3))
		}
		t.write(o.W)
		s, f := c.put("serial", serial.Elapsed), c.put("fair", fair.Elapsed)
		fmt.Fprintf(o.W, "\nwork identical across modes: %v\n", serial.Meter == fair.Meter)
		fmt.Fprintf(o.W, "serial makespan        %8.3f ms\n", s*1e3)
		fmt.Fprintf(o.W, "weighted-fair makespan %8.3f ms\n", f*1e3)
		fmt.Fprintf(o.W, "overlap speedup        %8.2fx\n", s/f)
		return nil
	})
}
