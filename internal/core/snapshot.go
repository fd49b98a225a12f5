package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cost"
	"repro/internal/dram"
)

// Snapshot is the one read surface of a Comm's run-time state: plain
// values that Comm.Snapshot fills and String renders (what `pidinfo`'s
// modes print). Each section is read under the one lock that guards it,
// no two held together, so sections are individually, not jointly,
// consistent: the tenant rows, Pending, InFlight and Admitted come from one
// asyncMu section, PlanCache, Fusion and Auto from one compMu section. The
// whole is exact on a quiescent Comm, while a tenant closed between two
// reads can show both as a live row and in FreeSpans.
type Snapshot struct {
	// Elapsed is the timeline's overlap-aware makespan, LaneBusy[l] the
	// cumulative work on cost.Lane l (LaneBusy[cost.LaneNet]: a cluster
	// host's wire time), Pending the uncompleted submissions.
	Elapsed  cost.Seconds
	LaneBusy [cost.NumLanes]cost.Seconds
	Pending  int
	// Meter is the attributed cost: the in-order sum of Tenants[i].Meter,
	// bit for bit. Every collective runs in a session: only application
	// kernels launched against Comm.Meter land on Comm.Meter alone.
	Meter cost.Breakdown
	// Cumulative; Auto is sorted by (primitive, dims, bytes, constraint).
	// All three are the shape table's: on a cluster host, every host's.
	PlanCache PlanCacheStats
	Fusion    FusionStats
	Auto      []AutoDecision
	// Tenants lists the retired tenants in closing order, then the live
	// ones in creation order; a retired tenant never comes back as live.
	Tenants []TenantSnapshot
	// FreeSpans is the arena allocator's sorted, coalesced free list and
	// FreeBytes its sum; on a quiescent Comm the live arenas and FreeSpans
	// tile [0, MramPerBank) exactly.
	FreeBytes int
	FreeSpans []dram.Arena
}

// TenantSnapshot is one tenant's row: its per-PE arena [Base, Base+Bytes)
// (free again once Retired), scheduler Weight, simulated-time Quota (0 =
// unlimited) with the time Admitted against it, Meter, and plans InFlight.
type TenantSnapshot struct {
	Name            string
	Base, Bytes     int
	Weight          float64
	Quota, Admitted cost.Seconds
	Meter           cost.Breakdown
	InFlight        int
	Retired         bool
}

// Snapshot reads the Comm's run-time state — for inspection between phases
// of a run, not per request: it takes every lock once and walks the caches.
func (c *Comm) Snapshot() Snapshot {
	var s Snapshot
	c.execMu.Lock()
	s.Elapsed = c.tl.Elapsed()
	for l := range s.LaneBusy {
		s.LaneBusy[l] = c.tl.LaneBusy(cost.Lane(l))
	}
	c.execMu.Unlock()

	c.asyncMu.Lock()
	ts := slices.Concat(c.retired, c.tenants)
	s.Pending = c.asyncPending
	s.Tenants = make([]TenantSnapshot, len(ts))
	for i, t := range ts {
		s.Tenants[i] = TenantSnapshot{Name: t.name, Base: t.ar.base, Bytes: t.ar.size, Weight: t.weight,
			Quota: t.quota, Admitted: t.admitted, InFlight: t.inflight, Retired: i < len(c.retired)}
	}
	c.asyncMu.Unlock()

	c.compMu.Lock()
	s.PlanCache, s.Fusion = c.cacheSt, c.fuseSt
	s.PlanCache.CachedTraces = len(c.rows)
	for _, e := range c.rows {
		s.PlanCache.TraceEntries += int64(len(e.tr.adds))
		s.PlanCache.TraceBytes += 16 * int64(len(e.tr.adds)+len(e.tr.segs)) // 16-byte entries and segments
	}
	s.Auto = make([]AutoDecision, 0, len(c.autoCache))
	for k, dec := range c.autoCache {
		s.Auto = append(s.Auto, AutoDecision{Prim: k.prim, Dims: k.dims, Bytes: k.bytes, Elem: k.elemType, Op: k.op,
			InPlace: k.inPlace, Constraint: k.algo, Algo: dec.algo, Level: dec.lvl, Meter: dec.meter, Makespan: dec.makespan})
	}
	c.compMu.Unlock()
	slices.SortFunc(s.Auto, func(a, b AutoDecision) int {
		return cmp.Or(cmp.Compare(a.Prim, b.Prim), cmp.Compare(a.Dims, b.Dims),
			cmp.Compare(a.Bytes, b.Bytes), cmp.Compare(a.Constraint, b.Constraint))
	})

	for i, t := range ts {
		s.Tenants[i].Meter = t.meter.Snapshot()
		s.Meter = s.Meter.Add(s.Tenants[i].Meter)
	}

	s.FreeSpans = c.hc.sys.FreeSpans()
	for _, a := range s.FreeSpans {
		s.FreeBytes += a.Bytes
	}
	return s
}

func millis(t cost.Seconds) float64 { return float64(t) * 1e3 }

// String renders the snapshot; the tenant table (a quota of 0 is
// unlimited) and the Auto decisions appear where there are rows.
func (s Snapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "elapsed %.3f ms (overlap-aware makespan), %d pending; lane busy (ms):", millis(s.Elapsed), s.Pending)
	for l, t := range s.LaneBusy {
		fmt.Fprintf(&sb, " %v %.3f", cost.Lane(l), millis(t))
	}
	fmt.Fprintf(&sb, "\nplan cache: %+v\nfusion: %+v\n", s.PlanCache, s.Fusion)
	if len(s.Tenants) > 0 {
		fmt.Fprintf(&sb, "meter (sum of tenant meters): %v\n  %-10s %-20s %6s %10s %12s %10s %9s %s\n", s.Meter,
			"tenant", "arena [base,end)", "weight", "quota(ms)", "admitted(ms)", "meter(ms)", "in-flight", "retired")
	}
	for _, t := range s.Tenants {
		fmt.Fprintf(&sb, "  %-10s [%8d,%9d) %6.4g %10.3f %12.3f %10.3f %9d %v\n", t.Name, t.Base, t.Base+t.Bytes,
			t.Weight, millis(t.Quota), millis(t.Admitted), millis(t.Meter.Total()), t.InFlight, t.Retired)
	}
	fmt.Fprintf(&sb, "free MRAM: %d B/PE in %d span(s)", s.FreeBytes, len(s.FreeSpans))
	for _, a := range s.FreeSpans {
		fmt.Fprintf(&sb, " [%d,%d)", a.Base, a.End())
	}
	sb.WriteByte('\n')
	if len(s.Auto) > 0 {
		fmt.Fprintf(&sb, "auto decisions:\n  %-4s %-6s %10s %-10s %-12s %12s %14s\n",
			"prim", "dims", "B/PE", "constraint", "pick", "meter(ms)", "makespan(ms)")
	}
	for _, d := range s.Auto {
		fmt.Fprintf(&sb, "  %-4v %-6s %10d %-10v %-12s %12.4f %14.4f\n", d.Prim, d.Dims, d.Bytes, d.Constraint,
			fmt.Sprintf("(%v, %v)", d.Algo, d.Level), millis(d.Meter), millis(d.Makespan))
	}
	return sb.String()
}

// ClusterSnapshot is every host's Snapshot and, as hosts run concurrently,
// the slowest's cost: the per-category maximum Meter, the longest Elapsed.
type ClusterSnapshot struct {
	Hosts   []Snapshot
	Meter   cost.Breakdown
	Elapsed cost.Seconds
}

// Snapshot snapshots every host in order and rolls them up.
func (cl *Cluster) Snapshot() ClusterSnapshot {
	s := ClusterSnapshot{Hosts: make([]Snapshot, len(cl.comms))}
	for h, c := range cl.comms {
		s.Hosts[h] = c.Snapshot()
		s.Meter = s.Meter.Max(s.Hosts[h].Meter)
		s.Elapsed = max(s.Elapsed, s.Hosts[h].Elapsed)
	}
	return s
}
