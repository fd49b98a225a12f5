package main

import (
	"time"

	"repro/internal/cost"
	"repro/internal/dpu"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
	"repro/internal/par"
	"repro/internal/vec"
)

// Layer drivers: leaf layers that no span can reach from outside (vec,
// dram, elem, host, dpu, par, cost) are measured by loops over their
// exported functions at the geometry and call volume of the workload
// they belong to. Each driver runs several batches and reports the
// median batch, as host time per call (_ns, _us, _ms) or host MB/s
// (_mbps).

// driverBatches is how many batches a driver times; the median is kept.
const driverBatches = 7

// perCall times batches of calls and returns the median host time of one
// call in nanoseconds. body runs the given number of calls in its own
// loop, so no closure call sits between them.
func perCall(e *env, calls int, body func(calls int)) float64 {
	batches := driverBatches
	if e.smoke {
		batches, calls = 1, max(1, calls/100)
	}
	body(max(1, calls/10)) // warm caches and lazy pools
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		body(calls)
		per[b] = float64(time.Since(t0)) / float64(calls)
	}
	return median(per)
}

// mbps converts bytes moved per call and nanoseconds per call to MB/s.
func mbps(bytesPerCall int, nsPerCall float64) float64 {
	return float64(bytesPerCall) / nsPerCall * 1e3
}

// sinks keep driver results alive so the compiler cannot drop the calls.
var (
	sinkReg   vec.Reg
	sinkBurst [dram.BurstBytes]byte
	sinkSec   cost.Seconds
)

// vecDrivers measures the two register kernels every streamed burst
// passes through.
func vecDrivers(e *env, m metrics) {
	var u vec.Unit
	var a, b vec.Reg
	elem.Fill(elem.I32, a[:], 3)
	elem.Fill(elem.I32, b[:], 4)
	m["vec.transpose8x8_ns"] = perCall(e, 200000, func(n int) {
		r := a
		for i := 0; i < n; i++ {
			r = u.Transpose8x8(r)
		}
		sinkReg = r
	})
	m["vec.reduce_ns"] = perCall(e, 200000, func(n int) {
		r := a
		for i := 0; i < n; i++ {
			r = u.Reduce(elem.I32, elem.Sum, r, b)
		}
		sinkReg = r
	})
}

// dramBurstDrivers walks ReadBurst/WriteBurst over every group of a
// system of the given geometry, bytes per PE deep, as a transfer epoch
// does.
func dramBurstDrivers(e *env, m metrics, geo dram.Geometry, perPE int) error {
	sys, err := dram.NewSystem(geo)
	if err != nil {
		return err
	}
	groups := geo.NumGroups()
	bursts := groups * (perPE / dram.BankBurstBytes)
	walk := func(n int, fn func(g, off int)) {
		for i := 0; i < n; i++ {
			k := i % bursts
			fn(k%groups, (k/groups)*dram.BankBurstBytes)
		}
	}
	m["dram.write_burst_ns"] = perCall(e, bursts, func(n int) {
		walk(n, func(g, off int) { sys.WriteBurst(g, off, &sinkBurst) })
	})
	m["dram.read_burst_ns"] = perCall(e, bursts, func(n int) {
		walk(n, func(g, off int) { sys.ReadBurst(g, off, &sinkBurst) })
	})
	return nil
}

// elemDriver measures the scalar reduction the staged (Baseline) paths
// and the reference algorithms run over whole payloads.
func elemDriver(e *env, m metrics, bytes int) {
	dst, src := make([]byte, bytes), make([]byte, bytes)
	elem.Fill(elem.I32, src, 5)
	ns := perCall(e, 200, func(n int) {
		for i := 0; i < n; i++ {
			elem.ReduceInto(elem.I32, elem.Sum, dst, src)
		}
	})
	m["elem.reduce_into_mbps"] = mbps(bytes, ns)
}

// hostBulkDrivers measures the staged transfer path: BulkRead/BulkWrite
// of perPE bytes from every group, sharded over the given workers.
func hostBulkDrivers(e *env, m metrics, geo dram.Geometry, perPE, workers int) error {
	sys, err := dram.NewSystem(geo)
	if err != nil {
		return err
	}
	h := host.New(sys, cost.DefaultParams())
	h.SetWorkers(workers)
	groups := make([]int, geo.NumGroups())
	for g := range groups {
		groups[g] = g
	}
	total := geo.NumPEs() * perPE
	var buf []byte
	ns := perCall(e, 20, func(n int) {
		for i := 0; i < n; i++ {
			buf = h.BulkRead(groups, 0, perPE)
		}
	})
	m["host.bulk_read_mbps"] = mbps(total, ns)
	out := append([]byte(nil), buf...)
	ns = perCall(e, 20, func(n int) {
		for i := 0; i < n; i++ {
			h.BulkWrite(groups, 0, out)
		}
	})
	m["host.bulk_write_mbps"] = mbps(total, ns)
	return nil
}

// hostTallyDriver measures the cost-only replacement of burst movement:
// one TallyBursts per group per epoch, the call pattern of a cost-only
// ColumnStream on the 1024-PE paper system.
func hostTallyDriver(e *env, m metrics) error {
	sys, err := dram.NewPhantomSystem(dram.PaperGeometry(1 << 20))
	if err != nil {
		return err
	}
	h := host.New(sys, cost.DefaultParams())
	groups := sys.Geometry().NumGroups()
	m["host.tally_bursts_ns"] = perCall(e, 200000, func(n int) {
		h.BeginXfer()
		for i := 0; i < n; i++ {
			h.TallyBursts(i%groups, 64)
		}
		h.EndXfer()
	})
	return nil
}

// dpuLaunchDriver measures one functional kernel launch on every PE of
// the given geometry: a kernel that streams 1 KiB through WRAM, the
// shape of the apps' per-layer kernels.
func dpuLaunchDriver(e *env, m metrics, geo dram.Geometry, workers int) error {
	sys, err := dram.NewSystem(geo)
	if err != nil {
		return err
	}
	eng := dpu.NewEngine(sys, cost.DefaultParams())
	meter := cost.NewMeter()
	pes := make([]int, geo.NumPEs())
	for i := range pes {
		pes[i] = i
	}
	spec := dpu.LaunchSpec{PEs: pes, Category: cost.Kernel, Workers: workers}
	kernel := func(c *dpu.Ctx) {
		buf := c.Wram()[:1024]
		c.ReadMram(0, buf)
		c.Exec(1024)
		c.WriteMram(1024, buf)
	}
	ns := perCall(e, 200, func(n int) {
		for i := 0; i < n; i++ {
			eng.Launch(spec, meter, kernel)
		}
	})
	m["dpu.launch_us"] = ns / 1e3
	return nil
}

// dpuChargesDriver measures the analytic launch accounting of the
// cost-only backend on the 1024-PE paper system.
func dpuChargesDriver(e *env, m metrics) error {
	sys, err := dram.NewPhantomSystem(dram.PaperGeometry(1 << 20))
	if err != nil {
		return err
	}
	eng := dpu.NewEngine(sys, cost.DefaultParams())
	meter := cost.NewMeter()
	pes := make([]int, sys.Geometry().NumPEs())
	for i := range pes {
		pes[i] = i
	}
	spec := dpu.LaunchSpec{PEs: pes, Category: cost.PEMod}
	account := func(pe, _ int) (int64, int64) { return int64(1000 + pe), 4096 }
	ns := perCall(e, 2000, func(n int) {
		for i := 0; i < n; i++ {
			eng.LaunchCharges(spec, meter, account)
		}
	})
	m["dpu.launch_charges_us"] = ns / 1e3
	return nil
}

// emptyRunner is the par.Runner of the overhead driver: the shards do
// nothing, so the time is the pool's hand-off and join.
type emptyRunner struct{}

func (emptyRunner) RunShard(int, int, int) {}

// parDriver measures what one par.Do costs when the work is free.
func parDriver(e *env, m metrics, workers, n int) {
	ns := perCall(e, 20000, func(calls int) {
		for i := 0; i < calls; i++ {
			par.Do(workers, n, emptyRunner{})
		}
	})
	m["par.do_overhead_us"] = ns / 1e3
}

// meterDriver measures one Meter.Add with a tenant-style recorder
// attached, as every replayed charge of a tenant's plan pays.
func meterDriver(e *env, m metrics) {
	machine, tenant := cost.NewMeter(), cost.NewMeter()
	machine.SetRecorder(func(c cost.Category, t cost.Seconds) { tenant.Add(c, t) })
	m["cost.meter_add_ns"] = perCall(e, 500000, func(n int) {
		for i := 0; i < n; i++ {
			machine.Add(cost.PEMem, 1e-9)
		}
	})
}

// carveDriver measures dram's arena allocator under churn: with three
// tenant arenas carved, free and re-carve the middle one (the free list
// splits and coalesces on every cycle).
func carveDriver(e *env, m metrics, arenaBytes, tenants int) error {
	sys, err := dram.NewPhantomSystem(dram.PaperGeometry((tenants + 1) * arenaBytes))
	if err != nil {
		return err
	}
	arenas := make([]dram.Arena, tenants)
	for i := range arenas {
		if arenas[i], err = sys.CarveArena(arenaBytes); err != nil {
			return err
		}
	}
	mid := tenants / 2
	var derr error
	ns := perCall(e, 100000, func(n int) {
		for i := 0; i < n; i++ {
			if err := sys.FreeArena(arenas[mid]); err != nil {
				derr = err
				return
			}
			a, err := sys.CarveArena(arenaBytes)
			if err != nil {
				derr = err
				return
			}
			arenas[mid] = a
		}
	})
	m["dram.carve_free_us"] = ns / 1e3
	return derr
}

// maxFrontier mirrors the async engine's bound on in-flight placements:
// past it the oldest are retired and the timeline floor raised, which is
// the cadence SetFloor is called at in a serving run that never flushes.
const maxFrontier = 256

// replayTimeline replays placements — a serving run's own lane segments,
// in pick order, each at the start the engine gave it — on a fresh
// cost.Timeline, raising the floor at the engine's cadence. beforePlace,
// if set, runs before every placement. It returns the host time spent in
// Place and SetFloor and the number of SetFloor calls.
func replayTimeline(placements []placement, beforePlace func(*cost.Timeline)) (place, floor time.Duration, floors int) {
	var tl cost.Timeline
	var frontier []cost.Seconds
	var base cost.Seconds
	for _, p := range placements {
		live := frontier[:0]
		for _, end := range frontier {
			if end > base {
				live = append(live, end)
			}
		}
		if len(live) > maxFrontier {
			drop := len(live) - maxFrontier
			for _, end := range live[:drop] {
				if end > base {
					base = end
				}
			}
			t0 := time.Now()
			tl.SetFloor(base)
			floor += time.Since(t0)
			floors++
			live = append(live[:0], live[drop:]...)
		}
		if beforePlace != nil {
			beforePlace(&tl)
		}
		t0 := time.Now()
		_, end := tl.Place(p.start, p.segs)
		place += time.Since(t0)
		frontier = append(live, end)
	}
	return place, floor, floors
}

// timelineDriver reports the mean host time of Timeline.Place and
// SetFloor over a replay of placements and, in a second replay that
// clones the timeline before every placement as the lookahead policy
// does per pick, of Clone (whose cost depends on how long the interval
// lists are at that point of the run).
func timelineDriver(e *env, m metrics, placements []placement) {
	if len(placements) == 0 {
		return
	}
	reps := 5
	if e.smoke {
		reps = 1
	}
	n := float64(len(placements))
	placeNs, floorNs, cloneNs := make([]float64, reps), make([]float64, reps), make([]float64, reps)
	for r := 0; r < reps; r++ {
		place, floor, floors := replayTimeline(placements, nil)
		placeNs[r] = float64(place) / n
		if floors > 0 {
			floorNs[r] = float64(floor) / float64(floors)
		}
		var clone time.Duration
		replayTimeline(placements, func(tl *cost.Timeline) {
			t0 := time.Now()
			c := tl.Clone()
			clone += time.Since(t0)
			sinkSec = c.Elapsed()
		})
		cloneNs[r] = float64(clone) / n
	}
	m["cost.timeline_place_us"] = median(placeNs) / 1e3
	m["cost.timeline_set_floor_us"] = median(floorNs) / 1e3
	m["cost.timeline_clone_us"] = median(cloneNs) / 1e3
}

// meanOf returns the arithmetic mean (0 for an empty slice). Per-call
// times that are summed into a share of a pass use the mean, so that
// calls times mean is the time the layer really took.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
