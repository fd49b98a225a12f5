package pidcomm_test

import (
	"fmt"

	"repro/pidcomm"
)

// The Figure 10 session: build a machine over a hypercube, select
// communication dimensions with a bitmap string, describe a collective
// and Run it.
func Example() {
	mach, _ := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 4, MramPerBank: 1 << 12,
	}, []int{4, 2, 4}) // Figure 5(a)
	comm, _ := mach.Comm()

	groups100, _ := mach.Groups("100") // x axis: Figure 5(b)
	groups101, _ := mach.Groups("101") // x and z axes: Figure 5(c)
	fmt.Printf("dims 100: %d groups of %d\n", len(groups100), len(groups100[0]))
	fmt.Printf("dims 101: %d groups of %d\n", len(groups101), len(groups101[0]))

	// One AlltoAll instance per cube slice, all at once.
	const m = 4 * 8
	for pe := 0; pe < 32; pe++ {
		comm.SetPEBuffer(pe, 0, make([]byte, m))
	}
	bd, err := comm.Run(pidcomm.Collective{
		Prim: pidcomm.AlltoAll, Dims: "100",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Level: pidcomm.CM,
	})
	fmt.Println("err:", err, "simulated time > 0:", bd.Total() > 0)
	// Output:
	// dims 100: 8 groups of 4
	// dims 101: 2 groups of 16
	// err: <nil> simulated time > 0: true
}

// Reduction primitives take an element type and operator; 8-bit elements
// additionally skip domain transfer (§ V-C).
func ExampleComm_Run() {
	mach, _ := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 12,
	}, []int{16})
	comm, _ := mach.Comm()

	const m = 16 * 8
	one := make([]byte, m)
	for i := 0; i < m; i++ {
		one[i] = 1 // every byte is an INT8 one
	}
	for pe := 0; pe < 16; pe++ {
		comm.SetPEBuffer(pe, 0, one)
	}
	_, err := comm.Run(pidcomm.Collective{
		Prim: pidcomm.AllReduce, Dims: "1",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Elem: pidcomm.I8, Op: pidcomm.Sum, Level: pidcomm.IM,
	})
	fmt.Println("err:", err, "sum of 16 ones:", comm.GetPEBuffer(0, 2*m, 1)[0])
	// Output:
	// err: <nil> sum of 16 ones: 16
}

// DimsString builds the comm-dimension bitmaps programmatically.
func ExampleDimsString() {
	fmt.Println(pidcomm.DimsString(3, 0))    // x
	fmt.Println(pidcomm.DimsString(3, 0, 2)) // x and z
	// Output:
	// 100
	// 101
}

// Asynchronous execution: Submit returns a Future immediately; plans
// with disjoint MRAM footprints overlap on the elapsed-time timeline, so
// the overlap-aware elapsed time is lower than the summed cost of the
// two plans (the meter itself still accounts every charge identically).
func ExampleComm_Submit() {
	mach, _ := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 13,
	}, []int{16})
	comm, _ := mach.Comm()

	const m = 16 * 8
	for pe := 0; pe < 16; pe++ {
		comm.SetPEBuffer(pe, 0, make([]byte, 16*m))
	}
	// Independent regions: the AllReduce's PE-side reordering overlaps
	// the AlltoAll's bus epochs in simulated time.
	f1, err1 := comm.Submit(pidcomm.Collective{
		Prim: pidcomm.AllReduce, Dims: "1",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM,
	})
	f2, err2 := comm.Submit(pidcomm.Collective{
		Prim: pidcomm.AlltoAll, Dims: "1",
		Src: pidcomm.Span(4*m, m), Dst: pidcomm.At(6 * m),
		Level: pidcomm.CM,
	})
	if err1 != nil || err2 != nil {
		fmt.Println("submit failed:", err1, err2)
		return
	}
	bd1, _ := f1.Wait()
	bd2, _ := f2.Wait()
	comm.Flush()
	fmt.Println("both done:", f1.Done() && f2.Done())
	fmt.Println("independent plans overlap:", comm.Elapsed() < bd1.Total()+bd2.Total())
	// Output:
	// both done: true
	// independent plans overlap: true
}

// Dependent plans — here a writer and a reader of the same region — are
// ordered by hazard: the reader's timeline window starts only after the
// writer's ends, with no explicit synchronization in between.
func ExampleFuture() {
	mach, _ := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 13,
	}, []int{16})
	comm, _ := mach.Comm()

	const m = 16 * 8
	for pe := 0; pe < 16; pe++ {
		comm.SetPEBuffer(pe, 0, make([]byte, 16*m))
	}
	w, _ := comm.Submit(pidcomm.Collective{ // writes [2m, 3m)
		Prim: pidcomm.AlltoAll, Dims: "1",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Level: pidcomm.Baseline,
	})
	r, _ := comm.Submit(pidcomm.Collective{ // reads [2m, ...): RAW
		Prim: pidcomm.AllGather, Dims: "1",
		Src: pidcomm.Span(2*m, m/16), Dst: pidcomm.At(4 * m),
		Level: pidcomm.IM,
	})
	_, wEnd := w.Window()
	rStart, _ := r.Window()
	fmt.Println("reader waits for writer:", rStart >= wEnd)
	fmt.Println("errors:", w.Err(), r.Err())
	// Output:
	// reader waits for writer: true
	// errors: <nil> <nil>
}

// Iterative workloads compile a collective once and replay it every
// layer: the plan carries the validated, lowered schedule plus
// precomputed charges, and each Run is bit-identical to the one-shot
// call. Leaving Level unset means Auto.
func ExampleCompiledPlan() {
	mach, _ := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 12,
	}, []int{16})
	comm, _ := mach.Comm()

	const m = 16 * 8
	for pe := 0; pe < 16; pe++ {
		comm.SetPEBuffer(pe, 0, make([]byte, m))
	}
	plan, err := comm.Compile(pidcomm.Collective{
		Prim: pidcomm.AllReduce, Dims: "1",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Elem: pidcomm.I32, Op: pidcomm.Sum, // Level unset: Auto
	})
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	first, _ := plan.Run()
	fmt.Println("Cost() predicted the first run:", plan.Cost().Total() == first.Total())
	for layer := 0; layer < 2; layer++ {
		if bd, _ := plan.Run(); bd.Total() <= 0 {
			fmt.Println("replay charged nothing")
		}
	}
	fmt.Println("Auto resolved to a concrete level:", plan.Level() != pidcomm.Auto)
	// Output:
	// Cost() predicted the first run: true
	// Auto resolved to a concrete level: true
}

// Multi-tenant serving: two models share one machine. Each tenant's
// regions are arena-relative — both place data "at offset 0" yet touch
// disjoint MRAM — and each tenant's meter accounts exactly its own
// plans, summing bit-identically to the machine snapshot's meter.
func ExampleMachine_NewTenant() {
	mach, _ := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 13,
	}, []int{16})
	a, _ := mach.NewTenant(pidcomm.TenantConfig{Name: "dlrm", ArenaBytes: 1 << 12, Weight: 2})
	b, _ := mach.NewTenant(pidcomm.TenantConfig{Name: "gnn", ArenaBytes: 1 << 12, Weight: 1})

	const m = 16 * 8
	for pe := 0; pe < 16; pe++ {
		a.SetPEBuffer(pe, 0, make([]byte, m))
		b.SetPEBuffer(pe, 0, make([]byte, m))
	}
	aa := pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "1",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m), Level: pidcomm.CM}
	fa, _ := a.Submit(aa)
	fb, _ := b.Submit(aa) // same descriptor, disjoint arena
	fa.Wait()
	fb.Wait()
	mach.Flush()

	snap := mach.Snapshot()
	fmt.Println("tenant meters sum to the machine meter:", a.Meter().Add(b.Meter()) == snap.Meter)
	fmt.Println("tenants overlap on the shared timeline:", snap.Elapsed < snap.Meter.Total())
	// Output:
	// tenant meters sum to the machine meter: true
	// tenants overlap on the shared timeline: true
}
