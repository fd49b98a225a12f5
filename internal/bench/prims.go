package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/apps/appcore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
)

// PrimSpec describes one primitive measurement.
type PrimSpec struct {
	// Shape is the hypercube; PEs = product.
	Shape []int
	// Dims is the communication-dimension bitmap.
	Dims string
	// RecvPerPE is the per-PE payload on the larger side of the
	// communication (the paper's throughput denominator basis, § VIII-B).
	RecvPerPE int
	// Prim, Level select what to run.
	Prim  core.Primitive
	Level core.Level
	// Elem/Op apply to the reducing primitives. Their zero values are
	// INT8 and SUM: a caller that means another pair sets both.
	Elem elem.Type
	Op   elem.Op
	// Algo constrains the schedule algorithm (AllReduce and Broadcast
	// only; the zero value AlgoAuto keeps the default resolution).
	Algo core.Algorithm
	// Params is the timing model; the zero value means
	// cost.DefaultParams(), as in core.Config.
	Params cost.Params
	// CostOnly runs on the cost-only backend over a phantom system: the
	// throughput and breakdown are identical (the cost model is shared
	// bit-for-bit), but no MRAM is allocated and no data moves.
	CostOnly bool
}

// RunPrimitive executes one primitive on a fresh system and returns the
// throughput (GB/s, larger-side bytes over simulated seconds, § VIII-B)
// and the cost breakdown.
func RunPrimitive(spec PrimSpec) (float64, cost.Breakdown, error) {
	thr, bd, _, err := RunPrimitiveWithStats(spec)
	return thr, bd, err
}

// RunPrimitiveWithStats additionally returns the host's cumulative bus
// traffic statistics (cmd/pidtrace prints them).
func RunPrimitiveWithStats(spec PrimSpec) (float64, cost.Breakdown, host.XferStats, error) {
	if spec.Algo != core.AlgoAuto && spec.Prim != core.AllReduce && spec.Prim != core.Broadcast {
		return 0, cost.Breakdown{}, host.XferStats{}, fmt.Errorf("bench: algorithm %v not supported for %v", spec.Algo, spec.Prim)
	}
	mach, comm, d, groups, err := primSetup(spec)
	if err != nil {
		return 0, cost.Breakdown{}, host.XferStats{}, err
	}
	gsize, m := len(groups[0]), spec.RecvPerPE
	n := len(groups) * gsize // the groups tile the PEs
	fill := func(bytesPerPE int) {
		if spec.CostOnly {
			return // phantom system: no MRAM to fill, data is irrelevant to cost
		}
		rng := rand.New(rand.NewSource(7))
		buf := make([]byte, bytesPerPE)
		for pe := 0; pe < n; pe++ {
			rng.Read(buf)
			comm.SetPEBuffer(pe, 0, buf)
		}
	}
	hostBufs := func(perGroup int) [][]byte {
		rng := rand.New(rand.NewSource(9))
		out := make([][]byte, len(groups))
		for g := range out {
			out[g] = make([]byte, perGroup)
			if !spec.CostOnly { // cost backend never reads host buffers
				rng.Read(out[g])
			}
		}
		return out
	}

	bytes := int64(m) * int64(n)
	switch spec.Prim {
	case core.Scatter:
		if !spec.CostOnly { // cost backend accepts nil: sizes are implied
			d.Hosts = hostBufs(gsize * m)
		}
	case core.Broadcast:
		d.Hosts = hostBufs(m)
	case core.AllGather:
		fill(d.Src.Bytes)
		bytes = int64(d.Src.Bytes) * int64(gsize) * int64(n) // output side
	default:
		fill(m)
	}
	bd, err := comm.Run(d)
	if err != nil {
		return 0, cost.Breakdown{}, host.XferStats{}, err
	}
	return gbps(bytes, float64(bd.Total())), bd, mach.Host().Stats(), nil
}

// ResolvePrimitive reports the (algorithm, level) pair the spec's
// collective resolves to — the autotuner's pick where spec.Level is
// core.Auto (or spec.Algo is AlgoAuto under Auto level), the explicit
// selection mapped to its effective value otherwise. The resolution is
// backend-independent, so it always runs on a cost-only comm.
func ResolvePrimitive(spec PrimSpec) (core.Algorithm, core.Level, error) {
	spec.CostOnly = true
	_, comm, d, _, err := primSetup(spec)
	if err != nil {
		return 0, 0, err
	}
	return comm.Resolve(d)
}

// primSetup is what running and resolving a spec share: a fresh machine
// for it, its whole-MRAM session, the measurement's descriptor without
// host payloads, and the dims groups.
func primSetup(spec PrimSpec) (*core.Comm, *core.Tenant, core.Collective, [][]int, error) {
	n := 1
	for _, l := range spec.Shape {
		n *= l
	}
	geo, err := primGeo(n, spec.RecvPerPE)
	if err != nil {
		return nil, nil, core.Collective{}, nil, err
	}
	mach, comm, err := newCommOn(geo, spec.Shape, spec.CostOnly, core.Config{Params: spec.Params})
	if err != nil {
		return nil, nil, core.Collective{}, nil, err
	}
	groups, err := mach.Hypercube().Groups(spec.Dims)
	if err != nil {
		return nil, nil, core.Collective{}, nil, err
	}
	d, err := primCollective(spec, len(groups[0]))
	return mach, comm, d, groups, err
}

// primCollective returns the descriptor of the spec's measurement on
// groups of gsize PEs: the payload at offset 0 and the destination, where
// there is one, two payloads further on. Host payloads are left to the
// caller (a cost-only Scatter needs none; Broadcast states its size in
// Dst).
func primCollective(spec PrimSpec, gsize int) (core.Collective, error) {
	m := spec.RecvPerPE
	d := core.Collective{Prim: spec.Prim, Dims: spec.Dims, Level: spec.Level, Algorithm: spec.Algo}
	switch spec.Prim {
	case core.AlltoAll:
		d.Src, d.Dst = core.Span(0, m), core.At(2*m)
	case core.ReduceScatter, core.AllReduce:
		d.Src, d.Dst, d.Elem, d.Op = core.Span(0, m), core.At(2*m), spec.Elem, spec.Op
	case core.AllGather:
		s := m / gsize
		d.Src, d.Dst = core.Span(0, s), core.At(2*s)
	case core.Scatter, core.Broadcast:
		d.Dst = core.Span(0, m)
	case core.Gather:
		d.Src = core.Span(0, m)
	case core.Reduce:
		d.Src, d.Elem, d.Op = core.Span(0, m), spec.Elem, spec.Op
	default:
		return d, fmt.Errorf("bench: unknown primitive %v", spec.Prim)
	}
	return d, nil
}

// primGeo is the canonical geometry of n PEs with MRAM for the regions
// of a primitive measurement at recvPerPE bytes per PE.
func primGeo(n, recvPerPE int) (dram.Geometry, error) {
	return appcore.GeoForPEs(n, mramFor(4*recvPerPE+64))
}

// newCommOn builds a machine for the geometry/shape at cfg, on the
// cost-only backend (over a phantom, no-MRAM system) when costOnly is
// set, and its whole-MRAM session (at offset 0).
func newCommOn(geo dram.Geometry, shape []int, costOnly bool, cfg core.Config) (*core.Comm, *core.Tenant, error) {
	if costOnly {
		cfg.Backend = core.CostBackend()
	}
	c, err := core.New(geo, shape, cfg)
	if err != nil {
		return nil, nil, err
	}
	s, err := c.Session()
	return c, s, err
}

// fig14 recvPerPE: small 64 KiB, full 1 MiB.
func sizeFor(o Options, small, full int) int {
	if o.Full {
		return full
	}
	return small
}

func init() {
	register("fig14", "Throughput of the eight supported primitives, 2D (32,32), Base vs PID-Comm", func(o Options) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "Base GB/s", "PID-Comm GB/s", "Speedup")
		var ratios []float64
		for _, prim := range core.Primitives() {
			spec := PrimSpec{Shape: []int{32, 32}, Dims: "10", RecvPerPE: size, Prim: prim, Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly}
			spec.Level = core.Baseline
			base, _, err := RunPrimitive(spec)
			if err != nil {
				return err
			}
			spec.Level = core.CM
			ours, _, err := RunPrimitive(spec)
			if err != nil {
				return err
			}
			t.add(prim.LongName(), fmt.Sprintf("%.2f", base), fmt.Sprintf("%.2f", ours), fmt.Sprintf("%.2fx", ours/base))
			ratios = append(ratios, ours/base)
		}
		t.add("Geomean", "", "", fmt.Sprintf("%.2fx", geomean(ratios)))
		t.write(o.W)
		return nil
	})

	register("fig16", "Ablation study: Base / +PR / +IM / +CM for AA, RS, AR, AG", func(o Options) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "Base", "+PR", "+IM", "+CM", "(GB/s)")
		for _, prim := range []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather} {
			row := []string{prim.LongName()}
			for _, lvl := range core.Levels() {
				if !core.TechniqueApplies(prim, lvl) && lvl != core.Baseline {
					if core.EffectiveLevel(prim, lvl) != lvl {
						row = append(row, "-")
						continue
					}
				}
				thr, _, err := RunPrimitive(PrimSpec{Shape: []int{32, 32}, Dims: "10", RecvPerPE: size, Prim: prim, Level: lvl,
					Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly})
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.2f", thr))
			}
			t.add(row...)
		}
		t.write(o.W)
		return nil
	})

	register("fig17", "Execution-time breakdown of AA, RS, AR, AG: Base vs PID-Comm", func(o Options) error {
		size := sizeFor(o, 64<<10, 8<<20) // paper: 8 MB per PE
		t := newTable("Primitive", "Design", "Total(ms)", "DT", "HostMod", "HostMem", "PEMem", "PEMod", "Other")
		for _, prim := range []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather} {
			for _, lvl := range []core.Level{core.Baseline, core.CM} {
				_, bd, err := RunPrimitive(PrimSpec{Shape: []int{32, 32}, Dims: "10", RecvPerPE: size, Prim: prim, Level: lvl,
					Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly})
				if err != nil {
					return err
				}
				name := "Base"
				if lvl != core.Baseline {
					name = "PID-Comm"
				}
				ms := func(c cost.Category) string { return fmt.Sprintf("%.3f", float64(bd.Get(c))*1e3) }
				t.add(prim.LongName(), name, fmt.Sprintf("%.3f", float64(bd.Total())*1e3),
					ms(cost.DomainTransfer), ms(cost.HostMod), ms(cost.HostMem), ms(cost.PEMem),
					ms(cost.PEMod), ms(cost.Other))
			}
		}
		t.write(o.W)
		return nil
	})

	register("fig18", "Primitive throughput vs data size (1D and 2D)", func(o Options) error {
		sizes := []int{16 << 10, 64 << 10, 256 << 10}
		if o.Full {
			sizes = []int{128 << 10, 512 << 10, 2 << 20, 8 << 20}
		}
		t := newTable("Config", "Primitive", "Size/PE", "Base GB/s", "PID-Comm GB/s")
		for _, cfg := range []struct {
			name  string
			shape []int
			dims  string
		}{
			{"1D", []int{1024}, "1"},
			{"2D", []int{32, 32}, "10"},
		} {
			for _, prim := range []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather} {
				for _, size := range sizes {
					base, _, err := RunPrimitive(PrimSpec{Shape: cfg.shape, Dims: cfg.dims, RecvPerPE: size, Prim: prim, Level: core.Baseline, Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly})
					if err != nil {
						return err
					}
					ours, _, err := RunPrimitive(PrimSpec{Shape: cfg.shape, Dims: cfg.dims, RecvPerPE: size, Prim: prim, Level: core.CM, Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly})
					if err != nil {
						return err
					}
					t.add(cfg.name, prim.String(), fmt.Sprintf("%dK", size>>10),
						fmt.Sprintf("%.2f", base), fmt.Sprintf("%.2f", ours))
				}
			}
		}
		t.write(o.W)
		return nil
	})

	register("fig19", "Primitive throughput vs number of PEs (64..1024)", func(o Options) error {
		size := sizeFor(o, 32<<10, 512<<10)
		pes := []int{64, 128, 256, 512, 1024}
		t := newTable("Config", "Primitive", "PEs", "Base GB/s", "PID-Comm GB/s")
		for _, prim := range []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather} {
			for _, n := range pes {
				// 1D and square-ish 2D.
				shapes := [][]int{{n}, {32, n / 32}}
				dims := []string{"1", "10"}
				if n < 64 || n/32 < 2 {
					shapes = shapes[:1]
					dims = dims[:1]
				}
				for i, shape := range shapes {
					base, _, err := RunPrimitive(PrimSpec{Shape: shape, Dims: dims[i], RecvPerPE: size, Prim: prim, Level: core.Baseline, Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly})
					if err != nil {
						return err
					}
					ours, _, err := RunPrimitive(PrimSpec{Shape: shape, Dims: dims[i], RecvPerPE: size, Prim: prim, Level: core.CM, Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly})
					if err != nil {
						return err
					}
					name := "1D"
					if i == 1 {
						name = "2D"
					}
					t.add(name, prim.String(), fmt.Sprint(n), fmt.Sprintf("%.2f", base), fmt.Sprintf("%.2f", ours))
				}
			}
		}
		t.write(o.W)
		return nil
	})

	register("fig20", "PID-Comm throughput on 3D hypercube shapes", func(o Options) error {
		size := sizeFor(o, 32<<10, 512<<10)
		shapes := [][]int{{8, 64, 2}, {16, 32, 2}, {32, 16, 2}, {64, 8, 2}, {128, 4, 2},
			{8, 32, 4}, {16, 16, 4}, {32, 8, 4}, {64, 4, 4}, {128, 2, 4}}
		t := newTable("Shape", "AA", "RS", "AR", "AG", "(PID-Comm GB/s, x-axis comm)")
		for _, shape := range shapes {
			row := []string{fmt.Sprintf("%v", shape)}
			for _, prim := range []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather} {
				thr, _, err := RunPrimitive(PrimSpec{Shape: shape, Dims: "100", RecvPerPE: size, Prim: prim, Level: core.CM, Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly})
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.2f", thr))
			}
			t.add(row...)
		}
		t.write(o.W)
		return nil
	})

	register("fig23a", "AllReduce on hierarchy-aware topologies: hypercube vs ring vs tree", func(o Options) error {
		size := sizeFor(o, 64<<10, 2<<20)
		rows, err := MeasureTopologies([]int{32, 32}, "10", size, o.CostOnly)
		if err != nil {
			return err
		}
		t := newTable("Topology", "Throughput GB/s", "Slowdown vs hypercube")
		thr := func(r TopoResult) float64 { return gbps(int64(size)*1024, float64(r.Cost.Total())) }
		for _, r := range rows {
			t.add(r.Name, fmt.Sprintf("%.2f", thr(r)), fmt.Sprintf("%.2fx", thr(rows[0])/thr(r)))
		}
		t.write(o.W)
		return nil
	})
}
