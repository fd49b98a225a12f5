package bench

import (
	"fmt"
	"math/rand"
	"strings"

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

// paperShape is the paper's 32×32 machine (§ VIII-A).
var paperShape = []int{32, 32}

// figSpec is a figure's measurement: prim at lvl over the dims groups of
// shape, size bytes per PE, INT32 SUM where it reduces.
func figSpec(shape []int, dims string, size int, prim core.Primitive, lvl core.Level, o Options) PrimSpec {
	return PrimSpec{Shape: shape, Dims: dims, RecvPerPE: size, Prim: prim, Level: lvl,
		Elem: elem.I32, Op: elem.Sum, CostOnly: o.CostOnly}
}

// prim runs spec, records its simulated time as the cell name and
// returns the breakdown and the throughput derived from the cell:
// larger-side bytes over simulated seconds (§ VIII-B).
func (c *cells) prim(name string, spec PrimSpec) (float64, cost.Breakdown, error) {
	thr, bd, err := RunPrimitive(spec)
	if err == nil {
		c.put(name, bd.Total())
	}
	return thr, bd, err
}

// pair measures spec at Baseline and at CM as the cells name/Base and
// name/+CM and returns both throughputs.
func (c *cells) pair(name string, spec PrimSpec) (base, ours float64, err error) {
	spec.Level = core.Baseline
	if base, _, err = c.prim(name+"/"+spec.Level.String(), spec); err != nil {
		return
	}
	spec.Level = core.CM
	ours, _, err = c.prim(name+"/"+spec.Level.String(), spec)
	return
}

// fourPrims are the primitives of the ablation and scaling figures.
var fourPrims = []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather}

func init() {
	register("fig14", "Throughput of the eight supported primitives, 2D (32,32), Base vs PID-Comm", func(o Options, c *cells) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "Base GB/s", "PID-Comm GB/s", "Speedup")
		var ratios []float64
		for _, prim := range core.Primitives() {
			base, ours, err := c.pair(prim.String(), figSpec(paperShape, "10", size, prim, core.Baseline, o))
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

	register("fig16", "Ablation study: Base / +PR / +IM / +CM for AA, RS, AR, AG", func(o Options, c *cells) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "Base", "+PR", "+IM", "+CM", "(GB/s)")
		for _, prim := range fourPrims {
			row := []string{prim.LongName()}
			for _, lvl := range core.Levels() {
				if !core.TechniqueApplies(prim, lvl) && lvl != core.Baseline && core.EffectiveLevel(prim, lvl) != lvl {
					row = append(row, "-")
					continue
				}
				thr, _, err := c.prim(prim.String()+"/"+lvl.String(), figSpec(paperShape, "10", size, prim, lvl, o))
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

	register("fig17", "Execution-time breakdown of AA, RS, AR, AG: Base vs PID-Comm", func(o Options, c *cells) error {
		size := sizeFor(o, 64<<10, 8<<20) // paper: 8 MB per PE
		cats := []struct {
			name string
			cat  cost.Category
		}{{"DT", cost.DomainTransfer}, {"HostMod", cost.HostMod}, {"HostMem", cost.HostMem},
			{"PEMem", cost.PEMem}, {"PEMod", cost.PEMod}, {"Other", cost.Other}}
		t := newTable("Primitive", "Design", "Total(ms)", "DT", "HostMod", "HostMem", "PEMem", "PEMod", "Other")
		for _, prim := range fourPrims {
			for _, lvl := range []core.Level{core.Baseline, core.CM} {
				name := prim.String() + "/" + lvl.String() + "/"
				_, bd, err := c.prim(name+"Total", figSpec(paperShape, "10", size, prim, lvl, o))
				if err != nil {
					return err
				}
				design := "Base"
				if lvl != core.Baseline {
					design = "PID-Comm"
				}
				row := []string{prim.LongName(), design, fmt.Sprintf("%.3f", float64(bd.Total())*1e3)}
				for _, k := range cats {
					row = append(row, fmt.Sprintf("%.3f", c.put(name+k.name, bd.Get(k.cat))*1e3))
				}
				t.add(row...)
			}
		}
		t.write(o.W)
		return nil
	})

	register("fig18", "Primitive throughput vs data size (1D and 2D)", func(o Options, c *cells) error {
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
			{"2D", paperShape, "10"},
		} {
			for _, prim := range fourPrims {
				for _, size := range sizes {
					k := fmt.Sprintf("%dK", size>>10)
					base, ours, err := c.pair(cfg.name+"/"+prim.String()+"/"+k, figSpec(cfg.shape, cfg.dims, size, prim, core.Baseline, o))
					if err != nil {
						return err
					}
					t.add(cfg.name, prim.String(), k, fmt.Sprintf("%.2f", base), fmt.Sprintf("%.2f", ours))
				}
			}
		}
		t.write(o.W)
		return nil
	})

	register("fig19", "Primitive throughput vs number of PEs (64..1024)", func(o Options, c *cells) error {
		size := sizeFor(o, 32<<10, 512<<10)
		t := newTable("Config", "Primitive", "PEs", "Base GB/s", "PID-Comm GB/s")
		for _, prim := range fourPrims {
			for _, n := range []int{64, 128, 256, 512, 1024} {
				// 1D and square-ish 2D.
				for _, cfg := range []struct {
					name  string
					shape []int
					dims  string
				}{{"1D", []int{n}, "1"}, {"2D", []int{32, n / 32}, "10"}} {
					base, ours, err := c.pair(fmt.Sprintf("%s/%s/%d", cfg.name, prim, n), figSpec(cfg.shape, cfg.dims, size, prim, core.Baseline, o))
					if err != nil {
						return err
					}
					t.add(cfg.name, prim.String(), fmt.Sprint(n), fmt.Sprintf("%.2f", base), fmt.Sprintf("%.2f", ours))
				}
			}
		}
		t.write(o.W)
		return nil
	})

	register("fig20", "PID-Comm throughput on 3D hypercube shapes", func(o Options, c *cells) error {
		size := sizeFor(o, 32<<10, 512<<10)
		shapes := [][]int{{8, 64, 2}, {16, 32, 2}, {32, 16, 2}, {64, 8, 2}, {128, 4, 2},
			{8, 32, 4}, {16, 16, 4}, {32, 8, 4}, {64, 4, 4}, {128, 2, 4}}
		t := newTable("Shape", "AA", "RS", "AR", "AG", "(PID-Comm GB/s, x-axis comm)")
		for _, shape := range shapes {
			row := []string{fmt.Sprintf("%v", shape)}
			name := fmt.Sprintf("%dx%dx%d/", shape[0], shape[1], shape[2])
			for _, prim := range fourPrims {
				thr, _, err := c.prim(name+prim.String(), figSpec(shape, "100", size, prim, core.CM, o))
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

	register("fig23a", "AllReduce on hierarchy-aware topologies: hypercube vs ring vs tree", func(o Options, c *cells) error {
		size := sizeFor(o, 64<<10, 2<<20)
		rows, err := MeasureTopologies(paperShape, "10", size, o.CostOnly)
		if err != nil {
			return err
		}
		t := newTable("Topology", "Throughput GB/s", "Slowdown vs hypercube")
		thr := make([]float64, len(rows))
		for i, r := range rows {
			thr[i] = gbps(int64(size)*1024, c.put(strings.ToLower(strings.Fields(r.Name)[0]), r.Cost.Total()))
		}
		for i, r := range rows {
			t.add(r.Name, fmt.Sprintf("%.2f", thr[i]), fmt.Sprintf("%.2fx", thr[0]/thr[i]))
		}
		t.write(o.W)
		return nil
	})
}
