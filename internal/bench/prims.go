package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/apps/appcore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
)

// PrimSpec describes one primitive measurement. It runs on the
// cost-only backend over a phantom system: the breakdown is the
// functional backend's bit for bit (the cost model is shared), but no
// MRAM is allocated and no data moves.
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
}

// PrimResult is everything one primitive measurement reports.
type PrimResult struct {
	// GBps is the throughput: larger-side bytes over simulated seconds
	// (§ VIII-B).
	GBps float64
	// Cost is the run's cost breakdown.
	Cost cost.Breakdown
	// Stats is the host's cumulative bus traffic (cmd/pidtrace prints it).
	Stats host.XferStats
	// Algo and Level are the pair the collective resolved to: the
	// autotuner's pick under Auto, the effective selection otherwise.
	Algo  core.Algorithm
	Level core.Level
}

// RunPrimitive executes one primitive on a fresh system and reports the
// measurement.
func RunPrimitive(spec PrimSpec) (PrimResult, error) {
	mach, comm, d, groups, err := primSetup(spec)
	if err != nil {
		return PrimResult{}, err
	}
	cp, err := comm.Compile(d)
	if err != nil {
		return PrimResult{}, err
	}
	bd, err := cp.Run()
	if err != nil {
		return PrimResult{}, err
	}
	gsize := len(groups[0])
	n := len(groups) * gsize // the groups tile the PEs
	bytes := int64(spec.RecvPerPE) * int64(n)
	if spec.Prim == core.AllGather {
		bytes = int64(d.Src.Bytes) * int64(gsize) * int64(n) // output side
	}
	return PrimResult{GBps: gbps(bytes, float64(bd.Total())), Cost: bd, Stats: mach.Host().Stats(),
		Algo: cp.Algorithm(), Level: cp.Level()}, nil
}

// primSetup is what a measurement needs: a fresh cost-only machine for
// spec, its whole-MRAM session, the measurement's descriptor and the
// dims groups.
func primSetup(spec PrimSpec) (*core.Comm, *core.Tenant, core.Collective, [][]int, error) {
	n := 1
	for _, l := range spec.Shape {
		n *= l
	}
	geo, err := primGeo(n, spec.RecvPerPE)
	if err != nil {
		return nil, nil, core.Collective{}, nil, err
	}
	mach, comm, err := newCommOn(geo, spec.Shape, core.Config{Params: spec.Params})
	if err != nil {
		return nil, nil, core.Collective{}, nil, err
	}
	groups, err := mach.Hypercube().Groups(spec.Dims)
	if err != nil {
		return nil, nil, core.Collective{}, nil, err
	}
	d, err := primCollective(spec, groups)
	return mach, comm, d, groups, err
}

// primCollective returns the descriptor of the spec's measurement on the
// dims groups: the payload at offset 0 and the destination, where there
// is one, two payloads further on. The cost-only backend reads no host
// payload, so only Broadcast, whose payload size is the length of its
// Hosts, gets one: a zeroed buffer shared by every group.
func primCollective(spec PrimSpec, groups [][]int) (core.Collective, error) {
	m := spec.RecvPerPE
	d := core.Collective{Prim: spec.Prim, Dims: spec.Dims, Level: spec.Level, Algorithm: spec.Algo}
	if spec.Algo != core.AlgoAuto && spec.Prim != core.AllReduce && spec.Prim != core.Broadcast {
		return d, fmt.Errorf("bench: algorithm %v not supported for %v", spec.Algo, spec.Prim)
	}
	switch spec.Prim {
	case core.AlltoAll:
		d.Src, d.Dst = core.Span(0, m), core.At(2*m)
	case core.ReduceScatter, core.AllReduce:
		d.Src, d.Dst, d.Elem, d.Op = core.Span(0, m), core.At(2*m), spec.Elem, spec.Op
	case core.AllGather:
		s := m / len(groups[0])
		d.Src, d.Dst = core.Span(0, s), core.At(2*s)
	case core.Scatter:
		d.Dst = core.Span(0, m)
	case core.Broadcast:
		d.Dst, d.Hosts = core.Span(0, m), slices.Repeat([][]byte{make([]byte, m)}, len(groups))
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

// newCommOn builds a machine for the geometry/shape at cfg on the
// cost-only backend (over a phantom, no-MRAM system) and its whole-MRAM
// session (at offset 0).
func newCommOn(geo dram.Geometry, shape []int, cfg core.Config) (*core.Comm, *core.Tenant, error) {
	cfg.Backend = core.CostBackend()
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
func figSpec(shape []int, dims string, size int, prim core.Primitive, lvl core.Level) PrimSpec {
	return PrimSpec{Shape: shape, Dims: dims, RecvPerPE: size, Prim: prim, Level: lvl, Elem: elem.I32, Op: elem.Sum}
}

// prim runs spec, records its simulated time as the cell name and
// returns the breakdown and the throughput derived from the cell:
// larger-side bytes over simulated seconds (§ VIII-B).
func (c *cells) prim(name string, spec PrimSpec) (float64, cost.Breakdown, error) {
	r, err := RunPrimitive(spec)
	if err == nil {
		c.put(name, r.Cost.Total())
	}
	return r.GBps, r.Cost, err
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
			base, ours, err := c.pair(prim.String(), figSpec(paperShape, "10", size, prim, core.Baseline))
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
				thr, _, err := c.prim(prim.String()+"/"+lvl.String(), figSpec(paperShape, "10", size, prim, lvl))
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
				_, bd, err := c.prim(name+"Total", figSpec(paperShape, "10", size, prim, lvl))
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
					base, ours, err := c.pair(cfg.name+"/"+prim.String()+"/"+k, figSpec(cfg.shape, cfg.dims, size, prim, core.Baseline))
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
					base, ours, err := c.pair(fmt.Sprintf("%s/%s/%d", cfg.name, prim, n), figSpec(cfg.shape, cfg.dims, size, prim, core.Baseline))
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
				thr, _, err := c.prim(name+prim.String(), figSpec(shape, "100", size, prim, core.CM))
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
		rows, err := MeasureTopologies(paperShape, "10", size)
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
