package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/elem"
)

// Extension experiments beyond the paper's figures: the design-choice
// ablations (ext-rank, ext-launch) and the § IX-B hardware what-ifs (ext-dsa).

// cmSpec is the extension measurements' primitive at CM on the paper's
// 32×32 machine, x axis, INT32 SUM where it reduces, under params.
func cmSpec(prim core.Primitive, size int, params cost.Params, costOnly bool) PrimSpec {
	return PrimSpec{Shape: []int{32, 32}, Dims: "10", RecvPerPE: size, Prim: prim, Level: core.CM,
		Elem: elem.I32, Op: elem.Sum, Params: params, CostOnly: costOnly}
}

func init() {
	register("ext-dsa", "Extension (§ IX-B): DSA offload of host-side modulation (what-if)", func(o Options) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "PID-Comm GB/s", "+DSA GB/s", "Gain")
		dsa := cost.DefaultParams()
		dsa.DSAOffload = true
		for _, prim := range []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather} {
			base, _, err := RunPrimitive(cmSpec(prim, size, cost.DefaultParams(), o.CostOnly))
			if err != nil {
				return err
			}
			with, _, err := RunPrimitive(cmSpec(prim, size, dsa, o.CostOnly))
			if err != nil {
				return err
			}
			t.add(prim.LongName(), fmt.Sprintf("%.2f", base), fmt.Sprintf("%.2f", with), fmt.Sprintf("%.2fx", with/base))
		}
		t.write(o.W)
		return nil
	})

	register("ext-rank", "Ablation: rank-parallel vs serialized transfers", func(o Options) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "Rank-parallel GB/s", "Serialized GB/s", "Loss")
		serial := cost.DefaultParams()
		serial.RankParallel = false
		for _, prim := range []core.Primitive{core.AlltoAll, core.AllGather} {
			par, _, err := RunPrimitive(cmSpec(prim, size, cost.DefaultParams(), o.CostOnly))
			if err != nil {
				return err
			}
			ser, _, err := RunPrimitive(cmSpec(prim, size, serial, o.CostOnly))
			if err != nil {
				return err
			}
			t.add(prim.LongName(), fmt.Sprintf("%.2f", par), fmt.Sprintf("%.2f", ser), fmt.Sprintf("%.2fx", par/ser))
		}
		t.write(o.W)
		return nil
	})

	register("ext-launch", "Ablation: kernel-launch overhead sensitivity (small payloads)", func(o Options) error {
		t := newTable("Launch(us)", "AA 4KiB/PE GB/s", "AA 64KiB/PE GB/s")
		for _, launch := range []float64{5e-6, 20e-6, 80e-6} {
			p := cost.DefaultParams()
			p.KernelLaunch = cost.Seconds(launch)
			small, _, err := RunPrimitive(cmSpec(core.AlltoAll, 4<<10, p, o.CostOnly))
			if err != nil {
				return err
			}
			large, _, err := RunPrimitive(cmSpec(core.AlltoAll, 64<<10, p, o.CostOnly))
			if err != nil {
				return err
			}
			t.add(fmt.Sprintf("%.0f", launch*1e6), fmt.Sprintf("%.2f", small), fmt.Sprintf("%.2f", large))
		}
		t.write(o.W)
		return nil
	})
}
