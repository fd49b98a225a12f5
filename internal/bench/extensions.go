package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/elem"
)

// Extension experiments beyond the paper's figures: the design-choice
// ablations DESIGN.md § 6 calls out, and the § IX-B hardware what-ifs.

// runPrimWithParams is RunPrimitive with a custom cost model.
func runPrimWithParams(shape []int, dims string, size int, prim core.Primitive, lvl core.Level, params cost.Params, costOnly bool) (float64, cost.Breakdown, error) {
	n := 1
	for _, l := range shape {
		n *= l
	}
	geo, err := primGeo(n, size)
	if err != nil {
		return 0, cost.Breakdown{}, err
	}
	mach, comm, err := newCommOn(geo, shape, costOnly, core.Config{Params: params})
	if err != nil {
		return 0, cost.Breakdown{}, err
	}
	if !costOnly {
		rng := rand.New(rand.NewSource(7))
		buf := make([]byte, size)
		for pe := 0; pe < n; pe++ {
			rng.Read(buf)
			comm.SetPEBuffer(pe, 0, buf)
		}
	}
	switch prim {
	case core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather:
	default:
		return 0, cost.Breakdown{}, fmt.Errorf("bench: extension runner supports AA/RS/AR/AG, got %v", prim)
	}
	d, err := primCollective(PrimSpec{Prim: prim, Dims: dims, RecvPerPE: size, Level: lvl,
		Elem: elem.I32, Op: elem.Sum}, nGroupSize(mach, dims))
	if err != nil {
		return 0, cost.Breakdown{}, err
	}
	bd, err := comm.Run(d)
	if err != nil {
		return 0, cost.Breakdown{}, err
	}
	return gbps(int64(size)*int64(n), float64(bd.Total())), bd, nil
}

func nGroupSize(c *core.Comm, dims string) int {
	groups, err := c.Hypercube().Groups(dims)
	if err != nil || len(groups) == 0 {
		return 1
	}
	return len(groups[0])
}

func init() {
	register("ext-dsa", "Extension (§ IX-B): DSA offload of host-side modulation (what-if)", func(o Options) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "PID-Comm GB/s", "+DSA GB/s", "Gain")
		dsa := cost.DefaultParams()
		dsa.DSAOffload = true
		for _, prim := range []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather} {
			base, _, err := runPrimWithParams([]int{32, 32}, "10", size, prim, core.CM, cost.DefaultParams(), o.CostOnly)
			if err != nil {
				return err
			}
			with, _, err := runPrimWithParams([]int{32, 32}, "10", size, prim, core.CM, dsa, o.CostOnly)
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
			par, _, err := runPrimWithParams([]int{32, 32}, "10", size, prim, core.CM, cost.DefaultParams(), o.CostOnly)
			if err != nil {
				return err
			}
			ser, _, err := runPrimWithParams([]int{32, 32}, "10", size, prim, core.CM, serial, o.CostOnly)
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
			small, _, err := runPrimWithParams([]int{32, 32}, "10", 4<<10, core.AlltoAll, core.CM, p, o.CostOnly)
			if err != nil {
				return err
			}
			large, _, err := runPrimWithParams([]int{32, 32}, "10", 64<<10, core.AlltoAll, core.CM, p, o.CostOnly)
			if err != nil {
				return err
			}
			t.add(fmt.Sprintf("%.0f", launch*1e6), fmt.Sprintf("%.2f", small), fmt.Sprintf("%.2f", large))
		}
		t.write(o.W)
		return nil
	})
}
