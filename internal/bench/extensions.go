package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
)

// Extension experiments beyond the paper's figures: the design-choice
// ablations (ext-rank, ext-launch) and the § IX-B hardware what-ifs (ext-dsa).

// cmSpec is the extension measurements' primitive at CM on the paper's
// 32×32 machine, x axis, INT32 SUM where it reduces, under params.
func cmSpec(prim core.Primitive, size int, params cost.Params) PrimSpec {
	spec := figSpec(paperShape, "10", size, prim, core.CM)
	spec.Params = params
	return spec
}

// whatIf measures prim at CM under the default parameters and under alt
// as the cells prim/<names[0]> and prim/<names[1]> and returns both
// throughputs.
func (c *cells) whatIf(prim core.Primitive, size int, alt cost.Params, names [2]string) (def, with float64, err error) {
	if def, _, err = c.prim(prim.String()+"/"+names[0], cmSpec(prim, size, cost.DefaultParams())); err != nil {
		return
	}
	with, _, err = c.prim(prim.String()+"/"+names[1], cmSpec(prim, size, alt))
	return
}

func init() {
	register("ext-dsa", "Extension (§ IX-B): DSA offload of host-side modulation (what-if)", func(o Options, c *cells) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "PID-Comm GB/s", "+DSA GB/s", "Gain")
		dsa := cost.DefaultParams()
		dsa.DSAOffload = true
		for _, prim := range fourPrims {
			base, with, err := c.whatIf(prim, size, dsa, [2]string{"+CM", "+DSA"})
			if err != nil {
				return err
			}
			t.add(prim.LongName(), fmt.Sprintf("%.2f", base), fmt.Sprintf("%.2f", with), fmt.Sprintf("%.2fx", with/base))
		}
		t.write(o.W)
		return nil
	})

	register("ext-rank", "Ablation: rank-parallel vs serialized transfers", func(o Options, c *cells) error {
		size := sizeFor(o, 64<<10, 1<<20)
		t := newTable("Primitive", "Rank-parallel GB/s", "Serialized GB/s", "Loss")
		serial := cost.DefaultParams()
		serial.RankParallel = false
		for _, prim := range []core.Primitive{core.AlltoAll, core.AllGather} {
			par, ser, err := c.whatIf(prim, size, serial, [2]string{"parallel", "serial"})
			if err != nil {
				return err
			}
			t.add(prim.LongName(), fmt.Sprintf("%.2f", par), fmt.Sprintf("%.2f", ser), fmt.Sprintf("%.2fx", par/ser))
		}
		t.write(o.W)
		return nil
	})

	register("ext-launch", "Ablation: kernel-launch overhead sensitivity (small payloads)", func(o Options, c *cells) error {
		t := newTable("Launch(us)", "AA 4KiB/PE GB/s", "AA 64KiB/PE GB/s")
		for _, launch := range []float64{5e-6, 20e-6, 80e-6} {
			p := cost.DefaultParams()
			p.KernelLaunch = cost.Seconds(launch)
			us := fmt.Sprintf("%.0f", launch*1e6)
			row := []string{us}
			for _, size := range []int{4 << 10, 64 << 10} {
				thr, _, err := c.prim(fmt.Sprintf("%sus/%dK", us, size>>10), cmSpec(core.AlltoAll, size, p))
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
}
