package bench

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/pidcomm"
)

func init() {
	register("fig23b", "AllReduce and AlltoAll on a multi-host environment (1/2/4 hosts)", func(o Options, c *cells) error {
		perPE := sizeFor(o, 16<<10, 128<<10) // paper: 2 MB per PE
		t := newTable("Primitive", "Hosts", "Base(ms)", "PID-Comm(ms)", "Net share (ours)")
		for _, prim := range []pidcomm.Primitive{pidcomm.AllReduce, pidcomm.AlltoAll} {
			aa := prim == pidcomm.AlltoAll
			for _, hosts := range []int{1, 2, 4} {
				var times [2]cost.Breakdown
				for i, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.CM} {
					// 256 PEs per host (one four-rank channel), § IX-A.
					geo := dram.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8,
						MramPerBank: mramFor(3 * perPE * max(1, hosts))}
					cl, err := pidcomm.NewCluster(hosts, geo, []int{geo.NumPEs()}, pidcomm.CostOnly())
					if err != nil {
						return err
					}
					sess, err := cl.Comm()
					if err != nil {
						return err
					}
					P := cl.PEsPerHost()
					var m int
					if aa {
						m = hosts * P * (perPE / (hosts * P) / 8 * 8)
						if m == 0 {
							m = hosts * P * 8
						}
					} else {
						m = perPE / (8 * P) * (8 * P)
						if m == 0 {
							m = 8 * P
						}
					}
					d := pidcomm.ClusterCollective{Collective: pidcomm.Collective{
						Prim: pidcomm.AlltoAll, Dims: "1",
						Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m), Level: lvl}}
					if !aa {
						d.Prim, d.Elem, d.Op = pidcomm.AllReduce, pidcomm.I32, pidcomm.Sum
					}
					bd, err := sess.Run(d)
					if err != nil {
						return err
					}
					times[i] = bd
				}
				name := fmt.Sprintf("%s/h%d/", prim, hosts)
				base, ours := c.put(name+"base", times[0].Total()), c.put(name+"ours", times[1].Total())
				t.add(prim.LongName(), fmt.Sprint(hosts), fmt.Sprintf("%.3f", base*1e3), fmt.Sprintf("%.3f", ours*1e3),
					fmt.Sprintf("%.0f%%", 100*(c.put(name+"net", times[1].Get(cost.Network))/ours)))
			}
		}
		t.write(o.W)
		return nil
	})
}

func mramFor(n int) int {
	p := 1 << 12
	for p < n {
		p *= 2
	}
	return p
}
