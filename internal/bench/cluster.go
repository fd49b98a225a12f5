package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// This file holds the cluster-scale experiment (`pidbench -exp
// cluster`): global AllReduce lowered hierarchically (local reduce →
// inter-host ring → local broadcast, § IX-A) versus the naive flat
// emulation that ships every PE's raw data to a root host, measured on
// cost-only clusters so the sweep reaches thousands of hosts in
// milliseconds. The third table varies the parameterized network model
// (cost.NetParams): link bandwidth, NIC count and switch tiers move the
// network share exactly the way the analytical model says they should.

// clusterHostGeo is the per-host machine of § IX-A: one four-rank
// channel, 256 PEs, with enough (phantom) MRAM for the payload regions.
func clusterHostGeo(perPE int) dram.Geometry {
	return dram.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8,
		MramPerBank: mramFor(3 * perPE)}
}

// MeasureClusterAllReduce prices one global AllReduce (CM) of perPE bytes
// per PE on a fresh cost-only cluster of identical 1-D hosts, compiled on
// the whole-cluster session (Cluster.Session): alg selects the host-level wire
// algorithm (AlgoAuto lets the cluster pick analytically from
// cost.NetParams), flat the naive lowering.
func MeasureClusterAllReduce(hosts, perPE int, params cost.Params, alg core.Algorithm, flat bool) (cost.Breakdown, error) {
	geo := clusterHostGeo(perPE)
	P := geo.NumPEs()
	m := perPE / (8 * P) * (8 * P)
	if m == 0 {
		m = 8 * P
	}
	cl, err := core.NewCluster(hosts, geo, []int{P}, core.Config{Params: params, Backend: core.CostBackend()})
	if err != nil {
		return cost.Breakdown{}, err
	}
	s, err := cl.Session()
	if err != nil {
		return cost.Breakdown{}, err
	}
	return s.Run(core.ClusterCollective{Collective: core.Collective{
		Prim: core.AllReduce, Dims: "1", Src: core.Span(0, m), Dst: core.At(2 * m),
		Elem: elem.I32, Op: elem.Sum, Level: core.CM, Algorithm: alg,
	}, Flat: flat})
}

// The pinned configuration of the speedup gate: 64 hosts, 16 KiB per PE
// at the paper's network operating point (cells cluster/hier_h64 and
// cluster/flat_h64 at the default scale).
const (
	clusterPinHosts = 64
	clusterPinPerPE = 16 << 10
)

// hier measures a hierarchical AllReduce as the cells hier_<key> and
// net_<key> and returns its total and network seconds and the network's
// share of the total in percent.
func (c *cells) hier(key string, hosts, perPE int, params cost.Params) (tot, net, share float64, err error) {
	bd, err := MeasureClusterAllReduce(hosts, perPE, params, core.AlgoAuto, false)
	if err != nil {
		return 0, 0, 0, err
	}
	tot, net = c.put("hier_"+key, bd.Total()), c.put("net_"+key, bd.Get(cost.Network))
	return tot, net, 100 * net / tot, nil
}

func init() {
	register("cluster", "Cluster-scale AllReduce: hierarchical vs flat lowering, network-model sweep (cost-only)", func(o Options, c *cells) error {
		perPE := sizeFor(o, 16<<10, 128<<10)
		params := cost.DefaultParams()

		// Head-to-head: hierarchical vs flat at small host counts.
		t := newTable("Hosts", "Hier(ms)", "Flat(ms)", "Speedup", "Net share (hier)")
		for _, hosts := range []int{2, 4, 8, 16, 64} {
			hier, _, share, err := c.hier(fmt.Sprintf("h%d", hosts), hosts, perPE, params)
			if err != nil {
				return err
			}
			bd, err := MeasureClusterAllReduce(hosts, perPE, params, core.AlgoAuto, true)
			if err != nil {
				return err
			}
			flat := c.put(fmt.Sprintf("flat_h%d", hosts), bd.Total())
			t.add(fmt.Sprint(hosts), fmt.Sprintf("%.3f", hier*1e3), fmt.Sprintf("%.3f", flat*1e3),
				fmt.Sprintf("%.2fx", flat/hier), fmt.Sprintf("%.0f%%", share))
		}
		t.write(o.W)

		// Scale sweep: the hierarchical ring's network time approaches the
		// 2*perPE/goodput asymptote while per-round latency accumulates.
		hostsSweep := []int{16, 64, 256, 1024}
		if o.Full {
			hostsSweep = append(hostsSweep, 4096)
		}
		fmt.Fprintln(o.W)
		t = newTable("Hosts", "Total(ms)", "Net(ms)", "Net share")
		for _, hosts := range hostsSweep {
			tot, net, share, err := c.hier(fmt.Sprintf("h%d", hosts), hosts, perPE, params)
			if err != nil {
				return err
			}
			t.add(fmt.Sprint(hosts), fmt.Sprintf("%.3f", tot*1e3), fmt.Sprintf("%.3f", net*1e3), fmt.Sprintf("%.0f%%", share))
		}
		t.write(o.W)

		// Network-model sweep at a fixed host count, on a payload large
		// enough to be bandwidth-bound (the ring ships ~2*perPE over the
		// wire): every knob of cost.NetParams moves the network leg
		// analytically — more NICs divide the wire time, switch tiers add
		// per-round latency.
		netPerPE := 4 << 20
		nets := []struct {
			name, key string
			net       cost.NetParams
		}{
			{"10G x1 (paper)", "10G_x1", cost.DefaultNetParams()},
			{"100G x1", "100G_x1", func() cost.NetParams {
				n := cost.DefaultNetParams()
				n.LinkBW = 100e9 / 8
				return n
			}()},
			{"100G x4, 2-tier", "100G_x4_2tier", func() cost.NetParams {
				n := cost.DefaultNetParams()
				n.LinkBW = 100e9 / 8
				n.NICsPerHost = 4
				n.SwitchTiers = 2
				return n
			}()},
		}
		fmt.Fprintln(o.W)
		t = newTable("Network", "Total(ms)", "Net(ms)", "Net share")
		for _, nc := range nets {
			p := params
			p.Net = nc.net
			tot, net, share, err := c.hier(nc.key, clusterPinHosts, netPerPE, p)
			if err != nil {
				return err
			}
			t.add(nc.name, fmt.Sprintf("%.3f", tot*1e3), fmt.Sprintf("%.3f", net*1e3), fmt.Sprintf("%.0f%%", share))
		}
		t.write(o.W)
		return nil
	})
}
