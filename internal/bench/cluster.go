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

// The pinned configuration the regression metrics and the speedup gate
// measure: 64 hosts, 16 KiB per PE at the paper's network operating
// point.
const (
	clusterPinHosts = 64
	clusterPinPerPE = 16 << 10
)

// clusterPinned measures the pinned configuration hierarchically and
// flat; the hierarchical lowering must beat the flat baseline here (the
// bench test and CI gate pin that speedup).
func clusterPinned() (hier, flat cost.Breakdown, err error) {
	p := cost.DefaultParams()
	if hier, err = MeasureClusterAllReduce(clusterPinHosts, clusterPinPerPE, p, core.AlgoAuto, false); err != nil {
		return
	}
	flat, err = MeasureClusterAllReduce(clusterPinHosts, clusterPinPerPE, p, core.AlgoAuto, true)
	return
}

func init() {
	register("cluster", "Cluster-scale AllReduce: hierarchical vs flat lowering, network-model sweep (cost-only)", func(o Options) error {
		perPE := sizeFor(o, 16<<10, 128<<10)
		params := cost.DefaultParams()

		// Head-to-head: hierarchical vs flat at small host counts.
		t := newTable("Hosts", "Hier(ms)", "Flat(ms)", "Speedup", "Net share (hier)")
		for _, hosts := range []int{2, 4, 8, 16, 64} {
			hier, err := MeasureClusterAllReduce(hosts, perPE, params, core.AlgoAuto, false)
			if err != nil {
				return err
			}
			flat, err := MeasureClusterAllReduce(hosts, perPE, params, core.AlgoAuto, true)
			if err != nil {
				return err
			}
			t.add(fmt.Sprint(hosts),
				fmt.Sprintf("%.3f", float64(hier.Total())*1e3),
				fmt.Sprintf("%.3f", float64(flat.Total())*1e3),
				fmt.Sprintf("%.2fx", float64(flat.Total())/float64(hier.Total())),
				fmt.Sprintf("%.0f%%", 100*float64(hier.Get(cost.Network))/float64(hier.Total())))
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
			hier, err := MeasureClusterAllReduce(hosts, perPE, params, core.AlgoAuto, false)
			if err != nil {
				return err
			}
			t.add(fmt.Sprint(hosts),
				fmt.Sprintf("%.3f", float64(hier.Total())*1e3),
				fmt.Sprintf("%.3f", float64(hier.Get(cost.Network))*1e3),
				fmt.Sprintf("%.0f%%", 100*float64(hier.Get(cost.Network))/float64(hier.Total())))
		}
		t.write(o.W)

		// Network-model sweep at a fixed host count, on a payload large
		// enough to be bandwidth-bound (the ring ships ~2*perPE over the
		// wire): every knob of cost.NetParams moves the network leg
		// analytically — more NICs divide the wire time, switch tiers add
		// per-round latency.
		netPerPE := 4 << 20
		nets := []struct {
			name string
			net  cost.NetParams
		}{
			{"10G x1 (paper)", cost.DefaultNetParams()},
			{"100G x1", func() cost.NetParams {
				n := cost.DefaultNetParams()
				n.LinkBW = 100e9 / 8
				return n
			}()},
			{"100G x4, 2-tier", func() cost.NetParams {
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
			hier, err := MeasureClusterAllReduce(clusterPinHosts, netPerPE, p, core.AlgoAuto, false)
			if err != nil {
				return err
			}
			t.add(nc.name,
				fmt.Sprintf("%.3f", float64(hier.Total())*1e3),
				fmt.Sprintf("%.3f", float64(hier.Get(cost.Network))*1e3),
				fmt.Sprintf("%.0f%%", 100*float64(hier.Get(cost.Network))/float64(hier.Total())))
		}
		t.write(o.W)
		return nil
	})
}

func collectCluster(add func(string, float64)) error {
	hier, flat, err := clusterPinned()
	if err != nil {
		return err
	}
	add(fmt.Sprintf("hier_h%d", clusterPinHosts), float64(hier.Total()))
	add(fmt.Sprintf("flat_h%d", clusterPinHosts), float64(flat.Total()))
	big, err := MeasureClusterAllReduce(1024, clusterPinPerPE, cost.DefaultParams(), core.AlgoAuto, false)
	if err != nil {
		return err
	}
	add("hier_h1024", float64(big.Total()))
	return nil
}
