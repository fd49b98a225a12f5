// Cluster example (§ IX-A, Figure 23(b)): hosts driving their own
// PIM-enabled DIMMs cooperate over an MPI-like network. A cluster
// collective treats all H×P PEs as one flat communicator and is lowered
// — per host — into a single schedule-IR plan, so it compiles, caches,
// fuses and replays exactly like a single-machine collective.
//
// Part 1 runs functional clusters of 1, 2 and 4 hosts on real data,
// checking the global AllReduce result: only locally-reduced data
// crosses the wire, so the network share grows slowly with the host
// count. Part 2 sweeps host counts on the cost-only
// backend, comparing the hierarchical lowering (local reduce →
// inter-host ring → local broadcast) against the naive flat emulation
// that ships every PE's raw data to a root host, then re-prices the
// winner on a 100 Gbps, 4-NIC fabric by overriding cost.NetParams.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/pidcomm"
)

func main() {
	// --- Part 1: functional clusters, real data ------------------------
	geo := pidcomm.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 8, MramPerBank: 1 << 18}
	for _, hosts := range []int{1, 2, 4} {
		// Every host is a 1-D hypercube over its PEs; the cluster treats
		// the hosts × PEs as one flat communicator.
		cl, err := pidcomm.NewCluster(hosts, geo, []int{geo.NumPEs()})
		if err != nil {
			log.Fatal(err)
		}
		sess, err := cl.Comm()
		if err != nil {
			log.Fatal(err)
		}
		G := cl.NumPEs()
		m := 512 * cl.PEsPerHost() // per-PE bytes; AllReduce needs a multiple of 8×(global ranks)
		ones := make([]byte, m)
		for i := 0; i < m; i += 4 {
			binary.LittleEndian.PutUint32(ones[i:], 1)
		}
		for h := 0; h < hosts; h++ {
			for p := 0; p < cl.PEsPerHost(); p++ {
				sess.Host(h).SetPEBuffer(p, 0, ones)
			}
		}
		bd, err := sess.Run(pidcomm.ClusterCollective{Collective: pidcomm.Collective{
			Prim: pidcomm.AllReduce, Dims: "1",
			Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
			Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.CM,
		}})
		if err != nil {
			log.Fatal(err)
		}
		got := binary.LittleEndian.Uint32(sess.Host(hosts-1).GetPEBuffer(0, 2*m, 4))
		if got != uint32(G) {
			log.Fatalf("global AllReduce: element = %d, want %d", got, G)
		}
		fmt.Printf("%d host(s) x %d PEs, functional: every element summed to %d; "+
			"AllReduce %6.3f ms (network %4.1f%%)\n",
			hosts, cl.PEsPerHost(), got, float64(bd.Total())*1e3,
			100*float64(bd.Get(cost.Network))/float64(bd.Total()))
	}
	fmt.Println()

	// --- Part 2: cost-only sweep, hierarchical vs flat -----------------
	// Cost-only clusters move no bytes (payload regions are priced, not
	// populated), so host counts that would never fit in memory sweep in
	// milliseconds.
	sweep := pidcomm.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 1 << 18}
	perPE := 16 << 10
	fmt.Println("cost-only global AllReduce, 16 KiB/PE, 10 Gbps (paper operating point):")
	for _, hosts := range []int{4, 16, 64} {
		hier := measure(hosts, sweep, perPE, pidcomm.DefaultParams(), false)
		flat := measure(hosts, sweep, perPE, pidcomm.DefaultParams(), true)
		fmt.Printf("  %3d hosts: hierarchical %8.3f ms, flat %9.3f ms  (%.1fx)\n",
			hosts, float64(hier.Total())*1e3, float64(flat.Total())*1e3,
			float64(flat.Total())/float64(hier.Total()))
	}

	// Re-price a bandwidth-bound payload (4 MiB/PE — the ring ships about
	// 2×perPE over the wire) on a faster fabric: every cost.NetParams knob
	// moves the network leg analytically.
	big := pidcomm.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 16 << 20}
	bigPerPE := 4 << 20
	p := pidcomm.DefaultParams()
	p.Net.LinkBW = 100e9 / 8 // 100 Gbps links...
	p.Net.NICsPerHost = 4    // ...four per host
	slow := measure(64, big, bigPerPE, pidcomm.DefaultParams(), false)
	fast := measure(64, big, bigPerPE, p, false)
	fmt.Printf("\n64 hosts, 4 MiB/PE: 10 Gbps x1 %8.3f ms -> 100 Gbps x4 %8.3f ms (network %6.3f -> %6.3f ms)\n",
		float64(slow.Total())*1e3, float64(fast.Total())*1e3,
		float64(slow.Get(cost.Network))*1e3, float64(fast.Get(cost.Network))*1e3)
}

// measure prices one global AllReduce of perPE bytes per PE on a fresh
// cost-only cluster.
func measure(hosts int, geo pidcomm.Geometry, perPE int, p pidcomm.Params, flat bool) pidcomm.Breakdown {
	cl, err := pidcomm.NewCluster(hosts, geo, []int{geo.NumPEs()},
		pidcomm.CostOnly(), pidcomm.WithParams(p))
	if err != nil {
		log.Fatal(err)
	}
	sess, err := cl.Comm()
	if err != nil {
		log.Fatal(err)
	}
	P := cl.PEsPerHost()
	m := perPE / (8 * P) * (8 * P) // local legs split m into 8-byte blocks per local rank
	if m == 0 {
		m = 8 * P
	}
	bd, err := sess.Run(pidcomm.ClusterCollective{Collective: pidcomm.Collective{
		Prim: pidcomm.AllReduce, Dims: "1",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.CM,
	}, Flat: flat})
	if err != nil {
		log.Fatal(err)
	}
	return bd
}
