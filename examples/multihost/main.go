// Multi-host example (§ IX-A, Figure 23(b)): two hosts, each driving its
// own channel of PIM-enabled DIMMs, cooperate over a 10 Gbps link. A
// global AllReduce sends only locally-reduced data across the wire, so
// the network share stays small; a global AlltoAll must move (H-1)/H of
// all data and pays much more.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cost"
	"repro/pidcomm"
)

func main() {
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
		P := cl.PEsPerHost()
		m := P * 512
		rng := rand.New(rand.NewSource(11))
		buf := make([]byte, m)
		for h := 0; h < hosts; h++ {
			for p := 0; p < P; p++ {
				rng.Read(buf)
				sess.Host(h).SetPEBuffer(p, 0, buf)
			}
		}
		bd, err := sess.Run(pidcomm.ClusterCollective{Collective: pidcomm.Collective{
			Prim: pidcomm.AllReduce, Dims: "1",
			Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
			Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.CM}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d host(s) x %d PEs: AllReduce %7.3f ms (network %5.1f%%)\n",
			hosts, P, float64(bd.Total())*1e3,
			100*float64(bd.Get(cost.Network))/float64(bd.Total()))
	}
}
