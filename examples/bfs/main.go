// BFS example (§ VII-C): level-synchronous breadth-first search where
// every iteration's frontier bitmaps are combined with an OR AllReduce.
// Compares the conventional communication design against PID-Comm and
// validates distances against the CPU reference.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/bfs"
	"repro/internal/data"
	"repro/pidcomm"
)

func main() {
	cfg := bfs.Config{Graph: data.RMAT(1<<14, 1<<17, 99), PEs: 128, Source: 3}
	fmt.Printf("BFS over %d vertices / %d edges on %d PEs, source %d\n",
		cfg.Graph.V, cfg.Graph.NumEdges(), cfg.PEs, cfg.Source)

	want, cpuT, err := bfs.RunCPU(cfg)
	if err != nil {
		log.Fatal(err)
	}
	reached := 0
	maxD := int32(0)
	for _, d := range want {
		if d >= 0 {
			reached++
			if d > maxD {
				maxD = d
			}
		}
	}
	fmt.Printf("reachable: %d vertices, eccentricity %d; CPU-only: %.2f ms\n\n",
		reached, maxD, float64(cpuT)*1e3)

	for _, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.CM} {
		dist, prof, err := bfs.RunPIM(cfg, lvl)
		if err != nil {
			log.Fatal(err)
		}
		for v := range dist {
			if dist[v] != want[v] {
				log.Fatalf("%v: distance mismatch at vertex %d", lvl, v)
			}
		}
		name := "Base    "
		if lvl != pidcomm.Baseline {
			name = "PID-Comm"
		}
		fmt.Printf("%s  total %7.2f ms   AllReduce %6.2f ms   kernel %6.2f ms\n",
			name, float64(prof.Total())*1e3,
			float64(prof.ByPrimitive[pidcomm.AllReduce])*1e3,
			float64(prof.KernelTime)*1e3)
	}
	fmt.Println("\ndistances bit-exact against the CPU reference")
}
