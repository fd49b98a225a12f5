// GNN example: train-free 3-layer graph neural network inference over a
// 2-D hypercube of PEs (§ VII-B), comparing the conventional baseline
// against PID-Comm for both communication strategies (RS&AR and AR&AG),
// and validating the integer results against the CPU reference.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/gnn"
	"repro/internal/data"
	"repro/pidcomm"
)

func main() {
	in := data.GNNInput{Name: "demo", Graph: data.RMAT(2048, 8192, 7), F: 64}
	cfg := gnn.Config{Input: &in, Rows: 8, Cols: 8, Layers: 3, Elem: pidcomm.I32, Seed: 9}

	want, cpuT, err := gnn.RunCPU(cfg, gnn.RSAR)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, %d features; 8x8 PE grid\n",
		in.Graph.V, in.Graph.NumEdges(), in.F)
	fmt.Printf("CPU-only reference: %.2f ms\n\n", float64(cpuT)*1e3)

	for _, variant := range []gnn.Variant{gnn.RSAR, gnn.ARAG} {
		for _, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.CM} {
			got, prof, err := gnn.RunPIM(cfg, variant, lvl)
			if err != nil {
				log.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					log.Fatalf("%v/%v: mismatch at %d", variant, lvl, i)
				}
			}
			name := "Base    "
			if lvl != pidcomm.Baseline {
				name = "PID-Comm"
			}
			fmt.Printf("%v %s  total %7.2f ms   %s\n", variant, name,
				float64(prof.Total())*1e3, prof)
		}
	}
	fmt.Println("\nall variants bit-exact against the CPU reference")
}
