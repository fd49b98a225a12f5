// DLRM example: recommendation-model inference over a 3-D hypercube
// (§ VII-A, Figure 11): embedding tables split across tables (z), rows
// (y) and embedding columns (x); each batch flows through AlltoAll(xyz),
// lookup, ReduceScatter(y), AlltoAll(xz) and the top MLP.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/dlrm"
	"repro/pidcomm"
)

func main() {
	cfg := dlrm.Config{
		Tables: 8, RowsPerTable: 2048, EmbDim: 16, Batch: 1024,
		X: 2, Y: 2, Z: 8, TopOut: 32, TopLayers: 2, Batches: 4, Seed: 3,
	}
	fmt.Printf("DLRM: %d tables x %d rows x dim %d, batch %d x %d, hypercube [%d %d %d]\n",
		cfg.Tables, cfg.RowsPerTable, cfg.EmbDim, cfg.Batch, cfg.Batches, cfg.X, cfg.Y, cfg.Z)

	want, cpuT, err := dlrm.RunCPU(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.CM} {
		got, prof, err := dlrm.RunPIM(cfg, lvl)
		if err != nil {
			log.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				log.Fatalf("%v: output mismatch at %d", lvl, i)
			}
		}
		name := "Base    "
		if lvl != pidcomm.Baseline {
			name = "PID-Comm"
		}
		fmt.Printf("%s  total %7.2f ms   %v\n", name, float64(prof.Total())*1e3, prof)
	}
	fmt.Printf("CPU-only reference: %.2f ms\n", float64(cpuT)*1e3)
	fmt.Println("outputs bit-exact against the CPU reference")
}
