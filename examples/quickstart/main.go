// Quickstart: build a simulated PIM-enabled DIMM machine, define a 2-D
// virtual hypercube over its PEs, run one multi-instance AlltoAll along
// the x axis at every optimization level, and compare the simulated
// communication times (the Figure 16 ablation in miniature). Every
// collective is described by a pidcomm.Collective and executed with
// Run — the descriptor's zero-value Level is the Auto autotuner.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/pidcomm"
)

func main() {
	// One channel, two ranks: 128 PEs with 64 KiB MRAM each.
	mach, err := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 2, BanksPerChip: 8, MramPerBank: 64 << 10,
	}, []int{16, 8})
	if err != nil {
		log.Fatal(err)
	}
	comm, err := mach.Comm()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hypercube %v over %d PEs; dims \"10\" forms %d AlltoAll instances\n",
		mach.Shape(), mach.NumPEs(), 8)

	const blk = 1024   // bytes per block: the paper's operating regime
	const m = 16 * blk // 16 ranks per group
	rng := rand.New(rand.NewSource(42))
	// fill returns the per-PE inputs it wrote; the optimized collectives
	// consume the source region (PE-assisted reordering is in place), so
	// every level starts from a fresh fill.
	fill := func() [][]byte {
		in := make([][]byte, 128)
		for pe := range in {
			in[pe] = make([]byte, m)
			rng.Read(in[pe])
			comm.SetPEBuffer(pe, 0, in[pe])
		}
		return in
	}
	aa := pidcomm.Collective{
		Prim: pidcomm.AlltoAll, Dims: "10",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
	}

	for _, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.PR, pidcomm.IM, pidcomm.CM} {
		fill()
		d := aa
		d.Level = lvl
		bd, err := comm.Run(d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5v %8.1f us  (%s)\n", lvl, float64(bd.Total())*1e6, bd)
	}

	// The Auto pseudo-level — the descriptor's zero value — resolves to
	// the cheapest applicable level via a cost-only dry run (cached per
	// call signature).
	{
		fill()
		bd, err := comm.Run(aa) // Level unset: Auto
		if err != nil {
			log.Fatal(err)
		}
		_, picked, err := comm.Resolve(aa)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Auto  %8.1f us  (picked %v)\n", float64(bd.Total())*1e6, picked)
	}

	// Semantics check: AlltoAll hands block j of rank i's Src to block i
	// of rank j's Dst, in every group.
	all := fill()
	d := aa
	d.Level = pidcomm.CM
	if _, err := comm.Run(d); err != nil {
		log.Fatal(err)
	}
	groups, _ := mach.Groups("10")
	for _, grp := range groups {
		for j, pe := range grp {
			got := comm.GetPEBuffer(pe, 2*m, m)
			for i, src := range grp {
				if !bytes.Equal(got[i*blk:(i+1)*blk], all[src][j*blk:(j+1)*blk]) {
					log.Fatalf("verification failed at PE %d block %d", pe, i)
				}
			}
		}
	}
	fmt.Println("result verified against the reference model")
}
