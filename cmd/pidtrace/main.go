// Command pidtrace runs a single collective primitive on the simulated
// PIM-DIMM system (cost-only backend) and prints its execution-time breakdown per category —
// the per-primitive view behind Figure 17. Useful for exploring how the
// optimization levels change where time goes.
//
// Usage:
//
//	pidtrace -prim AA -dims 10 -shape 32,32 -size 65536 -level CM
//	pidtrace -prim RS -dims 1 -shape 1024 -size 262144 -level Base -elem INT8
//	pidtrace -prim AR -dims 10 -shape 4,64 -size 65536 -level Base -algo ring
//	pidtrace -prim AG -dims 10 -shape 4,64 -size 1024 -level Auto
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/elem"
)

func main() {
	prim := flag.String("prim", "AA", "primitive: AA RS AR AG Sc Ga Re Br")
	dims := flag.String("dims", "10", "comm-dimensions bitmap (Figure 10)")
	shape := flag.String("shape", "32,32", "hypercube shape, comma-separated")
	size := flag.Int("size", 64<<10, "per-PE bytes on the larger side")
	level := flag.String("level", "CM", "optimization level: Auto, Base, PR, IM, CM")
	algo := flag.String("algo", "Auto", "schedule algorithm: Auto, ref, ring, tree, rsag (AllReduce/Broadcast)")
	elemName := flag.String("elem", "INT32", "element type: INT8 INT16 INT32 INT64")
	op := flag.String("op", "SUM", "reduction op: SUM MIN MAX OR AND XOR")
	flag.Parse()

	spec := bench.PrimSpec{RecvPerPE: *size}
	for _, part := range strings.Split(*shape, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal("bad shape: %v", err)
		}
		spec.Shape = append(spec.Shape, v)
	}
	spec.Dims = *dims

	var ok bool
	if spec.Prim, ok = lookup(core.Primitives(), *prim); !ok {
		fatal("unknown primitive %q (want one of %v)", *prim, core.Primitives())
	}
	levels := map[string]core.Level{"Auto": core.Auto, "Base": core.Baseline, "PR": core.PR, "IM": core.IM, "CM": core.CM}
	if spec.Level, ok = levels[*level]; !ok {
		fatal("unknown level %q", *level)
	}
	var err error
	if spec.Algo, err = core.ParseAlgorithm(*algo); err != nil {
		fatal("%v", err)
	}
	if spec.Elem, ok = lookup(elem.Types(), *elemName); !ok {
		fatal("unknown element type %q (want one of %v)", *elemName, elem.Types())
	}
	if spec.Op, ok = lookup(elem.Ops(), *op); !ok {
		fatal("unknown reduction op %q (want one of %v)", *op, elem.Ops())
	}

	r, err := bench.RunPrimitive(spec)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s on %v dims=%s, %d B/PE, level %v, algo %v (resolved: %v at %v)\n",
		spec.Prim.LongName(), spec.Shape, spec.Dims, spec.RecvPerPE, spec.Level, spec.Algo, r.Algo, r.Level)
	fmt.Printf("throughput: %.2f GB/s   simulated time: %.3f ms\n\n", r.GBps, float64(r.Cost.Total())*1e3)
	fmt.Printf("%-16s %12s %7s\n", "category", "time (ms)", "share")
	for _, c := range cost.Categories() {
		t := r.Cost.Get(c)
		if t == 0 {
			continue
		}
		fmt.Printf("%-16s %12.4f %6.1f%%\n", c, float64(t)*1e3, 100*float64(t)/float64(r.Cost.Total()))
	}
	fmt.Printf("\nbus traffic: %d bursts, %.2f MiB total", r.Stats.Bursts, float64(r.Stats.TotalBytes())/(1<<20))
	for ch, b := range r.Stats.BytesPerChannel {
		fmt.Printf("  ch%d=%.2fMiB", ch, float64(b)/(1<<20))
	}
	fmt.Println()
}

// lookup returns the value of vals named name.
func lookup[T fmt.Stringer](vals []T, name string) (T, bool) {
	for _, v := range vals {
		if v.String() == name {
			return v, true
		}
	}
	var zero T
	return zero, false
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pidtrace: "+format+"\n", args...)
	os.Exit(1)
}
