// Command pidfuzz performs randomized differential testing of the
// collective library: it generates random system geometries, hypercube
// shapes, dimension selections, payload sizes, element types, reduction
// operators and optimization levels (including Auto), runs all eight
// primitives and the in-place AlltoAll on every group, and compares the
// resulting bytes against the independent reference model; each scenario
// also compiles a fused AlltoAll→ReduceScatter sequence through the
// schedule-fusion optimizer and diffs it against an unfused execution.
// Every check is one row of a table in internal/fuzz, which also runs a
// small deterministic slice of this loop as an in-process CI smoke test.
//
// Every fourth scenario additionally draws a cluster scenario: 1-4
// hosts joined by the cluster layer, the same rows run on the group of
// all global ranks, with a cost-only twin cluster whose breakdowns must
// match the functional runs bit-for-bit. Interleaved with those, every
// fourth scenario draws an online-serving scenario: a random tenant mix
// with random arrivals, deadlines, overload budgets and mid-run churn
// driven through internal/serve, checked for deterministic replay,
// future leaks, hazard or arrival violations, and arena re-coalescing
// after teardown.
//
// This is the heavyweight companion of the package tests: run it for as
// many iterations as you like (it reports the first divergence found).
// The only flags are -n (scenarios) and -seed; a failure replays from
// its seed alone.
//
//	pidfuzz -n 200 -seed 7
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/fuzz"
)

func main() {
	n := flag.Int("n", 100, "number of random scenarios")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < *n; i++ {
		sc := fuzz.Random(rng)
		if err := sc.Check(rng); err != nil {
			fmt.Fprintf(os.Stderr, "pidfuzz: scenario %d FAILED: %v\n", i, err)
			os.Exit(1)
		}
		if i%4 == 0 {
			csc := fuzz.RandomCluster(rng)
			if err := csc.Check(rng); err != nil {
				fmt.Fprintf(os.Stderr, "pidfuzz: cluster scenario %d FAILED: %v\n", i, err)
				os.Exit(1)
			}
		}
		if i%4 == 2 {
			ssc, err := fuzz.RandomServing(rng)
			if err == nil {
				err = ssc.Check()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "pidfuzz: serving scenario %d FAILED: %v\n", i, err)
				os.Exit(1)
			}
		}
		if (i+1)%25 == 0 {
			fmt.Printf("%d/%d scenarios ok\n", i+1, *n)
		}
	}
	fmt.Printf("all %d scenarios match the reference model\n", *n)
}
