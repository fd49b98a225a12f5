package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// This file holds the algorithm-table experiment (`pidbench -exp
// algo`): the machine-level AllReduce lowerings (reference staged
// schedule vs the ring / tree / Rabenseifner alternatives)
// priced per payload size under both Auto objectives, the cluster-scale
// host-level ring-vs-tree wire algorithms with their latency/bandwidth
// crossover, and the pinned async point where the makespan objective
// picks a different candidate than the meter objective and measurably
// wins on overlapped elapsed time. Everything runs cost-only, so the
// sweep is deterministic and finishes in CI time.

// The pinned machine for the per-algorithm sweep: the § IX-A host (one
// four-rank channel, 256 PEs) shaped (4,64) so the communication groups
// along dims "10" have four members — small enough that ring, tree and
// Rabenseifner genuinely differ in round structure.
var algoPinShape = []int{4, 64}

const (
	algoPinDims  = "10"
	algoPinPerPE = 64 << 10
)

// MeasureAlgoAllReduce compiles one Baseline AllReduce of bytesPerPE
// bytes per PE on the pinned cost-only machine under the given
// algorithm and returns the plan's meter cost (serial seconds) and its
// pipelined dry-placed makespan (overlapped seconds at
// core.AutoPipelineDepth).
func MeasureAlgoAllReduce(bytesPerPE int, alg core.Algorithm) (meter, makespan cost.Seconds, err error) {
	_, comm, d, _, err := primSetup(PrimSpec{Shape: algoPinShape, Dims: algoPinDims, RecvPerPE: bytesPerPE,
		Prim: core.AllReduce, Level: core.Baseline, Elem: elem.I32, Op: elem.Sum, Algo: alg})
	if err != nil {
		return 0, 0, err
	}
	cp, err := comm.Compile(d)
	if err != nil {
		return 0, 0, err
	}
	return cp.Cost().Total(), cp.Makespan(), nil
}

// The pinned cluster crossover points: at 64 hosts the tree wire
// algorithm (2*log2(H) rounds of the full payload) beats the ring
// (2*(H-1) rounds of payload/H) on the latency-bound small payload,
// and loses on the bandwidth-bound large one. Both sides are gated.
const (
	algoClusterSmall = clusterPinPerPE // 16 KiB: latency-bound, tree wins
	algoClusterLarge = 4 << 20         // 4 MiB: bandwidth-bound, ring wins
)

// AutoGainResult is the outcome of the pinned objective comparison: the
// candidate each Auto objective resolves the same signature to, and the
// measured overlapped elapsed time of a depth-AutoGainDepth async burst
// executed with that candidate.
type AutoGainResult struct {
	MeterAlgo       core.Algorithm
	MeterLevel      core.Level
	MeterElapsed    cost.Seconds
	MakespanAlgo    core.Algorithm
	MakespanLevel   core.Level
	MakespanElapsed cost.Seconds
}

// AutoGainDepth is the number of independent collectives the objective
// comparison overlaps.
const AutoGainDepth = 8

// MeasureAutoObjectiveGain measures the pinned point where the makespan
// objective beats the meter objective: an Auto-level AllGather of
// 256-byte contributions in four-member groups on the § IX-A host. The
// meter objective picks the serially-cheapest candidate (Baseline,
// concentrated on the host lanes); the makespan objective pays a
// fraction of a percent more serial cost for a lane-balanced +CM
// schedule that pipelines across AutoGainDepth overlapped instances and
// finishes earlier on the async queue. Both picks are executed for real
// (cost-only) and the overlap-aware Comm.Elapsed is reported.
func MeasureAutoObjectiveGain() (AutoGainResult, error) {
	const s = 256   // per-PE contribution
	const m = 4 * s // gathered payload (group size 4)
	var r AutoGainResult
	for _, obj := range []core.AutoObjective{core.AutoMeter, core.AutoMakespan} {
		geo := dram.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 1 << 20}
		mach, c, err := newCommOn(geo, algoPinShape, core.Config{})
		if err != nil {
			return r, err
		}
		mach.SetAutoObjective(obj)
		alg, lvl, err := c.Resolve(core.Collective{Prim: core.AllGather, Dims: algoPinDims,
			Src: core.Span(0, s), Dst: core.At(2 * s), Level: core.Auto})
		if err != nil {
			return r, err
		}
		var futs []*core.Future
		for b := 0; b < AutoGainDepth; b++ {
			base := b * 4 * m
			cp, err := c.Compile(core.Collective{Prim: core.AllGather, Dims: algoPinDims,
				Src: core.Span(base, s), Dst: core.At(base + 2*s), Level: core.Auto})
			if err != nil {
				return r, err
			}
			futs = append(futs, cp.Submit())
		}
		c.Flush()
		for _, f := range futs {
			if err := f.Err(); err != nil {
				return r, err
			}
		}
		if obj == core.AutoMeter {
			r.MeterAlgo, r.MeterLevel, r.MeterElapsed = alg, lvl, c.Elapsed()
		} else {
			r.MakespanAlgo, r.MakespanLevel, r.MakespanElapsed = alg, lvl, c.Elapsed()
		}
	}
	return r, nil
}

func init() {
	register("algo", "Algorithm registry: machine-level AllReduce lowerings, cluster ring vs tree, makespan-aware Auto (cost-only)", func(o Options, c *cells) error {
		// Per-algorithm machine-level sweep: every AllReduce row of the
		// lowering table is byte-identical to the reference, so the only thing
		// that varies is where the time goes — the meter total (serial)
		// and the pipelined makespan (overlapped) per payload size. The
		// pinned size's cells carry no size (algo/allreduce_ref_meter).
		sizes := []int{16 << 10, 64 << 10, 256 << 10}
		if o.Full {
			sizes = append(sizes, 1<<20)
		}
		t := newTable("Size/PE", "Algo", "Meter(ms)", "Makespan(ms)", "Meter vs ref")
		for _, size := range sizes {
			sfx := fmt.Sprintf("_%dK", size>>10)
			if size == algoPinPerPE {
				sfx = ""
			}
			var ref float64
			for _, alg := range core.RegisteredAlgorithms(core.AllReduce) {
				m, ks, err := MeasureAlgoAllReduce(size, alg)
				if err != nil {
					return err
				}
				name := "allreduce_" + alg.String()
				meter := c.put(name+"_meter"+sfx, m)
				if alg == core.AlgoReference {
					ref = meter
				}
				t.add(fmt.Sprintf("%dK", size>>10), alg.String(),
					fmt.Sprintf("%.3f", meter*1e3),
					fmt.Sprintf("%.3f", c.put(name+"_makespan"+sfx, ks)*1e3),
					fmt.Sprintf("%.2fx", meter/ref))
			}
		}
		t.write(o.W)

		// Cluster host-level wire algorithms: ring vs tree across the
		// latency/bandwidth crossover, with the analytic Auto pick.
		params := cost.DefaultParams()
		fmt.Fprintln(o.W)
		t = newTable("Bytes/PE", "Ring(ms)", "Tree(ms)", "Auto(ms)", "Auto pick")
		for _, perPE := range []int{algoClusterSmall, 256 << 10, 1 << 20, algoClusterLarge} {
			label := fmt.Sprintf("%dK", perPE>>10)
			switch perPE {
			case algoClusterSmall:
				label = "small"
			case algoClusterLarge:
				label = "large"
			}
			var ms [3]float64
			for i, alg := range []core.Algorithm{core.AlgoRing, core.AlgoTree, core.AlgoAuto} {
				bd, err := MeasureClusterAllReduce(clusterPinHosts, perPE, params, alg, false)
				if err != nil {
					return err
				}
				ms[i] = c.put("cluster_"+strings.ToLower(alg.String())+"_"+label, bd.Total())
			}
			pick := "ring"
			if ms[1] < ms[0] {
				pick = "tree"
			}
			t.add(fmt.Sprintf("%dK", perPE>>10), fmt.Sprintf("%.3f", ms[0]*1e3), fmt.Sprintf("%.3f", ms[1]*1e3),
				fmt.Sprintf("%.3f", ms[2]*1e3), pick)
		}
		t.write(o.W)

		// The pinned objective comparison: same Auto signature, two
		// objectives, measured overlapped elapsed time.
		g, err := MeasureAutoObjectiveGain()
		if err != nil {
			return err
		}
		meter, makespan := c.put("auto_meter_elapsed", g.MeterElapsed), c.put("auto_makespan_elapsed", g.MakespanElapsed)
		fmt.Fprintln(o.W)
		t = newTable("Objective", "Pick", "Elapsed(ms)")
		t.add("meter", fmt.Sprintf("(%v, %v)", g.MeterAlgo, g.MeterLevel), fmt.Sprintf("%.4f", meter*1e3))
		t.add("makespan", fmt.Sprintf("(%v, %v)", g.MakespanAlgo, g.MakespanLevel), fmt.Sprintf("%.4f", makespan*1e3))
		t.write(o.W)
		fmt.Fprintf(o.W, "\nAllGather %v %s, depth %d async: makespan objective gains %.2fx elapsed\n",
			algoPinShape, algoPinDims, AutoGainDepth, meter/makespan)
		return nil
	})
}
