package repro

// One testing.B benchmark per table and figure of the paper's evaluation
// (§ VIII). Each benchmark runs a miniature of the corresponding
// experiment (so `go test -bench=.` completes in minutes) and reports the
// simulated metric the figure plots — throughput in GB/s or speedup —
// via b.ReportMetric. cmd/pidbench regenerates the full-scale artifacts.

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/apps/bfs"
	"repro/internal/apps/cc"
	"repro/internal/apps/dlrm"
	"repro/internal/apps/gnn"
	"repro/internal/apps/mlp"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/pidcomm"
)

const benchSize = 16 << 10 // per-PE payload for primitive micro-benches

func reportGBs(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
}

func runPrim(b *testing.B, prim core.Primitive, lvl core.Level, shape []int, dims string, size int) float64 {
	b.Helper()
	var r bench.PrimResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunPrimitive(bench.PrimSpec{
			Shape: shape, Dims: dims, RecvPerPE: size, Prim: prim, Level: lvl, Elem: elem.I32, Op: elem.Sum,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return r.GBps
}

func BenchmarkTable1Support(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.TableI()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Applicability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.TableII()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3Applications(b *testing.B) {
	e, err := bench.ByID("table3")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(bench.Options{W: io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 4: baseline application breakdown; reports the communication
// share of a comm-dominated app (CC).
func BenchmarkFig4Breakdown(b *testing.B) {
	g := data.Undirected(data.RMAT(2048, 8192, 12))
	var share float64
	for i := 0; i < b.N; i++ {
		_, prof, err := cc.RunPIM(cc.Config{Graph: g, PEs: 64}, core.Baseline)
		if err != nil {
			b.Fatal(err)
		}
		share = float64(prof.CommTotal()) / float64(prof.Total())
	}
	reportGBs(b, "comm-share", share)
}

// Figure 13: per-app breakdown Base vs Ours; reports MLP's RS speedup.
func BenchmarkFig13AppBreakdown(b *testing.B) {
	cfg := mlp.Config{Features: 2048, Layers: 3, PEs: 64, Batches: 2, Seed: 4}
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, base, err := mlp.RunPIM(cfg, core.Baseline)
		if err != nil {
			b.Fatal(err)
		}
		_, ours, err := mlp.RunPIM(cfg, core.CM)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(base.ByPrimitive[core.ReduceScatter]) / float64(ours.ByPrimitive[core.ReduceScatter])
	}
	reportGBs(b, "RS-speedup-x", ratio)
}

// Figure 14: primitive throughput Base vs PID-Comm on a 2-D hypercube.
func BenchmarkFig14PrimitiveThroughput(b *testing.B) {
	for _, prim := range core.Primitives() {
		b.Run(prim.LongName(), func(b *testing.B) {
			base := runPrim(b, prim, core.Baseline, []int{16, 16}, "10", benchSize)
			ours := runPrim(b, prim, core.CM, []int{16, 16}, "10", benchSize)
			reportGBs(b, "base-GB/s", base)
			reportGBs(b, "ours-GB/s", ours)
			reportGBs(b, "speedup-x", ours/base)
		})
	}
}

// Figure 15: application speedup over the conventional baseline (BFS at
// LJ-like scale, where frontier bitmaps amortize launch overheads).
func BenchmarkFig15AppSpeedup(b *testing.B) {
	g := data.RMAT(1<<16, 1<<18, 6)
	var sp float64
	for i := 0; i < b.N; i++ {
		_, base, err := bfs.RunPIM(bfs.Config{Graph: g, PEs: 64}, core.Baseline)
		if err != nil {
			b.Fatal(err)
		}
		_, ours, err := bfs.RunPIM(bfs.Config{Graph: g, PEs: 64}, core.CM)
		if err != nil {
			b.Fatal(err)
		}
		sp = float64(base.Total()) / float64(ours.Total())
	}
	reportGBs(b, "speedup-x", sp)
}

// Figure 16: the ablation — every optimization level of AlltoAll.
func BenchmarkFig16Ablation(b *testing.B) {
	for _, lvl := range core.Levels() {
		b.Run(lvl.String(), func(b *testing.B) {
			thr := runPrim(b, core.AlltoAll, lvl, []int{16, 16}, "10", benchSize)
			reportGBs(b, "GB/s", thr)
		})
	}
}

// Figure 17: breakdown categories of ReduceScatter, Base vs Ours;
// reports the host-memory share each design pays.
func BenchmarkFig17Breakdown(b *testing.B) {
	for _, lvl := range []core.Level{core.Baseline, core.IM} {
		b.Run(lvl.String(), func(b *testing.B) {
			var r bench.PrimResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = bench.RunPrimitive(bench.PrimSpec{
					Shape: []int{16, 16}, Dims: "10", RecvPerPE: benchSize,
					Prim: core.ReduceScatter, Level: lvl, Elem: elem.I32, Op: elem.Sum,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportGBs(b, "hostmem-share", float64(r.Cost.Get(cost.HostMem))/float64(r.Cost.Total()))
		})
	}
}

// Figure 18: data-size sweep for AlltoAll.
func BenchmarkFig18SizeSweep(b *testing.B) {
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			thr := runPrim(b, core.AlltoAll, core.CM, []int{16, 16}, "10", size)
			reportGBs(b, "GB/s", thr)
		})
	}
}

// Figure 19: PE-count sweep for AllReduce.
func BenchmarkFig19PESweep(b *testing.B) {
	for _, pes := range []int{64, 256, 1024} {
		b.Run(fmt.Sprint(pes), func(b *testing.B) {
			thr := runPrim(b, core.AllReduce, core.CM, []int{pes}, "1", benchSize)
			reportGBs(b, "GB/s", thr)
		})
	}
}

// Figure 20: hypercube-shape sweep for AllGather on the x axis.
func BenchmarkFig20Shapes(b *testing.B) {
	for _, shape := range [][]int{{8, 64, 2}, {32, 16, 2}, {128, 4, 2}} {
		b.Run(fmt.Sprintf("%dx%dx%d", shape[0], shape[1], shape[2]), func(b *testing.B) {
			thr := runPrim(b, core.AllGather, core.CM, shape, "100", benchSize)
			reportGBs(b, "GB/s", thr)
		})
	}
}

// Figure 21: speedup over the CPU-only system (DLRM).
func BenchmarkFig21CPUComparison(b *testing.B) {
	cfg := dlrm.Config{Tables: 8, RowsPerTable: 1024, EmbDim: 16, Batch: 1024,
		X: 2, Y: 2, Z: 8, TopOut: 32, TopLayers: 2, Batches: 4, Seed: 5}
	var sp float64
	for i := 0; i < b.N; i++ {
		_, cpuT, err := dlrm.RunCPU(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, prof, err := dlrm.RunPIM(cfg, core.CM)
		if err != nil {
			b.Fatal(err)
		}
		sp = float64(cpuT) / float64(prof.Total())
	}
	reportGBs(b, "speedup-x", sp)
}

// Figure 22: word-width sensitivity of the GNN.
func BenchmarkFig22WordWidth(b *testing.B) {
	in := data.GNNInput{Name: "bench", Graph: data.RMAT(1024, 4096, 20), F: 16}
	for _, et := range []elem.Type{elem.I8, elem.I16, elem.I32} {
		b.Run(et.String(), func(b *testing.B) {
			var comm cost.Seconds
			for i := 0; i < b.N; i++ {
				cfg := gnn.Config{Input: &in, Rows: 8, Cols: 8, Layers: 2, Elem: et, Seed: 3}
				_, prof, err := gnn.RunPIM(cfg, gnn.RSAR, core.IM)
				if err != nil {
					b.Fatal(err)
				}
				comm = prof.CommTotal()
			}
			reportGBs(b, "comm-ms", float64(comm)*1e3)
		})
	}
}

// Figure 23(a): AllReduce topology comparison.
func BenchmarkFig23aTopology(b *testing.B) {
	var rows []bench.TopoResult
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = bench.MeasureTopologies([]int{16, 16}, "10", 16*1024); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		// First word of the row label: a metric unit may not contain spaces.
		reportGBs(b, strings.ToLower(strings.Fields(r.Name)[0])+"-sim-ms", float64(r.Cost.Total())*1e3)
	}
}

// Figure 23(b): multi-host AllReduce.
func BenchmarkFig23bMultiHost(b *testing.B) {
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 4, MramPerBank: 1 << 15}
	for _, hosts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dhosts", hosts), func(b *testing.B) {
			var netShare float64
			for i := 0; i < b.N; i++ {
				cl, err := pidcomm.NewCluster(hosts, geo, []int{geo.NumPEs()}, pidcomm.CostOnly())
				if err != nil {
					b.Fatal(err)
				}
				sess, err := cl.Comm()
				if err != nil {
					b.Fatal(err)
				}
				m := cl.PEsPerHost() * 256
				bd, err := sess.Run(pidcomm.ClusterCollective{Collective: pidcomm.Collective{
					Prim: pidcomm.AllReduce, Dims: "1",
					Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
					Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.CM}})
				if err != nil {
					b.Fatal(err)
				}
				netShare = float64(bd.Get(cost.Network)) / float64(bd.Total())
			}
			reportGBs(b, "net-share", netShare)
		})
	}
}

// Cold cost-only compiles: every primitive at every level, Auto included,
// on a fresh cost-only paper machine (32×32, dims "10", 64 KiB per PE)
// per iteration, so each compile lowers, fuses and traces its schedule —
// the charge path every cold compile and Auto candidate pays.
// `make profile BENCH=ColdCompileCostOnly` profiles it.
func BenchmarkColdCompileCostOnly(b *testing.B) {
	const m, n = 64 << 10, 32
	hosts := make([][]byte, n) // Broadcast's payloads: read by no cost-only compile
	for g := range hosts {
		hosts[g] = make([]byte, m)
	}
	var ds []pidcomm.Collective
	for _, prim := range core.Primitives() {
		for _, lvl := range append(core.Levels(), core.Auto) {
			d := pidcomm.Collective{Prim: prim, Dims: "10", Level: lvl, Elem: elem.I32, Op: elem.Sum}
			switch prim {
			case core.AlltoAll, core.ReduceScatter, core.AllReduce:
				d.Src, d.Dst = pidcomm.Span(0, m), pidcomm.At(2*m)
			case core.AllGather:
				d.Src, d.Dst = pidcomm.Span(0, m/n), pidcomm.At(2*m)
			case core.Scatter:
				d.Dst = pidcomm.Span(0, m)
			case core.Gather, core.Reduce:
				d.Src = pidcomm.Span(0, m)
			case core.Broadcast:
				d.Dst, d.Hosts = pidcomm.At(0), hosts
			}
			ds = append(ds, d)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(512<<10), []int{32, 32}, pidcomm.CostOnly())
		if err != nil {
			b.Fatal(err)
		}
		comm, err := mach.Comm()
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range ds {
			if _, err := comm.Compile(d); err != nil {
				b.Fatalf("%v at %v: %v", d.Prim, d.Level, err)
			}
		}
	}
}

// Cold cost-only compiles of one staged AllReduce at Base, 64 KiB per PE,
// each on a fresh cost-only paper machine (32×32): a ring over one axis
// ("10", 32 ranks) and over both ("11", 1024 ranks), with the tree and
// rsag beside it. A ring row's trace is 2(n-1) rounds of host charges,
// so this is the row whose compile the per-round charge path decides;
// machine construction is outside the timer.
func BenchmarkColdCompileRing(b *testing.B) {
	const m = 64 << 10
	for _, algo := range []core.Algorithm{core.AlgoRing, core.AlgoTree, core.AlgoRabenseifner} {
		for _, dims := range []string{"10", "11"} {
			d := pidcomm.Collective{Prim: core.AllReduce, Dims: dims, Level: core.Baseline, Algorithm: algo,
				Elem: elem.I32, Op: elem.Sum, Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m)}
			b.Run(algo.String()+"/"+dims, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(512<<10), []int{32, 32}, pidcomm.CostOnly())
					if err != nil {
						b.Fatal(err)
					}
					comm, err := mach.Comm()
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := comm.Compile(d); err != nil {
						b.Fatalf("%v over %q: %v", algo, dims, err)
					}
				}
			})
		}
	}
}
