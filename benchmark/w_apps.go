package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/apps/appcore"
	"repro/internal/apps/bfs"
	"repro/internal/apps/cc"
	"repro/internal/apps/dlrm"
	"repro/internal/apps/gnn"
	"repro/internal/apps/mlp"
	"repro/internal/core"
	"repro/internal/data"
	"repro/pidcomm"
)

// appMix is the app_mix workload: functional DLRM, GNN (RS&AR), MLP, BFS
// and CC miniatures through apps/*.RunPIM at Baseline and CM. A pass is
// the ten app runs; each builds its own machine, compiles its plans
// cold, places data with Scatter/Broadcast, launches dpu kernels and
// drives the async submit loop — the whole path a user of
// `pidbench -exp fig15` waits for, in miniature.
type appMix struct {
	runs   []appRun
	sims   []float64 // simulated Profile.Total() of each run of the last pass
	bad    int       // errors + RunCPU mismatches of the last pass
	setupT struct {
		rmat time.Duration // one data.RMAT call at the BFS size
	}
}

// appRun is one (application, level) run of the pass. run executes
// RunPIM and reports whether its result equals the RunCPU reference
// computed in setup, plus the simulated time the run charged.
type appRun struct {
	app, lvl string
	span     string // "apps.<app>.<lvl>"
	run      func() (ok bool, sim float64, err error)
}

func (w *appMix) ops() int { return len(w.runs) }

func (w *appMix) setup(e *env) error {
	// Inputs come from the seed: graphs are built here, and the apps draw
	// their tables, features and weights from Config.Seed inside RunPIM.
	bfsV, bfsE := 1<<14, 1<<16
	ccV, ccE := 2048, 8192
	gnnV, gnnE, gnnF := 1024, 4096, 16
	mlpF, dlrmBatch := 1024, 1024
	if e.smoke {
		bfsV, bfsE = 1<<10, 1<<12
		ccV, ccE = 512, 2048
		gnnV, gnnE = 256, 1024
		mlpF, dlrmBatch = 256, 128
	}
	t0 := time.Now()
	bfsGraph := data.RMAT(bfsV, bfsE, e.seed*7+1)
	w.setupT.rmat = time.Since(t0)
	ccGraph := data.Undirected(data.RMAT(ccV, ccE, e.seed*7+2))
	gnnIn := data.GNNInput{Name: "bench", Graph: data.RMAT(gnnV, gnnE, e.seed*7+3), F: gnnF}

	dlrmCfg := dlrm.Config{Tables: 8, RowsPerTable: 1024, EmbDim: 16, Batch: dlrmBatch,
		X: 2, Y: 2, Z: 8, TopOut: 32, TopLayers: 2, Batches: 4, Seed: e.seed}
	gnnCfg := gnn.Config{Input: &gnnIn, Rows: 8, Cols: 8, Layers: 2, Elem: pidcomm.I32, Seed: e.seed}
	mlpCfg := mlp.Config{Features: mlpF, Layers: 3, PEs: 64, Batches: 2, Seed: e.seed}
	bfsCfg := bfs.Config{Graph: bfsGraph, PEs: 64}
	ccCfg := cc.Config{Graph: ccGraph, PEs: 64}

	// The CPU references every timed RunPIM result is compared with.
	sp := e.tr.begin("apps.run_cpu")
	dlrmRef, _, err := dlrm.RunCPU(dlrmCfg)
	if err != nil {
		return fmt.Errorf("dlrm.RunCPU: %w", err)
	}
	gnnRef, _, err := gnn.RunCPU(gnnCfg, gnn.RSAR)
	if err != nil {
		return fmt.Errorf("gnn.RunCPU: %w", err)
	}
	mlpRef, _, err := mlp.RunCPU(mlpCfg)
	if err != nil {
		return fmt.Errorf("mlp.RunCPU: %w", err)
	}
	bfsRef, _, err := bfs.RunCPU(bfsCfg)
	if err != nil {
		return fmt.Errorf("bfs.RunCPU: %w", err)
	}
	ccRef, _, err := cc.RunCPU(ccCfg)
	if err != nil {
		return fmt.Errorf("cc.RunCPU: %w", err)
	}
	e.tr.end(sp)

	for _, lvl := range []pidcomm.Level{pidcomm.Baseline, pidcomm.CM} {
		tag := levelTag(lvl)
		w.runs = append(w.runs,
			checkedRun("dlrm", tag, dlrmRef, func() ([]int32, *appcore.Profile, error) { return dlrm.RunPIM(dlrmCfg, lvl) }),
			checkedRun("gnn", tag, gnnRef, func() ([]int64, *appcore.Profile, error) { return gnn.RunPIM(gnnCfg, gnn.RSAR, lvl) }),
			checkedRun("mlp", tag, mlpRef, func() ([]int32, *appcore.Profile, error) { return mlp.RunPIM(mlpCfg, lvl) }),
			checkedRun("bfs", tag, bfsRef, func() ([]int32, *appcore.Profile, error) { return bfs.RunPIM(bfsCfg, lvl) }),
			checkedRun("cc", tag, ccRef, func() ([]int32, *appcore.Profile, error) { return cc.RunPIM(ccCfg, lvl) }),
		)
	}
	w.sims = make([]float64, len(w.runs))
	if err := w.pass(e.untraced()); err != nil { // warm-up, and the output check before the timed passes
		return err
	}
	if w.bad > 0 {
		return fmt.Errorf("%d of %d RunPIM results differ from RunCPU before the timed passes", w.bad, len(w.runs))
	}
	return nil
}

// checkedRun wraps one RunPIM call as an appRun that compares its result
// with the RunCPU reference.
func checkedRun[T comparable](app, lvl string, ref []T, runPIM func() ([]T, *appcore.Profile, error)) appRun {
	return appRun{app, lvl, "apps." + app + "." + lvl, func() (bool, float64, error) {
		out, prof, err := runPIM()
		if err != nil {
			return false, 0, err
		}
		return slices.Equal(out, ref), profileTotal(prof), nil
	}}
}

// profileTotal is Profile.Total() with the per-primitive times added in
// primitive order. Profile.CommTotal ranges over a map, so its
// floating-point sum depends on Go's randomized iteration order and
// differs in the last bits from process to process; the simulated clock
// must repeat bit for bit, so the benchmark adds in a fixed order.
func profileTotal(p *appcore.Profile) float64 {
	t := p.KernelTime
	for _, prim := range core.Primitives() {
		t += p.ByPrimitive[prim]
	}
	return float64(t)
}

func (w *appMix) pass(e *env) error {
	w.bad = 0
	for i, r := range w.runs {
		e.tr.nextOp()
		sp := e.tr.begin(r.span)
		ok, sim, err := r.run()
		e.tr.end(sp)
		if err != nil || !ok {
			w.bad++
		}
		w.sims[i] = sim
	}
	return nil
}

func (w *appMix) outcome() passSim {
	var total float64
	for _, s := range w.sims {
		total += s
	}
	return simDigest(total, w.sims, w.bad)
}

// finish has nothing left to check: every timed run was compared with its
// RunCPU reference as it completed.
func (w *appMix) finish() (int, error) { return 0, nil }

// layers reports each app run's host time, the simulated Baseline-to-CM
// speedup (geometric mean over the five apps), the graph generator, and
// the functional kernel-launch driver on 256 PEs.
func (w *appMix) layers(e *env, m metrics) error {
	var speedups []float64
	half := len(w.runs) / 2
	for i, r := range w.runs {
		m[r.span+"_ms"] = median(e.tr.durations(r.span)) / 1e6
		if i < half {
			speedups = append(speedups, w.sims[i]/w.sims[i+half])
		}
	}
	m["apps.sim_speedup_geomean"] = geomean(speedups)
	m["data.rmat_ms"] = float64(w.setupT.rmat) / 1e6
	geo := pidcomm.Geometry{Channels: 1, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: 64 << 10}
	return dpuLaunchDriver(e, m, geo, funcExecWorkers)
}
