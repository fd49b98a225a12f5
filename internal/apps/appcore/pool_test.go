package appcore_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps/appcore"
	"repro/internal/apps/bfs"
	"repro/internal/apps/cc"
	"repro/internal/apps/dlrm"
	"repro/internal/apps/gnn"
	"repro/internal/apps/mlp"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dpu"
	"repro/internal/elem"
)

// appRuns returns one RunPIM per app at lvl, each at a small config whose
// inputs seed draws (bfs starts from vertex seed; cc has no seed). Every
// seed of an app runs on the same pool key.
func appRuns(lvl core.Level, seed int64) map[string]func() (any, *appcore.Profile, error) {
	gnnIn := data.GNNInput{Name: "pool", Graph: data.RMAT(256, 1024, 3), F: 16}
	bfsGraph := data.RMAT(1024, 4096, 4)
	ccGraph := data.Undirected(data.RMAT(512, 2048, 5))
	return map[string]func() (any, *appcore.Profile, error){
		"dlrm": func() (any, *appcore.Profile, error) {
			return dlrm.RunPIM(dlrm.Config{Tables: 8, RowsPerTable: 512, EmbDim: 16, Batch: 128,
				X: 2, Y: 2, Z: 4, TopOut: 8, TopLayers: 2, Batches: 2, Seed: seed}, lvl)
		},
		"gnn": func() (any, *appcore.Profile, error) {
			return gnn.RunPIM(gnn.Config{Input: &gnnIn, Rows: 4, Cols: 4, Layers: 2, Elem: elem.I32, Seed: seed}, gnn.RSAR, lvl)
		},
		"mlp": func() (any, *appcore.Profile, error) {
			return mlp.RunPIM(mlp.Config{Features: 256, Layers: 3, PEs: 32, Batches: 2, Seed: seed}, lvl)
		},
		"bfs": func() (any, *appcore.Profile, error) {
			return bfs.RunPIM(bfs.Config{Graph: bfsGraph, PEs: 32, Source: int(seed)}, lvl)
		},
		"cc": func() (any, *appcore.Profile, error) { return cc.RunPIM(cc.Config{Graph: ccGraph, PEs: 32}, lvl) },
	}
}

// A run on a pooled machine is a run on a fresh one: the same output and
// the same profile, bit for bit — kernel time, every primitive's time and
// the communication breakdown.
func TestPooledRunRepeatsFreshRun(t *testing.T) {
	for _, lvl := range []core.Level{core.Baseline, core.CM} {
		runs := appRuns(lvl, 1)
		for _, app := range slices.Sorted(maps.Keys(runs)) {
			appcore.ResetPool()
			out1, p1, err := runs[app]()
			if err != nil {
				t.Fatalf("%s/%v: %v", app, lvl, err)
			}
			if n := appcore.IdleMachines(); n != 1 {
				t.Fatalf("%s/%v: %d idle machines after one run, want its own", app, lvl, n)
			}
			out2, p2, err := runs[app]()
			if err != nil {
				t.Fatalf("%s/%v pooled: %v", app, lvl, err)
			}
			if !reflect.DeepEqual(out1, out2) {
				t.Errorf("%s/%v: the pooled run's output differs from the fresh run's", app, lvl)
			}
			if p1.KernelTime != p2.KernelTime || !maps.Equal(p1.ByPrimitive, p2.ByPrimitive) || p1.CommBreakdown != p2.CommBreakdown {
				t.Errorf("%s/%v: pooled profile differs from the fresh run's: kernel %v vs %v, by primitive %v vs %v",
					app, lvl, float64(p2.KernelTime), float64(p1.KernelTime), p2.ByPrimitive, p1.ByPrimitive)
			}
		}
	}
}

// Finish gives back a machine that reads all zero, whatever its run wrote,
// and an arena whose bytes Stage hands out zeroed again.
func TestReacquiredMachineReadsZero(t *testing.T) {
	appcore.ResetPool()
	const mram = 4096
	tr, _, err := appcore.CommForPEs([]int{16}, 16, mram)
	if err != nil {
		t.Fatal(err)
	}
	tr.Kernel(func(ctx *dpu.Ctx) {
		b := ctx.Buf(mram)
		for i := range b {
			b[i] = byte(ctx.PE + i | 1)
		}
		ctx.WriteMram(0, b)
	})
	tr.Stage(mram) // the first run of the key sizes its arena
	used := tr.C
	tr.Finish()
	tr, _, err = appcore.CommForPEs([]int{16}, 16, mram)
	if err != nil {
		t.Fatal(err)
	}
	if tr.C != used {
		t.Fatal("the finished run's machine was not reused")
	}
	sys := tr.C.Engine().System()
	for pe := range 16 {
		for i, v := range sys.BankBytes(pe) {
			if v != 0 {
				t.Fatalf("PE %d byte %d reads %#x on the reacquired machine", pe, i, v)
			}
		}
	}
	staged := tr.Stage(mram)
	for i := range staged {
		staged[i] = byte(i | 1)
	}
	tr.Finish()
	tr, _, err = appcore.CommForPEs([]int{16}, 16, mram)
	if err != nil {
		t.Fatal(err)
	}
	again := tr.Stage(mram)
	if &again[0] != &staged[0] {
		t.Fatal("the run's staging did not come from the arena parked with its machine")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("staged byte %d reads %#x on the next run of the key", i, v)
		}
	}
	tr.Finish()
}

// A run that fails never calls Finish, so neither its machine nor its
// arena is reused.
func TestFailedRunMachineIsNotReused(t *testing.T) {
	appcore.ResetPool()
	tr, _, err := appcore.CommForPEs([]int{16}, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr.Stage(4096)
	tr.Finish()
	tr, comm, err := appcore.CommForPEs([]int{16}, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	staged := tr.Stage(4096)
	if _, err := comm.Run(core.Collective{Prim: core.Gather, Dims: "bad-dims", Src: core.Span(0, 8)}); err == nil {
		t.Fatal("a malformed collective ran")
	}
	failed := tr.C
	tr, _, err = appcore.CommForPEs([]int{16}, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if tr.C == failed {
		t.Error("a failed run's machine was lent again")
	}
	if b := tr.Stage(4096); &b[0] == &staged[0] {
		t.Error("a failed run's arena was lent again")
	}
	tr.Finish()
}

// A run's result owns its memory: a later run of the key, which stages
// its payloads in the same arena, leaves an earlier result as it was.
func TestResultsDoNotAliasTheArena(t *testing.T) {
	appcore.ResetPool()
	first, second := appRuns(core.CM, 1), appRuns(core.CM, 2)
	for _, app := range slices.Sorted(maps.Keys(first)) {
		if _, _, err := first[app](); err != nil { // sizes the key's arena
			t.Fatalf("%s: %v", app, err)
		}
		out, _, err := first[app]()
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		kept := cloneOutput(out)
		if _, _, err := second[app](); err != nil {
			t.Fatalf("%s seed 2: %v", app, err)
		}
		if !reflect.DeepEqual(out, kept) {
			t.Errorf("%s: a later run of the key changed an earlier run's result", app)
		}
	}
	counted, held := appcore.IdleBytes()
	if counted != held || counted > appcore.IdleBudget || appcore.IdleMachines() != len(first) {
		t.Errorf("the pool counts %d bytes for %d idle machines holding %d bytes of MRAM and arenas, budget %d",
			counted, appcore.IdleMachines(), held, appcore.IdleBudget)
	}
}

// cloneOutput copies a RunPIM result.
func cloneOutput(out any) any {
	switch v := out.(type) {
	case []int32:
		return slices.Clone(v)
	case []int64:
		return slices.Clone(v)
	}
	panic(fmt.Sprintf("an app result of type %T", out))
}

// Concurrent runs of one config each get a machine of their own: at most
// one borrows the idle machine, and every result matches the CPU.
func TestConcurrentRunsMatchCPU(t *testing.T) {
	cfg := bfs.Config{Graph: data.RMAT(512, 2048, 6), PEs: 16}
	want, _, err := bfs.RunCPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	outs := make([][]int32, 8)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], _, errs[i] = bfs.RunPIM(cfg, core.CM)
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !slices.Equal(outs[i], want) {
			t.Errorf("run %d differs from RunCPU", i)
		}
	}
}
