package bench

import (
	"runtime"
	"testing"

	"repro/internal/apps/bfs"
	"repro/internal/apps/cc"
	"repro/internal/apps/dlrm"
	"repro/internal/apps/gnn"
	"repro/internal/apps/mlp"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/elem"
)

// The host-memory budget of a repeat app run, at the miniature
// configurations of the wall-clock benchmark's app_mix workload. The
// first run of a config builds its machine and sizes its staging arena;
// the second borrows both from appcore's pool, zeroed, its plans hit the
// machine's shape rows, and every placement payload and Gather result
// buffer is carved from the arena (Tracker.Stage). Kernels stage through
// the per-shard arenas of the engine's pooled launch descriptor too (one
// per shard however many pool helpers were free, so a busy machine adds
// no 64 KiB context to a repeat run), so what a repeat run allocates is the
// random sources and inputs it draws from the seed (dlrm's click logs,
// gnn's features and layer weights), plans, futures and the results it
// returns. The byte ceilings sit ~25% above what a repeat run measures at
// two launch workers (dlrm 306 KB, gnn 291 KB, mlp 41 KB, bfs 68 KB, cc
// 11 KB), the object ceilings further (dlrm 96, gnn 53, mlp 67, bfs 36,
// cc 34). A run that builds its machine again (~4 MB of MRAM and ~200
// objects more), a payload, result buffer or kernel that goes back to
// make, or a payload assembled from per-rank parts fails here before it
// moves bytes_per_op in `go run ./benchmark`.
func TestAppRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	bfsGraph := data.RMAT(1<<14, 1<<16, 8)
	ccGraph := data.Undirected(data.RMAT(2048, 8192, 9))
	gnnIn := data.GNNInput{Name: "budget", Graph: data.RMAT(1024, 4096, 10), F: 16}
	for _, app := range []struct {
		name       string
		run        func() error
		maxBytes   uint64
		maxMallocs uint64
	}{
		{"dlrm", func() error {
			_, _, err := dlrm.RunPIM(dlrm.Config{Tables: 8, RowsPerTable: 1024, EmbDim: 16, Batch: 1024,
				X: 2, Y: 2, Z: 8, TopOut: 32, TopLayers: 2, Batches: 4, Seed: 1}, core.CM)
			return err
		}, 382_000, 150},
		{"gnn", func() error {
			_, _, err := gnn.RunPIM(gnn.Config{Input: &gnnIn, Rows: 8, Cols: 8, Layers: 2, Elem: elem.I32, Seed: 1}, gnn.RSAR, core.CM)
			return err
		}, 364_000, 85},
		{"mlp", func() error {
			_, _, err := mlp.RunPIM(mlp.Config{Features: 1024, Layers: 3, PEs: 64, Batches: 2, Seed: 1}, core.CM)
			return err
		}, 51_000, 105},
		{"bfs", func() error {
			_, _, err := bfs.RunPIM(bfs.Config{Graph: bfsGraph, PEs: 64}, core.CM)
			return err
		}, 85_000, 50},
		{"cc", func() error {
			_, _, err := cc.RunPIM(cc.Config{Graph: ccGraph, PEs: 64}, core.CM)
			return err
		}, 14_000, 50},
	} {
		if err := app.run(); err != nil { // warm: the par pool, the algorithm table
			t.Fatalf("%s: %v", app.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := app.run(); err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		runtime.ReadMemStats(&after)
		bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if bytes > app.maxBytes {
			t.Errorf("%s: one run allocates %d bytes, ceiling %d", app.name, bytes, app.maxBytes)
		}
		if mallocs > app.maxMallocs {
			t.Errorf("%s: one run makes %d allocations, ceiling %d", app.name, mallocs, app.maxMallocs)
		}
	}
}
