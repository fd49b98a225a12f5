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
// first run of a config builds its machine; the second borrows it from
// appcore's pool, zeroed, and its plans hit the machine's shape rows, so
// what it has to allocate is the inputs it draws from the seed and the
// placement payloads a compiled plan binds until it has run (mustHold).
// Kernels stage through the pooled per-worker arena and payloads are built
// in place, so everything else — plans, futures, results — has to fit in
// as much again. The object ceilings sit ~25% above what a repeat run
// measures at two launch workers (dlrm 127, gnn 68, mlp 99, bfs 41,
// cc 41). A run that builds its machine again (~4 MB of MRAM and ~200
// objects more), a kernel that goes back to make, or a payload assembled
// from per-rank parts fails here before it moves bytes_per_op in
// `go run ./benchmark`.
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
		mustHold   uint64 // inputs drawn from the seed + bound host payloads, bytes
		maxMallocs uint64
	}{
		{"dlrm", func() error {
			_, _, err := dlrm.RunPIM(dlrm.Config{Tables: 8, RowsPerTable: 1024, EmbDim: 16, Batch: 1024,
				X: 2, Y: 2, Z: 8, TopOut: 32, TopLayers: 2, Batches: 4, Seed: 1}, core.CM)
			return err
		}, 8*1024*16*4 + 32*16384 + 20480 + 32*1024 + 4*1024*8*4, 160}, // embedding table and shards, top-MLP weights, index buffer, click indices
		{"gnn", func() error {
			_, _, err := gnn.RunPIM(gnn.Config{Input: &gnnIn, Rows: 8, Cols: 8, Layers: 2, Elem: elem.I32, Seed: 1}, gnn.RSAR, core.CM)
			return err
		}, 64*3176 + 64*8192 + 1024, 85}, // adjacency tiles, feature strips, layer weights
		{"mlp", func() error {
			_, _, err := mlp.RunPIM(mlp.Config{Features: 1024, Layers: 3, PEs: 64, Batches: 2, Seed: 1}, core.CM)
			return err
		}, 3*(4<<20) + 64*64, 125}, // three layers' weight matrices, input slices
		{"bfs", func() error {
			_, _, err := bfs.RunPIM(bfs.Config{Graph: bfsGraph, PEs: 64}, core.CM)
			return err
		}, 64*47616 + 2048, 52}, // partitioned CSR, initial frontier
		{"cc", func() error {
			_, _, err := cc.RunPIM(cc.Config{Graph: ccGraph, PEs: 64}, core.CM)
			return err
		}, 64*9656 + 8192, 52}, // partitioned CSR, initial labels
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
		if bytes > 2*app.mustHold {
			t.Errorf("%s: one run allocates %d bytes, over twice the %d it must hold", app.name, bytes, app.mustHold)
		}
		if mallocs > app.maxMallocs {
			t.Errorf("%s: one run makes %d allocations, ceiling %d", app.name, mallocs, app.maxMallocs)
		}
	}
}
