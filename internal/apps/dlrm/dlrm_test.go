package dlrm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
)

func testCfg() Config {
	return Config{Tables: 8, RowsPerTable: 512, EmbDim: 16, Batch: 256,
		X: 2, Y: 2, Z: 4, TopOut: 8, TopLayers: 2, Seed: 5}
}

func TestValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Tables = 6 },         // not divisible by Z
		func(c *Config) { c.RowsPerTable = 513 }, // not divisible by Y
		func(c *Config) { c.EmbDim = 18 },        // not divisible by X cleanly
		func(c *Config) { c.Batch = 100 },        // not divisible by PEs
		func(c *Config) { c.TopOut = 0 },
	}
	for i, mut := range cases {
		cfg := testCfg()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPIMMatchesCPU(t *testing.T) {
	cfg := testCfg()
	want, _, err := RunCPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []core.Level{core.Baseline, core.CM} {
		got, prof, err := RunPIM(cfg, lvl)
		if err != nil {
			t.Fatalf("%v: %v", lvl, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: out[%d] = %d, want %d", lvl, i, got[i], want[i])
			}
		}
		// Table III: DLRM uses Sc, Ga, Br(weights), AA, RS.
		for _, p := range []core.Primitive{core.Scatter, core.Gather, core.Broadcast, core.AlltoAll, core.ReduceScatter} {
			if prof.ByPrimitive[p] <= 0 {
				t.Errorf("%v: missing %v in profile", lvl, p)
			}
		}
	}
}

func TestEmbDim32(t *testing.T) {
	cfg := testCfg()
	cfg.EmbDim = 32 // the paper's second configuration
	want, _, err := RunCPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunPIM(cfg, core.CM)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOptimizedBeatsBaselineComm(t *testing.T) {
	// 64 PEs on one channel with a non-trivial batch: the smallest
	// configuration inside the paper's operating regime.
	cfg := Config{Tables: 16, RowsPerTable: 1024, EmbDim: 16, Batch: 2048,
		X: 2, Y: 2, Z: 16, TopOut: 8, TopLayers: 2, Seed: 5}
	_, base, err := RunPIM(cfg, core.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := RunPIM(cfg, core.CM)
	if err != nil {
		t.Fatal(err)
	}
	if opt.ByPrimitive[core.AlltoAll] >= base.ByPrimitive[core.AlltoAll] {
		t.Errorf("optimized AA (%v) should beat baseline (%v)",
			opt.ByPrimitive[core.AlltoAll], base.ByPrimitive[core.AlltoAll])
	}
}

func TestDeterministic(t *testing.T) {
	a, _, err := RunPIM(testCfg(), core.CM)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := RunPIM(testCfg(), core.CM)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic")
		}
	}
}

func TestBatchesAmortizeTableScatter(t *testing.T) {
	cfg := testCfg()
	cfg.Batches = 2
	want, _, err := RunCPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, prof2, err := RunPIM(cfg, core.CM)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("batched output[%d] mismatch", i)
		}
	}
	// Two amortized batches cost less than two full runs.
	cfg.Batches = 1
	_, prof1, err := RunPIM(cfg, core.CM)
	if err != nil {
		t.Fatal(err)
	}
	if float64(prof2.Total()) >= 2*float64(prof1.Total()) {
		t.Errorf("2 amortized batches (%v) should cost less than 2 full runs (%v)",
			prof2.Total(), 2*prof1.Total())
	}
}

// shardsOracle is the allocating pack packShards replaced: it builds the
// whole table with embeddings(), then copies PE (x,y,z)'s tables of shard
// z, rows of shard y and columns of slice x into its slot.
func shardsOracle(c Config, embB int) []byte {
	X, Y, Z := c.X, c.Y, c.Z
	N := X * Y * Z
	Tz, Ry, Dx := c.Tables/Z, c.RowsPerTable/Y, c.EmbDim/X
	emb := c.embeddings()
	buf := make([]byte, N*embB)
	for pe := 0; pe < N; pe++ {
		x, y, z := pe%X, pe/X%Y, pe/(X*Y)
		for tl := 0; tl < Tz; tl++ {
			for r := 0; r < Ry; r++ {
				for cidx := 0; cidx < Dx; cidx++ {
					v := emb[((z*Tz+tl)*c.RowsPerTable+(y*Ry+r))*c.EmbDim+x*Dx+cidx]
					binary.LittleEndian.PutUint32(buf[pe*embB+((tl*Ry+r)*Dx+cidx)*4:], uint32(v))
				}
			}
		}
	}
	return buf
}

// The shards RunPIM draws straight into its staged payload are the CPU
// reference's tables, byte for byte.
func TestPackedPayloadsMatchCPUReference(t *testing.T) {
	for _, c := range []Config{testCfg(),
		{Tables: 8, RowsPerTable: 1024, EmbDim: 16, Batch: 1024, X: 2, Y: 2, Z: 8, TopOut: 32, TopLayers: 2, Seed: 1},
		{Tables: 4, RowsPerTable: 96, EmbDim: 8, Batch: 16, X: 1, Y: 4, Z: 2, TopOut: 4, TopLayers: 3, Seed: 7},
		{Tables: 6, RowsPerTable: 10, EmbDim: 4, Batch: 6, X: 2, Y: 1, Z: 3, TopOut: 3, TopLayers: 1, Seed: 3}} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		embB := alignUp((c.Tables / c.Z) * (c.RowsPerTable / c.Y) * (c.EmbDim / c.X) * 4)
		want := shardsOracle(c, embB)
		got := make([]byte, len(want))
		c.packShards(got, embB)
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: the staged shards differ from the packed embeddings()", c)
		}
	}
}
