package mlp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
)

func testCfg() Config {
	return Config{Features: 1024, Layers: 3, PEs: 64, Seed: 4}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCfg()
	bad.Features = 500 // not divisible by 64
	if err := bad.Validate(); err == nil {
		t.Error("bad feature count accepted")
	}
	bad = testCfg()
	bad.PEs = 256 // slice = 4 elements = 16 bytes: aligned
	if err := bad.Validate(); err != nil {
		t.Errorf("256 PEs should be valid: %v", err)
	}
	bad.PEs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero PEs accepted")
	}
}

func TestPIMMatchesCPUAllLevels(t *testing.T) {
	cfg := testCfg()
	want, _, err := RunCPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []core.Level{core.Baseline, core.IM} {
		got, prof, err := RunPIM(cfg, lvl)
		if err != nil {
			t.Fatalf("%v: %v", lvl, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: length %d != %d", lvl, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: output[%d] = %d, want %d", lvl, i, got[i], want[i])
			}
		}
		if prof.KernelTime <= 0 || prof.CommTotal() <= 0 {
			t.Errorf("%v: empty profile %v", lvl, prof)
		}
	}
}

func TestProfileHasExpectedPrimitives(t *testing.T) {
	_, prof, err := RunPIM(testCfg(), core.IM)
	if err != nil {
		t.Fatal(err)
	}
	// Table III: MLP uses Scatter, Gather(/retrieval) and ReduceScatter.
	for _, p := range []core.Primitive{core.Scatter, core.Gather, core.ReduceScatter} {
		if prof.ByPrimitive[p] <= 0 {
			t.Errorf("missing %v time in profile", p)
		}
	}
	if prof.ByPrimitive[core.AlltoAll] != 0 {
		t.Error("MLP should not use AlltoAll")
	}
}

func TestOptimizedCommBeatsBaseline(t *testing.T) {
	cfg := testCfg()
	_, base, err := RunPIM(cfg, core.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := RunPIM(cfg, core.IM)
	if err != nil {
		t.Fatal(err)
	}
	if opt.ByPrimitive[core.ReduceScatter] >= base.ByPrimitive[core.ReduceScatter] {
		t.Errorf("optimized RS (%v) should beat baseline (%v)",
			opt.ByPrimitive[core.ReduceScatter], base.ByPrimitive[core.ReduceScatter])
	}
	// Kernel time is level-independent.
	diff := float64(opt.KernelTime-base.KernelTime) / float64(base.KernelTime)
	if diff > 0.01 || diff < -0.01 {
		t.Errorf("kernel time should not depend on level: %v vs %v", opt.KernelTime, base.KernelTime)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, _, _ := RunPIM(testCfg(), core.IM)
	b, _, _ := RunPIM(testCfg(), core.IM)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic output")
		}
	}
}

func TestBatchesAmortizeWeightScatter(t *testing.T) {
	cfg := testCfg()
	want, _, err := RunCPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-batch runs must still match the CPU reference (last batch).
	cfg.Batches = 3
	wantB, _, err := RunCPU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, prof1, err := RunPIM(cfg, core.IM)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != wantB[i] {
			t.Fatalf("batched output[%d] mismatch", i)
		}
	}
	// Different batches see different inputs.
	same := true
	for i := range got {
		if got[i] != want[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("batch 2 produced batch 0's output")
	}
	// Per-batch cost must be cheaper than 3 single-batch runs (weights
	// scattered once).
	cfg.Batches = 1
	_, prof3, err := RunPIM(cfg, core.IM)
	if err != nil {
		t.Fatal(err)
	}
	if float64(prof1.Total()) >= 3*float64(prof3.Total()) {
		t.Errorf("3 amortized batches (%v) should cost less than 3 full runs (%v)",
			prof1.Total(), 3*prof3.Total())
	}
}

// weightsOracle is the allocating weight loop packWeights replaced, fed
// from the CPU reference's matrix: PE p's slot of the layer payload holds
// columns [p*cols, (p+1)*cols) of genWeights, row-major F x cols.
func weightsOracle(cfg Config, l int) []byte {
	F, N := cfg.Features, cfg.PEs
	cols := F / N
	wPerLayerB := F * cols * 4
	w := genWeights(cfg, l)
	buf := make([]byte, N*wPerLayerB)
	for r := 0; r < F; r++ {
		for p := 0; p < N; p++ {
			for j := 0; j < cols; j++ {
				binary.LittleEndian.PutUint32(buf[p*wPerLayerB+(r*cols+j)*4:], uint32(w[r*F+p*cols+j]))
			}
		}
	}
	return buf
}

// The weights RunPIM draws straight into its staged payloads are the CPU
// reference's, byte for byte, and neither they nor a batch's input keep
// anything the staging held.
func TestPackedPayloadsMatchCPUReference(t *testing.T) {
	for _, cfg := range []Config{testCfg(), {Features: 256, Layers: 2, PEs: 32, Seed: 1},
		{Features: 512, Layers: 2, PEs: 128, Seed: 9}, {Features: 64, Layers: 1, PEs: 8, Seed: 2}} {
		for l := 0; l < cfg.Layers; l++ {
			want := weightsOracle(cfg, l)
			got := bytes.Repeat([]byte{0xA5}, len(want))
			packWeights(cfg, l, got)
			if !bytes.Equal(got, want) {
				t.Errorf("%+v layer %d: the staged weights differ from the CPU reference's", cfg, l)
			}
		}
		for batch := 0; batch < 2; batch++ {
			want := make([]byte, 4*cfg.Features)
			packInput(cfg, batch, want)
			got := bytes.Repeat([]byte{0xA5}, len(want))
			packInput(cfg, batch, got)
			if !bytes.Equal(got, want) {
				t.Errorf("%+v batch %d: the refilled input keeps bytes the staging held", cfg, batch)
			}
		}
	}
}
