// Package mlp implements the multi-layer perceptron benchmark (§ VII-E):
// a quantized integer feedforward network whose weight matrices are
// column-partitioned across the PEs. Each layer computes per-PE partial
// output vectors from the PE's weight columns and input slice, then
// ReduceScatters the partials so every PE holds its slice of the layer
// output — the next layer's input (1-D hypercube, Table III).
package mlp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/apps/appcore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/dpu"
	"repro/internal/elem"
	"repro/internal/par"
)

// Config sizes the MLP benchmark.
type Config struct {
	// Features is the layer width F (paper: 16k and 32k; reproduction
	// default 2048).
	Features int
	// Layers is the layer count (paper: 5).
	Layers int
	// PEs is the number of processing elements.
	PEs int
	// Batches is how many inputs are pushed through the network per
	// weight distribution (inference serving amortizes the one-time
	// weight Scatter; 0 means 1).
	Batches int
	// Seed makes weights and inputs deterministic.
	Seed int64
}

// DefaultConfig returns the reproduction-scale configuration.
func DefaultConfig() Config {
	return Config{Features: 2048, Layers: 5, PEs: 256, Seed: 1}
}

// Validate checks divisibility constraints.
func (c Config) Validate() error {
	if c.Features <= 0 || c.Layers <= 0 || c.PEs <= 0 {
		return fmt.Errorf("mlp: non-positive config")
	}
	if c.Features%c.PEs != 0 {
		return fmt.Errorf("mlp: features %d must divide by PEs %d", c.Features, c.PEs)
	}
	if (c.Features/c.PEs*4)%8 != 0 {
		return fmt.Errorf("mlp: per-PE slice %dB must be 8-byte aligned", c.Features/c.PEs*4)
	}
	return nil
}

// activation is the quantized nonlinearity applied after every layer:
// arithmetic shift then clamp to int8 range, keeping values bounded across
// layers (and bit-exact between CPU and PIM).
func activation(v int64) int32 {
	v >>= 6
	if v > 127 {
		v = 127
	}
	if v < -128 {
		v = -128
	}
	return int32(v)
}

// weightRNG draws layer l's FxF weight matrix, row-major, entries in
// [-3,3]. RunPIM and RunCPU consume the same stream in the same order.
func weightRNG(cfg Config, l int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed*1000 + int64(l)))
}

// genWeights produces layer l's weight matrix for the CPU reference.
func genWeights(cfg Config, l int) []int32 {
	w := make([]int32, cfg.Features*cfg.Features)
	data.Ints(weightRNG(cfg, l), w, -3, 3)
	return w
}

// packWeights draws layer l's weights straight into their owners' slots
// of dst, the layer's Scatter payload: PE p holds columns
// [p*cols, (p+1)*cols), row-major F x cols. The stream is row-major over
// all F columns, so it is drawn a block of whole rows at a time into a
// stack buffer and copied out one PE at a time: each slot is written in
// runs of rows, not in one cols-wide piece per row, which would touch N
// pages for every row drawn.
func packWeights(cfg Config, l int, dst []byte) {
	F, N := cfg.Features, cfg.PEs
	rowB := F / N * 4
	wPerLayerB := F * rowB
	rng := weightRNG(cfg, l)
	var buf [32 << 10]byte
	blk := buf[:]
	if 4*F > len(blk) {
		blk = make([]byte, 4*F)
	}
	rows := len(blk) / (4 * F)
	for r0 := 0; r0 < F; r0 += rows {
		n := min(rows, F-r0)
		data.PutInts(rng, blk[:4*F*n], -3, 3)
		for p := 0; p < N; p++ {
			slot := dst[p*wPerLayerB+r0*rowB:]
			for r := 0; r < n; r++ {
				copy(slot[r*rowB:(r+1)*rowB], blk[r*4*F+p*rowB:])
			}
		}
	}
}

// eachLayer runs f(l) for every layer l at once, as par.Do shards: each
// layer's weights are drawn from the layer's own stream.
type eachLayer func(l int)

func (f eachLayer) RunShard(_, lo, hi int) {
	for l := lo; l < hi; l++ {
		f(l)
	}
}

// packInput draws batch b's input vector, entries in [-3,3], straight
// into dst: the input Scatter's payload (PE p's slice is entries
// [p*cols, (p+1)*cols)), which RunCPU decodes.
func packInput(cfg Config, batch int, dst []byte) {
	data.PutInts(rand.New(rand.NewSource(cfg.Seed*7777+int64(batch))), dst[:4*cfg.Features], -3, 3)
}

func (c Config) batches() int {
	if c.Batches <= 0 {
		return 1
	}
	return c.Batches
}

func bytesI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// RunPIM executes the MLP on the simulated PIM system at the given
// optimization level and returns the output vector and profile.
func RunPIM(cfg Config, lvl core.Level) ([]int32, *appcore.Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	F, N, L := cfg.Features, cfg.PEs, cfg.Layers
	cols := F / N      // weight columns per PE
	sliceB := cols * 4 // input/output slice bytes per PE
	wPerLayerB := F * cols * 4

	// MRAM layout per PE: [weights L layers][x slice][partial vector].
	wOff := 0
	xOff := wOff + L*wPerLayerB
	partOff := xOff + sliceB
	outOff := partOff + F*4

	tr, comm, err := appcore.CommForPEs([]int{N}, N, outOff+sliceB)
	if err != nil {
		return nil, nil, err
	}

	// Distribute weights: one Scatter per layer, compiled through the
	// fuser as a single sequence — the L distributions execute as one
	// plan with one synchronization instead of L. Each layer's weights are
	// drawn into its owners' slots of the layer's staged Scatter payload,
	// the layers at once.
	wdist := make([]core.Collective, L)
	hosts := make([][]byte, L)
	for l := 0; l < L; l++ {
		hosts[l] = tr.Stage(N * wPerLayerB)
		wdist[l] = core.Collective{Prim: core.Scatter, Dims: "1",
			Hosts: hosts[l : l+1 : l+1], Dst: core.Span(wOff+l*wPerLayerB, wPerLayerB), Level: lvl}
	}
	par.Do(runtime.GOMAXPROCS(0), L, eachLayer(func(l int) { packWeights(cfg, l, hosts[l]) }))
	wPlan, err := comm.CompileSequence(wdist...)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.CommSequence(wPlan.Submit(), nil); err != nil {
		return nil, nil, err
	}
	// Inference serving replays the same collective signatures every
	// batch and layer, so compile them once and replay: the input
	// Scatter (bound to the staged xBuf, each batch's input drawn straight
	// into it), the per-layer ReduceScatter, and the final Gather.
	xBuf := tr.Stage(N * sliceB)
	xPlan, err := comm.Compile(core.Collective{Prim: core.Scatter, Dims: "1",
		Hosts: [][]byte{xBuf}, Dst: core.Span(xOff, sliceB), Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	rsPlan, err := comm.Compile(core.Collective{Prim: core.ReduceScatter, Dims: "1",
		Src: core.Span(partOff, F*4), Dst: core.At(outOff),
		Elem: elem.I32, Op: elem.Sum, Level: lvl})
	if err != nil {
		return nil, nil, err
	}
	out := [][]byte{tr.Stage(N * sliceB)}
	gaPlan, err := comm.Compile(core.Collective{Prim: core.Gather, Dims: "1",
		Src: core.Span(xOff, sliceB), Level: lvl, Hosts: out})
	if err != nil {
		return nil, nil, err
	}
	var gaF *core.Future // previous batch's output Gather, possibly in flight
	for batch := 0; batch < cfg.batches(); batch++ {
		// Refilling xBuf is safe: the previous input Scatter executed
		// before the previous batch's first layer kernel, and the
		// in-flight Gather reads MRAM, not this host buffer.
		packInput(cfg, batch, xBuf)
		// The input Scatter writes xOff, which the in-flight Gather reads:
		// a WAR hazard the submission queue orders — the Scatter executes
		// only after the Gather completes, without an explicit wait.
		xF := xPlan.Submit()
		if gaF != nil {
			if err := tr.CommFuture(core.Gather, gaF, nil); err != nil {
				return nil, nil, err
			}
		}
		if err := tr.CommFuture(core.Scatter, xF, nil); err != nil {
			return nil, nil, err
		}
		var err error
		gaF, err = mlpForward(cfg, tr, rsPlan, gaPlan, wOff, xOff, partOff, outOff, sliceB)
		if err != nil {
			return nil, nil, err
		}
	}
	if err := tr.CommFuture(core.Gather, gaF, nil); err != nil {
		return nil, nil, err
	}
	final := bytesI32(out[0])
	tr.Finish()
	return final, &tr.Prof, nil
}

// mlpForward runs one input through all layers, submitting the per-layer
// collectives asynchronously, and returns the future of the final output
// Gather (not yet waited, so the next batch's input Scatter can overlap
// it on the submission queue).
func mlpForward(cfg Config, tr *appcore.Tracker,
	rsPlan, gaPlan *core.CompiledPlan, wOff, xOff, partOff, outOff, sliceB int) (*core.Future, error) {
	F, N, L := cfg.Features, cfg.PEs, cfg.Layers
	cols := F / N
	wPerLayerB := F * cols * 4
	for l := 0; l < L; l++ {
		layerW := wOff + l*wPerLayerB
		tr.Kernel(func(ctx *dpu.Ctx) {
			// Partial GeMV: part[r] = sum_j W[r][j] * x[j] over this
			// PE's columns, computed fully in the simulator. The weight
			// block streams in reads of whole rows, at most readB bytes
			// while a row fits.
			xb := ctx.Buf(sliceB)
			ctx.ReadMram(xOff, xb)
			xs := ctx.I32(cols)
			for j := range xs {
				xs[j] = int32(binary.LittleEndian.Uint32(xb[4*j:]))
			}
			part := ctx.Buf(F * 4)
			rows := min(F, max(1, readB/sliceB))
			chunk := ctx.Buf(rows * sliceB)
			for r0 := 0; r0 < F; r0 += rows {
				blk := chunk[:min(rows, F-r0)*sliceB]
				ctx.ReadMram(layerW+r0*sliceB, blk)
				gemvLE(part[4*r0:], blk, xs)
			}
			ctx.WriteMram(partOff, part)
			ctx.Exec(int64(F * cols * 3)) // ~3 instructions per MAC
		})
		// ReduceScatter the partials; each PE receives its slice of the
		// layer output (§ VII-E). Submitted asynchronously; the activation
		// kernel below is a barrier (Tracker.Kernel flushes).
		if err := tr.CommFuture(core.ReduceScatter, rsPlan.Submit(), nil); err != nil {
			return nil, err
		}
		// Activation kernel: quantize the slice in place into xOff.
		tr.Kernel(func(ctx *dpu.Ctx) {
			b := ctx.Buf(sliceB)
			ctx.ReadMram(outOff, b)
			for i := 0; i < cols; i++ {
				v := int32(binary.LittleEndian.Uint32(b[4*i:]))
				binary.LittleEndian.PutUint32(b[4*i:], uint32(activation(int64(v))))
			}
			ctx.WriteMram(xOff, b)
			ctx.Exec(int64(cols * 4))
		})
	}
	// Submit the final-slice Gather; the caller waits on (or pipelines
	// past) the returned future.
	return gaPlan.Submit(), nil
}

// readB is the largest weight read of the GeMV kernel.
const readB = 2 << 10

// gemvLE writes, for each row of blk (len(xs) little-endian int32
// weights), the row's dot product with xs as one little-endian int32 word
// of part, in wrapping int32 arithmetic. The loops reslice instead of
// indexing, so no load is bounds-checked; on the short rows a PE holds
// (F/N weights) one accumulator runs as fast as several.
func gemvLE(part, blk []byte, xs []int32) {
	for len(part) >= 4 && len(blk) >= 4*len(xs) {
		var acc int32
		for _, x := range xs {
			acc += int32(binary.LittleEndian.Uint32(blk[:4])) * x
			blk = blk[4:]
		}
		binary.LittleEndian.PutUint32(part[:4], uint32(acc))
		part = part[4:]
	}
}

// RunCPU computes the identical MLP on the CPU-only model, returning the
// output and the roofline time.
func RunCPU(cfg Config) ([]int32, cost.Seconds, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	F, L := cfg.Features, cfg.Layers
	cpu := appcore.DefaultCPU()
	var total cost.Seconds
	var x []int32
	weights := make([][]int32, L)
	par.Do(runtime.GOMAXPROCS(0), L, eachLayer(func(l int) { weights[l] = genWeights(cfg, l) }))
	xb := make([]byte, 4*F)
	for batch := 0; batch < cfg.batches(); batch++ {
		packInput(cfg, batch, xb)
		x = bytesI32(xb)
		for l := 0; l < L; l++ {
			w := weights[l]
			y := make([]int32, F)
			for r := range y {
				y[r] = activation(appcore.Dot(w[r*F:(r+1)*F], x))
			}
			x = y
			total += cpu.Time(int64(F*F*4), int64(F*F*2))
		}
	}
	return x, total, nil
}
