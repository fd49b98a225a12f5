package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
)

// TestColumnStreamRunBoundaries holds the column stream's span kernels
// to the reference model and to the cost-only backend where their runs
// split. Every primitive runs at every level (IM and CM stream; the
// single-group AllGather and Broadcast stream at every level), the
// reducing ones, where they stream, with every element type under Sum,
// Min and Xor. Blocks are 67 element columns, a prime, and the comm runs
// 1, 2 and 3 workers, so shard ranges split unevenly and AlltoAll's
// flattened (k, e) loop mid-slot. Each run's output must equal Ref*, and
// its breakdown, bursts and per-channel bytes the cost-only twin's.
func TestColumnStreamRunBoundaries(t *testing.T) {
	geo := func(channels int) dram.Geometry {
		return dram.Geometry{Channels: channels, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: 1 << 15}
	}
	const s = 67 * 8
	type elemOp struct {
		t  elem.Type
		op elem.Op
	}
	var grid []elemOp
	for _, typ := range elem.Types() {
		for _, op := range []elem.Op{elem.Sum, elem.Min, elem.Xor} {
			grid = append(grid, elemOp{typ, op})
		}
	}
	for _, tc := range []caseSpec{
		{"strided", geo(3), []int{4, 6}, "01"},
		{"one-group", geo(1), []int{8}, "1"},
	} {
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				fc := newTestComm(t, tc.geo, tc.shape, Config{ExecWorkers: workers})
				cc := costSystem(t, tc.geo, tc.shape)
				p, err := fc.plan(tc.dims)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(workers)))
				m := p.n * s
				for _, prim := range Primitives() {
					for _, lvl := range Levels() {
						for _, eo := range grid {
							d := placed(prim, tc.dims, p.n, len(p.groups), m, 0, m)
							d.Level = lvl
							if shapes[prim].reducing {
								d.Elem, d.Op = eo.t, eo.op
							}
							what := fmt.Sprintf("%v/%v/%v/%v", prim, lvl, d.Elem, d.Op)
							for _, h := range d.Hosts {
								rng.Read(h)
							}
							in := sessionInputs(fc.s, rng, 0, d.Src.Bytes)
							fbd, fres := runTwin(t, fc, d, what)
							cbd, _ := runTwin(t, cc, d, what)
							for g, grp := range p.groups {
								for j, pe := range grp {
									want := refOf(d, p.groups, in, s, g, j)
									var got []byte
									if shapes[prim].rooted() {
										got = fres[g]
									} else {
										got = fc.GetPEBuffer(pe, d.Dst.Off, len(want))
									}
									if !bytes.Equal(got, want) {
										t.Fatalf("%s: group %d rank %d diverges from the reference", what, g, j)
									}
								}
							}
							if diff := diffBreakdowns(fbd, cbd); diff != "" {
								t.Fatalf("%s: breakdown: %s", what, diff)
							}
							fs, cs := fc.Host().Stats(), cc.Host().Stats()
							if fs.Bursts != cs.Bursts || !slices.Equal(fs.BytesPerChannel, cs.BytesPerChannel) {
								t.Fatalf("%s: functional moved %d bursts %v per channel, cost-only %d bursts %v",
									what, fs.Bursts, fs.BytesPerChannel, cs.Bursts, cs.BytesPerChannel)
							}
							if !shapes[prim].reducing || lvl < IM {
								break // the grid is for the streamed folds
							}
						}
					}
				}
			})
		}
	}
}

// runTwin compiles and runs d once on c and returns the breakdown and the
// rooted results.
func runTwin(t *testing.T, c *testComm, d Collective, what string) (bd cost.Breakdown, res [][]byte) {
	t.Helper()
	cp, err := c.Compile(d)
	if err != nil {
		t.Fatalf("%s on %s: %v", what, c.Backend().Name(), err)
	}
	if bd, err = cp.Run(); err != nil {
		t.Fatalf("%s on %s: %v", what, c.Backend().Name(), err)
	}
	return bd, cp.Results()
}
