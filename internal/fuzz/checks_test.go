package fuzz

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/elem"
)

// TestChecksAreNotVacuous runs every row of checks on a real functional
// session twice: as is, where verify must pass, and with one byte of the
// result flipped, where it must fail. The flipped byte is the last one
// the last rank of the last group reads at Dst, or the last byte of the
// last group's rooted result, in the plan's buffers or the caller's
// Hosts, so a row that compares nothing, an empty region or only some
// groups is caught. Both a dims of several groups and a dims of one
// group are checked.
func TestChecksAreNotVacuous(t *testing.T) {
	for _, dims := range []string{"10", "11"} {
		for _, k := range checks {
			for _, flip := range []bool{false, true} {
				sc := Scenario{
					Geo:   dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 14},
					Shape: []int{4, 4}, Dims: dims, S: 8,
					Lvl: core.Baseline, Typ: elem.I32, Op: elem.Sum, Workers: 1,
				}
				mach, s, err := sc.session(core.FuseFull)
				if err != nil {
					t.Fatal(err)
				}
				r, err := sessionRanks(mach, s, dims)
				if err != nil {
					t.Fatal(err)
				}
				if flip {
					grp := r.groups[len(r.groups)-1]
					last := grp[len(grp)-1]
					get, run := r.get, r.run
					r.get = func(rank, off, n int) []byte {
						b := append([]byte(nil), get(rank, off, n)...)
						if rank == last && len(b) > 0 {
							b[len(b)-1] ^= 1
						}
						return b
					}
					r.run = func(d core.Collective) ([][]byte, error) {
						got, err := run(d) // the rooted results, in place
						if len(got) > 0 && len(got[len(got)-1]) > 0 {
							b := got[len(got)-1]
							b[len(b)-1] ^= 1
						}
						return got, err
					}
				}
				d := core.Collective{Dims: dims, Elem: sc.Typ, Op: sc.Op, Level: sc.Lvl}
				err = k.verify(rand.New(rand.NewSource(1)), r, d, sc.S)
				switch {
				case !flip && err != nil:
					t.Errorf("%v on dims %s: %v", k, dims, err)
				case flip && err == nil:
					t.Errorf("%v on dims %s passes with a flipped result byte", k, dims)
				}
			}
		}
	}
}
