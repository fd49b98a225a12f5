package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dram"
)

// A run is booked whole before any byte moves: a functional run that
// fails mid-schedule, serial (Run panics) or submitted (its Future's
// error), leaves its whole charge trace on the machine and tenant meters.
// Its snapshot — meters, admitted quota, timeline — is the snapshot a
// cost-only run of the same plan leaves, and holds check.Snapshot's
// invariants.
func TestFailedRunBooksItsWholeTrace(t *testing.T) {
	geo := dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 4, MramPerBank: 1 << 16}
	run := func(backend core.Backend, submit bool) (core.Snapshot, error) {
		t.Helper()
		c, err := core.New(geo, []int{32}, core.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Session()
		if err != nil {
			t.Fatal(err)
		}
		prev := c.Snapshot()
		cp := core.FailingPlan(s)
		if submit {
			err = cp.Submit().Err()
		} else {
			err = func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("%v", r)
					}
				}()
				_, err = cp.Run()
				return err
			}()
		}
		cur := c.Snapshot()
		if err := check.Snapshot(&prev, cur, geo.MramPerBank, true); err != nil {
			t.Errorf("%s backend, submit=%v: %v", c.Backend().Name(), submit, err)
		}
		return cur, err
	}
	for _, submit := range []bool{false, true} {
		want, err := run(core.CostBackend(), submit)
		if err != nil {
			t.Fatalf("submit=%v: the cost-only run failed: %v", submit, err)
		}
		got, err := run(nil, submit)
		if err == nil {
			t.Fatalf("submit=%v: the failing functional run reported no error", submit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("submit=%v: the failed run left\n%v\nthe cost-only run\n%v", submit, got, want)
		}
	}
}
