package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// The reorder experiment's headline gate, pinned as a test so `go test`
// alone catches a regression: on the depth-1 adversarial submission
// order the lookahead policy must recover at least 1.4x overlap while
// FIFO stays at its ~1.14x baseline, and no policy may fall below 1x.
// Bit-identical replay is enforced inside MeasureReorder.
func TestReorderLookaheadRecoversOverlap(t *testing.T) {
	results, err := MeasureReorder(64<<10, []int{1},
		[]core.SchedPolicy{core.SchedFIFO, core.SchedLookahead})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		speedup := float64(r.SerialElapsed) / float64(r.AsyncElapsed)
		t.Logf("%v depth %d: serial %.3fms, async %.3fms (%.2fx)",
			r.Policy, r.Batches, float64(r.SerialElapsed)*1e3, float64(r.AsyncElapsed)*1e3, speedup)
		if r.AsyncElapsed > r.SerialElapsed {
			t.Errorf("%v: async elapsed %v exceeds serial %v", r.Policy, r.AsyncElapsed, r.SerialElapsed)
		}
		switch r.Policy {
		case core.SchedLookahead:
			if speedup < 1.4 {
				t.Errorf("lookahead recovered %.2fx at depth 1, want >= 1.4x", speedup)
			}
		case core.SchedFIFO:
			if speedup > 1.3 {
				t.Errorf("FIFO got %.2fx on the adversarial order, want <= 1.3x (order no longer adversarial)", speedup)
			}
		}
	}
}

// Every registered policy must survive the reorder experiment's
// bit-identical replay verification (MeasureReorder errors otherwise).
func TestReorderAllPoliciesBitIdentical(t *testing.T) {
	if _, err := MeasureReorder(16<<10, []int{2}, core.SchedPolicies()); err != nil {
		t.Fatal(err)
	}
}

func TestReorderExperimentRegistered(t *testing.T) {
	e, err := ByID("reorder")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(Options{W: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Overlap speedup", "lookahead", "fifo"} {
		if !strings.Contains(out, want) {
			t.Errorf("reorder table missing %q", want)
		}
	}
}
