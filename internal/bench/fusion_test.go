package bench

import "testing"

// TestFusionSpeedupAtLeast1_15x gates the fusion optimizer's headline
// win: the DLRM ReduceScatter→AlltoAll serving pipeline must compile to
// a fused plan at least 1.15x cheaper than the unfused plans at the
// experiment's pinned payload. The cost model is deterministic, so this
// is a hard floor, not a flaky benchmark.
func TestFusionSpeedupAtLeast1_15x(t *testing.T) {
	r, err := MeasureFusion(fusionPinPoint, fusionDepth)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := float64(r.Unfused) / float64(r.Fused); speedup < 1.15 {
		t.Fatalf("fusion speedup %.3fx below the 1.15x gate (unfused %v, fused %v)",
			speedup, r.Unfused, r.Fused)
	}
	rep := r.Report
	// Every batch boundary must cancel its rotate/unrotate pair and all
	// interior synchronizations must collapse into the final one.
	if want := fusionDepth - 1; rep.RotatesMerged != want || rep.RotatesElided != want {
		t.Fatalf("want %d boundary pairs merged+elided, got %+v", want, rep)
	}
	if want := 2*fusionDepth - 1; rep.SyncsElided != want {
		t.Fatalf("want %d interior syncs elided, got %d", want, rep.SyncsElided)
	}
	if rep.EpochsCoalesced != fusionDepth-1 {
		t.Fatalf("want %d epochs coalesced, got %d", fusionDepth-1, rep.EpochsCoalesced)
	}
}
