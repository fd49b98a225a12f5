package bench

import (
	"strings"
	"testing"
)

// The multitenant experiment's headline claims, pinned at reduced
// scale: the per-tenant work is bit-identical between modes, and the
// weighted-fair makespan beats serial serving by a real margin.
func TestMultiTenantFairBeatsSerial(t *testing.T) {
	specs := []tenantSpec{{"a", 2}, {"b", 1}, {"c", 1}}
	serial, fair, err := runMultiTenant(specs, 4<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Meter != fair.Meter {
		t.Errorf("work differs between modes: serial %v, fair %v", serial.Meter, fair.Meter)
	}
	if len(fair.Tenants) != len(specs) {
		t.Fatalf("tenant listing has %d rows, want %d", len(fair.Tenants), len(specs))
	}
	if speedup := float64(serial.Elapsed) / float64(fair.Elapsed); speedup < 1.3 {
		t.Errorf("weighted-fair speedup %.2fx below 1.3x (serial %v, fair %v)", speedup, serial.Elapsed, fair.Elapsed)
	}
}

// The registered experiment renders its table without error.
func TestMultiTenantExperimentRuns(t *testing.T) {
	e, err := ByID("multitenant")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Run(Options{W: &sb}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"work identical across modes: true", "overlap speedup", "dlrm-a"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q:\n%s", want, out)
		}
	}
}
