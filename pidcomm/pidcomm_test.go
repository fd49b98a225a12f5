package pidcomm_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/pidcomm"
)

func TestQuickstartFlow(t *testing.T) {
	mach, err := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1 << 14,
	}, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := mach.Comm()
	if err != nil {
		t.Fatal(err)
	}

	const m = 8 * 32
	rng := rand.New(rand.NewSource(1))
	in := make([][]byte, 64)
	for pe := range in {
		in[pe] = make([]byte, m)
		rng.Read(in[pe])
		comm.SetPEBuffer(pe, 0, in[pe])
	}
	bd, err := comm.Run(pidcomm.Collective{
		Prim: pidcomm.AlltoAll, Dims: "10",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Level: pidcomm.CM,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 {
		t.Error("no simulated time")
	}
	groups, err := mach.Groups("10")
	if err != nil {
		t.Fatal(err)
	}
	// Verify the AlltoAll semantics through the public API.
	for _, grp := range groups {
		for j, dst := range grp {
			got := comm.GetPEBuffer(dst, 2*m, m)
			for i, src := range grp {
				if !bytes.Equal(got[i*32:(i+1)*32], in[src][j*32:(j+1)*32]) {
					t.Fatalf("dst %d block %d mismatch", dst, i)
				}
			}
		}
	}
	// The session meter accrued exactly the run's charges.
	if comm.Meter() != bd {
		t.Errorf("session meter %v != run breakdown %v", comm.Meter(), bd)
	}
}

func TestPaperSystemGeometry(t *testing.T) {
	geo := pidcomm.PaperSystem(1 << 16)
	if geo.NumPEs() != 1024 {
		t.Errorf("paper system has %d PEs, want 1024", geo.NumPEs())
	}
}

func TestWithParamsValidates(t *testing.T) {
	p := pidcomm.DefaultParams()
	p.ChannelBW = -1
	_, err := pidcomm.NewMachine(pidcomm.PaperSystem(4096), []int{1024}, pidcomm.WithParams(p))
	if err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := pidcomm.NewMachine(pidcomm.PaperSystem(4096), []int{1024},
		pidcomm.WithParams(pidcomm.DefaultParams())); err != nil {
		t.Error(err)
	}
}

func TestDimsString(t *testing.T) {
	if got := pidcomm.DimsString(3, 1); got != "010" {
		t.Errorf("DimsString = %q", got)
	}
}

// The cost-only surface: a CostOnly machine must reproduce the
// functional machine's breakdown exactly, and the Auto pseudo-level —
// the Collective zero value — must resolve and run through the facade.
func TestCostOnlyMachineAndAuto(t *testing.T) {
	geo := pidcomm.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1 << 14}
	shape := []int{8, 8}
	const m = 8 * 32
	aa := pidcomm.Collective{
		Prim: pidcomm.AlltoAll, Dims: "10",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Level: pidcomm.CM,
	}

	mach, err := pidcomm.NewMachine(geo, shape)
	if err != nil {
		t.Fatal(err)
	}
	comm, _ := mach.Comm()
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, m)
	for pe := 0; pe < 64; pe++ {
		rng.Read(buf)
		comm.SetPEBuffer(pe, 0, buf)
	}
	want, err := comm.Run(aa)
	if err != nil {
		t.Fatal(err)
	}

	cmach, err := pidcomm.NewMachine(geo, shape, pidcomm.CostOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !cmach.CostOnly() {
		t.Fatal("CostOnly() machine reports functional")
	}
	cc, _ := cmach.Comm()
	got, err := cc.Run(aa)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Errorf("cost breakdown differs: functional %v, cost %v", want, got)
	}

	// Auto on the public surface: the zero-value Level resolves to a
	// concrete level and runs.
	auto := aa
	auto.Level = pidcomm.Auto
	auto.Src, auto.Dst = pidcomm.Span(2*m, m), pidcomm.At(4*m)
	_, lvl, err := cc.Resolve(auto)
	if err != nil {
		t.Fatal(err)
	}
	if lvl == pidcomm.Auto {
		t.Error("AutoResolve returned the Auto sentinel")
	}
	if _, err := comm.Run(auto); err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterThroughFacade(t *testing.T) {
	mach, _ := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 12,
	}, []int{16})
	comm, _ := mach.Comm()
	m := 16 * 8
	buf := make([]byte, m) // all zeros; sum is zero
	for pe := 0; pe < 16; pe++ {
		comm.SetPEBuffer(pe, 0, buf)
	}
	if _, err := comm.Run(pidcomm.Collective{
		Prim: pidcomm.ReduceScatter, Dims: "1",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
		Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM,
	}); err != nil {
		t.Fatal(err)
	}
}

// An explicit destination size that disagrees with the implied one is a
// compile error, not a silent footprint change.
func TestExplicitRegionSizeChecked(t *testing.T) {
	mach, _ := pidcomm.NewMachine(pidcomm.Geometry{
		Channels: 1, RanksPerChannel: 1, BanksPerChip: 2, MramPerBank: 1 << 12,
	}, []int{16})
	comm, _ := mach.Comm()
	const m = 16 * 8
	_, err := comm.Compile(pidcomm.Collective{
		Prim: pidcomm.ReduceScatter, Dims: "1",
		Src: pidcomm.Span(0, m), Dst: pidcomm.Span(2*m, m), // implied is m/16
		Elem: pidcomm.I32, Op: pidcomm.Sum,
	})
	if err == nil {
		t.Fatal("mismatched Dst.Bytes accepted")
	}
}

// The worker-pool knob is a pure throughput setting: it must be
// reflected by the accessors and leave collective results untouched.
func TestExecWorkersKnob(t *testing.T) {
	geo := pidcomm.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1 << 14}
	mach, err := pidcomm.NewMachine(geo, []int{8, 8}, pidcomm.WithExecWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := mach.ExecWorkers(); got != 3 {
		t.Fatalf("ExecWorkers() = %d after WithExecWorkers(3)", got)
	}
	comm, err := mach.Comm()
	if err != nil {
		t.Fatal(err)
	}
	const m = 8 * 16
	buf := make([]byte, m)
	for i := range buf {
		buf[i] = byte(i)
	}
	run := func() []byte {
		// Refill src every run: the optimized levels consume it.
		for pe := 0; pe < 64; pe++ {
			comm.SetPEBuffer(pe, 0, buf)
		}
		if _, err := comm.Run(pidcomm.Collective{
			Prim: pidcomm.AlltoAll, Dims: "10",
			Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m), Level: pidcomm.CM,
		}); err != nil {
			t.Fatal(err)
		}
		var all []byte
		for pe := 0; pe < 64; pe++ {
			all = append(all, comm.GetPEBuffer(pe, 2*m, m)...)
		}
		return all
	}
	at3 := run()
	mach.SetExecWorkers(1)
	at1 := run()
	if !bytes.Equal(at3, at1) {
		t.Fatal("results differ between worker counts")
	}
	mach.SetExecWorkers(0)
	if got, def := mach.ExecWorkers(), runtime.GOMAXPROCS(0); got != def {
		t.Fatalf("ExecWorkers() = %d after reset, want GOMAXPROCS = %d", got, def)
	}
}
