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

// Every machine option reaches the behaviour it names: the machine is
// configured once, at NewMachine, and each row observes its option
// through what the machine then does rather than through a getter.
func TestMachineOptionsReachBehaviour(t *testing.T) {
	geo := pidcomm.Geometry{Channels: 1, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1 << 14}
	const m = 8 * 16
	session := func(t *testing.T, opts ...pidcomm.MachineOption) (*pidcomm.Machine, *pidcomm.Comm) {
		t.Helper()
		mach, err := pidcomm.NewMachine(geo, []int{8, 8}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		comm, err := mach.Comm()
		if err != nil {
			t.Fatal(err)
		}
		return mach, comm
	}
	aa := func(base int) pidcomm.Collective {
		return pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "10",
			Src: pidcomm.Span(base, m), Dst: pidcomm.At(base + 2*m), Level: pidcomm.CM}
	}
	// firstStepped submits two independent plans, the second with the
	// earlier deadline, and reports which one the machine steps first.
	firstStepped := func(t *testing.T, opts ...pidcomm.MachineOption) int {
		t.Helper()
		mach, comm := session(t, append(opts, pidcomm.CostOnly())...)
		var fs [2]*pidcomm.Future
		for i := range fs {
			cp, err := comm.Compile(aa(i * 4 * m))
			if err != nil {
				t.Fatal(err)
			}
			fs[i] = cp.SubmitOpts(pidcomm.SubmitOptions{Deadline: pidcomm.Seconds(2 - i)})
		}
		first := mach.Step()
		mach.Flush()
		for i, f := range fs {
			if f == first {
				return i
			}
		}
		t.Fatal("Step returned a future nobody submitted")
		return -1
	}

	t.Run("ExecWorkers", func(t *testing.T) {
		buf := make([]byte, m)
		for i := range buf {
			buf[i] = byte(i)
		}
		run := func(workers, want int) []byte {
			mach, comm := session(t, pidcomm.WithExecWorkers(workers))
			if got := mach.ExecWorkers(); got != want {
				t.Fatalf("ExecWorkers() = %d at WithExecWorkers(%d), want %d", got, workers, want)
			}
			for pe := 0; pe < 64; pe++ {
				comm.SetPEBuffer(pe, 0, buf)
			}
			if _, err := comm.Run(aa(0)); err != nil {
				t.Fatal(err)
			}
			var all []byte
			for pe := 0; pe < 64; pe++ {
				all = append(all, comm.GetPEBuffer(pe, 2*m, m)...)
			}
			return all
		}
		at3, at1, atDefault := run(3, 3), run(1, 1), run(0, runtime.GOMAXPROCS(0))
		if !bytes.Equal(at3, at1) || !bytes.Equal(at3, atDefault) {
			t.Fatal("results differ between worker counts")
		}
	})
	t.Run("Fuse", func(t *testing.T) {
		seq := []pidcomm.Collective{aa(0), {Prim: pidcomm.ReduceScatter, Dims: "10",
			Src: pidcomm.Span(2*m, m), Dst: pidcomm.At(4 * m), Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM}}
		for _, tc := range []struct {
			opt   pidcomm.MachineOption
			fused bool
		}{{pidcomm.WithFuse(pidcomm.FuseOff), false}, {pidcomm.WithFuse(pidcomm.FuseFull), true}, {pidcomm.CostOnly(), true}} {
			_, comm := session(t, pidcomm.CostOnly(), tc.opt)
			cp, err := comm.CompileSequence(seq...)
			if err != nil {
				t.Fatal(err)
			}
			if got := cp.FusionReport().Changed(); got != tc.fused {
				t.Errorf("sequence fused = %v, want %v", got, tc.fused)
			}
		}
	})
	t.Run("ParamsAndCostOnly", func(t *testing.T) {
		dsa := pidcomm.DefaultParams()
		dsa.DSAOffload = true
		cost := func(opts ...pidcomm.MachineOption) pidcomm.Seconds {
			mach, comm := session(t, append(opts, pidcomm.CostOnly())...)
			if !mach.CostOnly() {
				t.Fatal("CostOnly() machine reports a functional backend")
			}
			bd, err := comm.Run(aa(0))
			if err != nil {
				t.Fatal(err)
			}
			return bd.Total()
		}
		if base, with := cost(), cost(pidcomm.WithParams(dsa)); with >= base {
			t.Errorf("DSA-offload params cost %v, default %v: WithParams did not reach the cost model", with, base)
		}
		if mach, _ := session(t); mach.CostOnly() {
			t.Error("default machine reports the cost-only backend")
		}
	})
	t.Run("Stepped", func(t *testing.T) {
		mach, comm := session(t, pidcomm.CostOnly())
		f, err := comm.Submit(aa(0))
		if err != nil {
			t.Fatal(err)
		}
		if f.Done() || mach.Pending() != 1 {
			t.Fatalf("machine ran a submission on its own (done=%v pending=%d)", f.Done(), mach.Pending())
		}
		if mach.Step() != f || !f.Done() {
			t.Fatal("Step did not retire the submission")
		}
		if f, err = comm.Submit(aa(0)); err != nil {
			t.Fatal(err)
		}
		mach.Flush()
		if !f.Done() || mach.Step() != nil {
			t.Fatal("Flush left a submission for Step")
		}
	})
	t.Run("SchedAndLookahead", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			opts []pidcomm.MachineOption
			want int
		}{
			{"default", nil, 0},
			{"fifo", []pidcomm.MachineOption{pidcomm.WithSched(pidcomm.SchedFIFO)}, 0},
			{"edf", []pidcomm.MachineOption{pidcomm.WithSched(pidcomm.SchedEDF)}, 1},
			{"edf window 0 = default", []pidcomm.MachineOption{pidcomm.WithSched(pidcomm.SchedEDF), pidcomm.WithLookahead(0)}, 1},
			{"edf window 1", []pidcomm.MachineOption{pidcomm.WithSched(pidcomm.SchedEDF), pidcomm.WithLookahead(1)}, 0},
		} {
			if got := firstStepped(t, tc.opts...); got != tc.want {
				t.Errorf("%s: submission %d stepped first, want %d", tc.name, got, tc.want)
			}
		}
	})
	t.Run("Invalid", func(t *testing.T) {
		for name, opt := range map[string]pidcomm.MachineOption{
			"lookahead -1":   pidcomm.WithLookahead(-1),
			"lookahead huge": pidcomm.WithLookahead(pidcomm.MaxPendingPlans + 1),
			"policy 99":      pidcomm.WithSched(pidcomm.SchedPolicy(99)),
			"policy -1":      pidcomm.WithSched(pidcomm.SchedPolicy(-1)),
		} {
			if _, err := pidcomm.NewMachine(geo, []int{8, 8}, opt); err == nil {
				t.Errorf("NewMachine accepted %s", name)
			}
		}
	})
}

// On either backend, a cluster submission runs at once and returns
// completed, leaving nothing pending on any host.
func TestSteppedCluster(t *testing.T) {
	shape := []int{16}
	for _, opts := range [][]pidcomm.MachineOption{nil, {pidcomm.CostOnly()}} {
		cl, err := pidcomm.NewCluster(2, validGeo, shape, opts...)
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		f, err := cl.Submit(pidcomm.ClusterCollective{Collective: validShape(pidcomm.AllGather, 2*16)})
		if err != nil {
			t.Fatal(err)
		}
		if !f.Done() || cl.Machine(0).Pending() != 0 || cl.Machine(1).Pending() != 0 {
			t.Fatalf("cost-only %v: a cluster's submission returned before it ran", cl.CostOnly())
		}
		if bd, err := f.Wait(); err != nil || bd.Total() <= 0 {
			t.Fatalf("cost-only %v: cluster Wait: %v, %v", cl.CostOnly(), bd, err)
		}
	}
}
