// Command pidinfo prints the simulated system's configuration: the DIMM
// topology and hypercube mapping, the framework support matrix (Table I),
// the technique applicability matrix (Table II), and the calibrated cost
// model parameters. Each mode flag (see -h) instead builds a small
// representative workload and prints what it left behind: -plancache,
// -tenants, -cluster and -auto print the machine's (or cluster's)
// Snapshot — the one read surface of run-time state — -serving prints a
// serve.Result, -sched the schedulers table.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/serve"
	"repro/pidcomm"
)

func main() {
	mram := flag.Int("mram", 1<<20, "per-bank MRAM bytes")
	plancache := flag.Bool("plancache", false, "run a representative compile/replay workload and print plan-cache statistics")
	tenants := flag.Bool("tenants", false, "provision a representative multi-tenant machine and list arenas, weights, quotas and per-tenant meters")
	cluster := flag.Bool("cluster", false, "build a representative cost-only cluster, replay global collectives through the cluster layer and print per-host compile, fusion and network-lane statistics")
	serving := flag.Bool("serving", false, "drive the canonical online-serving scenario under WFQ and EDF and print per-tenant sojourn percentiles, deadline misses and churn outcome")
	auto := flag.Bool("auto", false, "resolve a representative set of Auto signatures on a cost-only comm and dump the auto-decision cache under both objectives")
	schedList := flag.Bool("sched", false, "list the registered submission scheduling policies (the names WithSched and `pidbench -sched` accept)")
	flag.Parse()

	if *schedList {
		printScheds()
		return
	}
	for _, md := range []struct {
		on  *bool
		run func(mram int) error
	}{{auto, printAuto}, {plancache, printPlanCache}, {tenants, printTenants}, {cluster, printCluster}, {serving, printServing}} {
		if *md.on {
			if err := md.run(*mram); err != nil {
				fmt.Fprintln(os.Stderr, "pidinfo:", err)
				os.Exit(1)
			}
			return
		}
	}

	geo := dram.PaperGeometry(*mram)
	sys, err := dram.NewSystem(geo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pidinfo:", err)
		os.Exit(1)
	}
	fmt.Println("Simulated PIM-enabled DIMM system (paper testbed, § VIII-A)")
	fmt.Printf("  channels=%d ranks/channel=%d chips/rank=%d banks/chip=%d\n",
		geo.Channels, geo.RanksPerChannel, dram.ChipsPerRank, geo.BanksPerChip)
	fmt.Printf("  PEs=%d entangled groups=%d MRAM/bank=%d B\n",
		geo.NumPEs(), geo.NumGroups(), geo.MramPerBank)
	id := sys.PEFromLinear(9)
	fmt.Printf("  example mapping: linear PE 9 -> channel %d rank %d chip %d bank %d\n\n",
		id.Channel, id.Rank, id.Chip, id.Bank)

	fmt.Println("Table I — comparison against conventional approaches:")
	fmt.Println(core.TableI())
	fmt.Println("Table II — applicability of the proposed techniques:")
	fmt.Println(core.TableII())

	p := cost.DefaultParams()
	fmt.Println("Cost-model parameters (calibrated, cost.DefaultParams):")
	fmt.Printf("  host clock            %.1f GHz\n", p.HostClockHz/1e9)
	fmt.Printf("  channel bandwidth     %.1f GB/s (x%d channels)\n", p.ChannelBW/1e9, geo.Channels)
	fmt.Printf("  host memory bandwidth %.1f GB/s\n", p.HostMemBW/1e9)
	fmt.Printf("  modulation B/cycle    scalar %.1f, local %.1f, SIMD %.1f\n", p.ScalarModBPC, p.LocalModBPC, p.SIMDModBPC)
	fmt.Printf("  reduction B/cycle     scalar %.1f, local %.1f, vertical-SIMD %.1f\n", p.ScalarRedBPC, p.LocalRedBPC, p.ReduceBPC)
	fmt.Printf("  domain transfer       %.1f B/cycle\n", p.DTBPC)
	fmt.Printf("  DPU: MRAM %.0f MB/s, %d MHz\n", p.DPUMramBW/1e6, int(p.DPUInstrHz/1e6))
	fmt.Printf("  kernel launch         %.0f us, rank-parallel transfers: %v\n", float64(p.KernelLaunch)*1e6, p.RankParallel)
	fmt.Printf("  network (cluster)     %.1f Gbps x%d NIC (eff %.0f%%), %.0f us latency, %d switch tier(s)\n",
		p.Net.LinkBW*8/1e9, p.Net.NICsPerHost, p.Net.Efficiency*100,
		float64(p.Net.LinkLatency)*1e6, p.Net.SwitchTiers)
}

// printScheds lists the schedulers table: one row per submission
// scheduling policy, in value order — the name column is what
// ParseSchedPolicy (and therefore `pidbench -sched`) accepts.
func printScheds() {
	fmt.Println("Registered submission scheduling policies (WithSched / pidbench -sched):")
	fmt.Printf("  %-5s %-10s %s\n", "value", "name", "description")
	for _, sp := range core.SchedSpecs() {
		fmt.Printf("  %-5d %-10s %s\n", int(sp.Policy), sp.Name, sp.Desc)
	}
}

// demoComm builds the cost-only 32x32 paper-geometry machine -auto and
// -plancache run on, its whole-MRAM session, and their per-PE payload m:
// sized so that [0,5m) fits -mram, a multiple of 256 (32 blocks per group
// at 8-byte bursts).
func demoComm(mram int) (*core.Comm, *core.Tenant, int, error) {
	m := min(64<<10, mram/5)
	m -= m % 256
	if m < 256 {
		return nil, nil, 0, fmt.Errorf("-mram %d too small for the demo (need at least %d B/bank)", mram, 5*256)
	}
	comm, err := core.New(dram.PaperGeometry(mram), []int{32, 32}, core.Config{Backend: core.CostBackend()})
	if err != nil {
		return nil, nil, 0, err
	}
	session, err := comm.Session()
	return comm, session, m, err
}

// printAuto resolves a representative spread of Auto-level signatures —
// the four x-axis primitives at a small and a large payload, plus an
// algorithm-constrained AllReduce — and prints the comm's snapshot, whose
// Auto table has one row per signature: the winning (algorithm, level)
// and its scores under both objectives. Once per objective, because the
// cache is scored (and cleared) per objective; rows where the two picks
// differ are where the makespan objective earns its keep.
func printAuto(mram int) error {
	comm, session, m, err := demoComm(mram)
	if err != nil {
		return err
	}
	var sigs []core.Collective
	for _, sz := range []int{m / 16, m} {
		for _, prim := range []core.Primitive{core.AlltoAll, core.ReduceScatter, core.AllReduce, core.AllGather} {
			b := sz
			if prim == core.AllGather {
				b = sz / 32 // per-PE contribution; the gathered output is sz
			}
			d := core.Collective{Prim: prim, Dims: "10",
				Src: core.Span(0, b), Dst: core.At(2 * b), Level: core.Auto}
			if prim == core.ReduceScatter || prim == core.AllReduce {
				d.Elem, d.Op = elem.I32, elem.Sum
			}
			sigs = append(sigs, d)
		}
	}
	sigs = append(sigs, core.Collective{Prim: core.AllReduce, Dims: "10",
		Src: core.Span(0, m), Dst: core.At(2 * m),
		Elem: elem.I32, Op: elem.Sum, Level: core.Auto, Algorithm: core.AlgoRing})

	fmt.Printf("Auto-decision cache: 32x32 cost-only comm, %d signatures per objective\n", len(sigs))
	for _, obj := range []core.AutoObjective{core.AutoMeter, core.AutoMakespan} {
		comm.SetAutoObjective(obj)
		for _, d := range sigs {
			if _, _, err := session.Resolve(d); err != nil {
				return err
			}
		}
		fmt.Printf("\nobjective %s:\n%v", obj, comm.Snapshot())
	}
	return nil
}

// printPlanCache compiles three representative collectives and a fused
// sequence once each and replays them, then prints the comm's snapshot:
// one compulsory row miss per compile, replays that compile nothing, the
// cached charge traces' memory footprint, and what the fuser did.
func printPlanCache(mram int) error {
	comm, session, m, err := demoComm(mram)
	if err != nil {
		return err
	}
	ds := []core.Collective{
		{Prim: core.AlltoAll, Dims: "10", Src: core.Span(0, m), Dst: core.At(2 * m), Level: core.CM},
		{Prim: core.ReduceScatter, Dims: "10", Src: core.Span(0, m), Dst: core.At(2 * m),
			Elem: elem.I32, Op: elem.Sum, Level: core.IM},
		{Prim: core.AllReduce, Dims: "10", Src: core.Span(0, m), Dst: core.At(2 * m),
			Elem: elem.I32, Op: elem.Sum, Level: core.IM},
	}
	// The fused sequence: the AlltoAll relocates [0,m) into [2m,3m) and a
	// ReduceScatter consumes it — the pair whose rotate/unrotate steps the
	// fusion optimizer cancels.
	seq, err := session.CompileSequence(ds[0], core.Collective{Prim: core.ReduceScatter, Dims: "10",
		Src: core.Span(2*m, m), Dst: core.At(4 * m), Elem: elem.I32, Op: elem.Sum, Level: core.IM})
	if err != nil {
		return err
	}
	plans := make([]*core.CompiledPlan, len(ds), len(ds)+1)
	for i, d := range ds {
		if plans[i], err = session.Compile(d); err != nil {
			return err
		}
	}
	plans = append(plans, seq)
	const replays = 16
	for i := 0; i < replays; i++ {
		for _, cp := range plans {
			if _, err := cp.Run(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("Compiled-plan cache: 3 signatures + 1 fused sequence on a 32x32 cost-only comm (fusion level %v, the default), 1 compile + %d replays each\n",
		core.FuseFull, replays-1)
	fmt.Print(comm.Snapshot())
	fmt.Printf("the RS->AA sequence: %v\n", seq.FusionReport())
	return nil
}

// printCluster builds a representative cost-only cluster (4 hosts of
// the paper geometry), compiles a global AllReduce and a global
// AlltoAll through the cluster layer's whole-cluster session, checks that
// a recompile traces nothing, replays both plans, and prints the per-call
// costs, the fusion rewrites of the per-host schedules, and the cluster's
// snapshot — the cluster-scale counterpart of -plancache. The hosts share
// one shape table, which holds the role rows, so every host's plan cache
// and fusion lines are the table's.
func printCluster(mram int) error {
	const hosts = 4
	cl, err := pidcomm.NewCluster(hosts, pidcomm.PaperSystem(mram), []int{32, 32}, pidcomm.CostOnly())
	if err != nil {
		return err
	}
	session, err := cl.Comm()
	if err != nil {
		return err
	}
	// The global AlltoAll needs one 8-byte block per global PE and the
	// AllReduce 8-byte-per-rank alignment: both want m to be a multiple
	// of 8 * (global PEs), within the three regions MRAM must hold.
	G := cl.NumPEs()
	m := 64 << 10
	if 5*m > mram {
		m = mram / 5
	}
	m -= m % (8 * G)
	if m == 0 {
		return fmt.Errorf("-mram %d too small for the cluster demo (need at least %d B/bank)", mram, 5*8*G)
	}
	ds := []struct {
		name string
		d    pidcomm.ClusterCollective
	}{
		{"AllReduce", pidcomm.ClusterCollective{Collective: pidcomm.Collective{
			Prim: pidcomm.AllReduce, Dims: "11", Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
			Elem: pidcomm.I32, Op: pidcomm.Sum, Level: pidcomm.IM}}},
		{"AlltoAll", pidcomm.ClusterCollective{Collective: pidcomm.Collective{
			Prim: pidcomm.AlltoAll, Dims: "11", Src: pidcomm.Span(0, m), Dst: pidcomm.At(2 * m),
			Level: pidcomm.CM}}},
	}
	const replays = 8
	fmt.Printf("Cluster: %d hosts x %d PEs = %d global PEs, cost-only, %d KiB/PE payloads\n\n",
		hosts, cl.PEsPerHost(), G, m>>10)
	for _, e := range ds {
		cp, err := session.Compile(e.d)
		if err != nil {
			return err
		}
		misses := cl.Machine(0).Snapshot().PlanCache.TraceMisses
		if _, err := session.Compile(e.d); err != nil {
			return err
		}
		if cl.Machine(0).Snapshot().PlanCache.TraceMisses != misses {
			return fmt.Errorf("recompiling the %s descriptor traced a role row again", e.name)
		}
		for i := 0; i < replays; i++ {
			if _, err := cp.Run(); err != nil {
				return err
			}
		}
		syncs := 0
		for _, r := range cp.FusionReports() {
			syncs += r.SyncsElided
		}
		bd := cp.Cost()
		fmt.Printf("global %-10s per run %8.3f ms (network %7.3f ms), 1 compile (recompile traces nothing) + %d replays, fusion: %d syncs elided\n",
			e.name, float64(bd.Total())*1e3, float64(bd.Get(cost.Network))*1e3, replays, syncs)
	}

	// One row per role, bound per host: the AllReduce is one role, so host
	// 0 traced it and every other host shares that row — a trace hit; the
	// AlltoAll lowers differently on every host (its pack/unpack volumes
	// follow the host index), a trace miss each. Each recompile is a hit
	// per host.
	s := cl.Snapshot()
	for h, hs := range s.Hosts {
		fmt.Printf("\nhost %d: %v", h, hs)
	}
	fmt.Printf("\ncluster meter (slowest host per category): %v\nelapsed (overlap-aware makespan, slowest host): %.3f ms\n",
		s.Meter, float64(s.Elapsed)*1e3)
	return nil
}

// printTenants provisions a representative multi-tenant machine over the
// paper geometry (cost-only, phantom MRAM), serves a few asynchronous
// requests per tenant and prints the machine's snapshot, whose tenant
// table lists arena windows, weighted-fair shares, quota state and
// per-tenant meters. The quota'd tenant is sized to run out mid-stream,
// so the listing shows admission control in action.
func printTenants(mram int) error {
	mach, err := pidcomm.NewMachine(pidcomm.PaperSystem(mram), []int{32, 32}, pidcomm.CostOnly())
	if err != nil {
		return err
	}
	m := 16 << 10
	if 4*m > mram/3 {
		m = mram / 12
		m -= m % 512
	}
	if m < 512 {
		return fmt.Errorf("-mram %d too small for the tenant demo (need at least %d B/bank for 3 arenas)", mram, 3*4*512)
	}
	aa := pidcomm.Collective{Prim: pidcomm.AlltoAll, Dims: "10",
		Src: pidcomm.Span(0, m), Dst: pidcomm.At(m), Level: pidcomm.CM}

	dlrm, err := mach.NewTenant(pidcomm.TenantConfig{Name: "dlrm", ArenaBytes: 4 * m, Weight: 2})
	if err != nil {
		return err
	}
	// Price one request from its compiled plan (offsets don't affect
	// cost) so the demo quota can be set to ~2.5 requests.
	cp, err := dlrm.Compile(aa)
	if err != nil {
		return err
	}
	per := cp.Cost().Total()

	comms := []*pidcomm.Comm{dlrm}
	for _, cfg := range []pidcomm.TenantConfig{
		{Name: "gnn", ArenaBytes: 4 * m, Weight: 1},
		{Name: "capped", ArenaBytes: 4 * m, Weight: 1, Quota: per * 5 / 2},
	} {
		c, err := mach.NewTenant(cfg)
		if err != nil {
			return err
		}
		comms = append(comms, c)
	}
	const requests = 4
	rejected := map[string]int{}
	for r := 0; r < requests; r++ {
		for _, c := range comms {
			f, err := c.Submit(aa)
			if err != nil {
				return err
			}
			if werr := f.Err(); werr != nil {
				if !errors.Is(werr, pidcomm.ErrQuotaExceeded) {
					return werr
				}
				rejected[c.Name()]++
			}
		}
	}
	mach.Flush()

	fmt.Printf("Multi-tenant machine: %d PEs (32x32), %d B MRAM/bank, cost-only\n", mach.NumPEs(), mach.MramPerBank())
	fmt.Printf("%d requests submitted per tenant (%d KiB/PE AlltoAll each); rejected under quota: %v\n\n", requests, m>>10, rejected)
	fmt.Print(mach.Snapshot())
	return nil
}

// printServing drives the canonical chat/feed/batch serving scenario
// (internal/serve) at the rho=0.9 operating point under both scheduling
// policies, then once more under EDF with tenant churn, and prints the
// per-tenant sojourn percentiles — the interactive counterpart of
// `pidbench -exp serving`.
func printServing(int) error {
	const rho, requests = 0.9, 800
	fmt.Printf("Online serving: chat/feed/batch mix at rho=%.1f offered load, %d requests, cost-only\n\n", rho, requests)
	for _, pol := range []pidcomm.SchedPolicy{pidcomm.SchedWFQ, pidcomm.SchedEDF} {
		cfg, err := serve.Scenario(pol, rho, requests)
		if err != nil {
			return err
		}
		res, err := serve.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("policy %s: %.0f req/s, SLO p99 %.4f ms, %d missed, %d shed\n",
			pol, res.Throughput, float64(res.SLO.P99)*1e3, res.Missed, res.Shed)
		fmt.Printf("  %-8s %-8s %-8s %10s %12s %12s %8s %6s\n",
			"tenant", "model", "arrivals", "requests", "p50(ms)", "p99(ms)", "missed", "shed")
		for i, ts := range res.Tenants {
			sp := cfg.Tenants[i]
			fmt.Printf("  %-8s %-8s %-8s %10d %12.4f %12.4f %8d %6d\n",
				ts.Name, sp.Model, sp.Arrivals, ts.Stats.Count,
				float64(ts.Stats.P50)*1e3, float64(ts.Stats.P99)*1e3, ts.Stats.Missed, ts.Stats.Shed)
		}
		fmt.Println()
	}
	cfg, err := serve.Scenario(pidcomm.SchedEDF, rho, requests)
	if err != nil {
		return err
	}
	cfg.ChurnEvery = 50
	res, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	churns := 0
	for _, ts := range res.Tenants {
		churns += ts.Churns
	}
	fmt.Printf("with tenant churn every 50 completions (edf): %d teardown/recreate cycles, SLO p99 %.4f ms, free list re-coalesced to %v\n",
		churns, float64(res.SLO.P99)*1e3, res.FreeSpans)
	return nil
}
