package bench

import (
	"fmt"

	"repro/internal/apps/appcore"
	"repro/internal/apps/bfs"
	"repro/internal/apps/cc"
	"repro/internal/apps/dlrm"
	"repro/internal/apps/gnn"
	"repro/internal/apps/mlp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/elem"
)

// appRun describes one benchmark-application configuration (Table III
// row x dataset) runnable at several PE counts.
type appRun struct {
	// Name is the figure label, e.g. "DLRM-16" or "GNN RS&AR-PM".
	Name string
	// PEs are the PE counts used in the Figure 21 sweep; the last entry
	// is the default configuration used by Figures 4/13/15/22.
	PEs []int
	// Run executes the PIM implementation.
	Run func(pes int, lvl core.Level) (*appcore.Profile, error)
	// CPU returns the CPU-only roofline time.
	CPU func() (cost.Seconds, error)
}

func dlrmShape(pes int) (x, y, z int) {
	switch pes {
	case 64:
		return 2, 2, 16
	case 256:
		return 4, 4, 16
	case 512:
		return 4, 8, 16
	case 1024:
		return 8, 8, 16
	default:
		return 0, 0, 0
	}
}

func dlrmCfg(embDim, pes int) dlrm.Config {
	x, y, z := dlrmShape(pes)
	return dlrm.Config{Tables: 16, RowsPerTable: 4096, EmbDim: embDim,
		Batch: 2048, X: x, Y: y, Z: z, TopOut: 64, TopLayers: 3, Batches: 8, Seed: 1}
}

func gnnGrid(pes int) (r, c int) {
	switch pes {
	case 64:
		return 8, 8
	case 256:
		return 16, 16
	case 1024:
		return 32, 32
	default:
		return 0, 0
	}
}

func gnnCfg(name string, pes int, et elem.Type) gnn.Config {
	r, c := gnnGrid(pes)
	return gnn.Config{InputName: name, Rows: r, Cols: c, Layers: 3, Elem: et, Seed: 1}
}

// appRuns returns the Table III application matrix. MLP feature sizes are
// the paper's 16k/32k scaled by 4x (the table3 experiment prints the mapping).
func appRuns() []appRun {
	var runs []appRun
	for _, d := range []int{16, 32} {
		d := d
		runs = append(runs, appRun{
			Name: fmt.Sprintf("DLRM-%d", d),
			PEs:  []int{256, 512, 1024},
			Run: func(pes int, lvl core.Level) (*appcore.Profile, error) {
				_, prof, err := dlrm.RunPIM(dlrmCfg(d, pes), lvl)
				return prof, err
			},
			CPU: func() (cost.Seconds, error) {
				_, t, err := dlrm.RunCPU(dlrmCfg(d, 256))
				return t, err
			},
		})
	}
	for _, spec := range []struct {
		variant gnn.Variant
		input   string
	}{{gnn.RSAR, "PM"}, {gnn.RSAR, "RD"}, {gnn.ARAG, "PM"}, {gnn.ARAG, "RD"}} {
		spec := spec
		runs = append(runs, appRun{
			Name: fmt.Sprintf("GNN %v-%s", spec.variant, spec.input),
			PEs:  []int{64, 256, 1024},
			Run: func(pes int, lvl core.Level) (*appcore.Profile, error) {
				_, prof, err := gnn.RunPIM(gnnCfg(spec.input, pes, elem.I32), spec.variant, lvl)
				return prof, err
			},
			CPU: func() (cost.Seconds, error) {
				_, t, err := gnn.RunCPU(gnnCfg(spec.input, 256, elem.I32), spec.variant)
				return t, err
			},
		})
	}
	for _, g := range []string{"LJ", "LG"} {
		g := g
		runs = append(runs, appRun{
			Name: "BFS-" + g,
			PEs:  []int{64, 128, 256, 512, 1024},
			Run: func(pes int, lvl core.Level) (*appcore.Profile, error) {
				_, prof, err := bfs.RunPIM(bfs.Config{GraphName: g, PEs: pes}, lvl)
				return prof, err
			},
			CPU: func() (cost.Seconds, error) {
				_, t, err := bfs.RunCPU(bfs.Config{GraphName: g, PEs: 64})
				return t, err
			},
		})
		runs = append(runs, appRun{
			Name: "CC-" + g,
			PEs:  []int{32, 64, 128, 256, 512, 1024},
			Run: func(pes int, lvl core.Level) (*appcore.Profile, error) {
				_, prof, err := cc.RunPIM(cc.Config{GraphName: g, PEs: pes}, lvl)
				return prof, err
			},
			CPU: func() (cost.Seconds, error) {
				_, t, err := cc.RunCPU(cc.Config{GraphName: g, PEs: 64})
				return t, err
			},
		})
	}
	for _, f := range []int{4096, 8192} { // 16k and 32k scaled by 4x
		f := f
		mcfg := func(pes int) mlp.Config {
			return mlp.Config{Features: f, Layers: 5, PEs: pes, Batches: 16, Seed: 1}
		}
		runs = append(runs, appRun{
			Name: fmt.Sprintf("MLP-%dk/4", f*4/1024),
			PEs:  []int{64, 128, 256, 512, 1024},
			Run: func(pes int, lvl core.Level) (*appcore.Profile, error) {
				_, prof, err := mlp.RunPIM(mcfg(pes), lvl)
				return prof, err
			},
			CPU: func() (cost.Seconds, error) {
				_, t, err := mlp.RunCPU(mcfg(64))
				return t, err
			},
		})
	}
	return runs
}

func defaultPEs(r appRun) int { return r.PEs[len(r.PEs)-1] }

// fig13Subset is the representative set used for the heavier app figures
// at default scale (one dataset per app); Full adds the second datasets.
func fig13Subset(o Options) []appRun {
	runs := appRuns()
	if o.Full {
		return runs
	}
	keep := map[string]bool{"DLRM-16": true, "GNN RS&AR-PM": true, "GNN AR&AG-PM": true,
		"BFS-LG": true, "CC-LG": true, "MLP-16k/4": true}
	var out []appRun
	for _, r := range runs {
		if keep[r.Name] {
			out = append(out, r)
		}
	}
	return out
}

func init() {
	registerUngated("fig4", "Execution-time breakdown of applications with conventional communication", func(o Options) error {
		t := newTable("App", "Total(ms)", "Comm%", "DT%", "Mod%", "PEMem%", "HostMem%", "Other%")
		for _, r := range fig13Subset(o) {
			prof, err := r.Run(defaultPEs(r), core.Baseline)
			if err != nil {
				return err
			}
			bd := prof.CommBreakdown
			commT := float64(prof.CommTotal())
			pct := func(c cost.Category) string {
				if commT == 0 {
					return "0"
				}
				return fmt.Sprintf("%.0f", 100*float64(bd.Get(c))/commT)
			}
			t.add(r.Name,
				fmt.Sprintf("%.2f", float64(prof.Total())*1e3),
				fmt.Sprintf("%.0f", 100*commT/float64(prof.Total())),
				pct(cost.DomainTransfer), pct(cost.HostMod), pct(cost.PEMem), pct(cost.HostMem),
				pct(cost.Other))
		}
		t.write(o.W)
		return nil
	})

	registerUngated("fig13", "Per-application execution-time breakdown, Base vs PID-Comm", func(o Options) error {
		t := newTable("App", "Design", "Total(ms)", "Kernel", "Sc", "Ga", "Re", "Br", "AA", "RS", "AG", "AR")
		for _, r := range fig13Subset(o) {
			for _, lvl := range []core.Level{core.Baseline, core.CM} {
				prof, err := r.Run(defaultPEs(r), lvl)
				if err != nil {
					return err
				}
				name := "Base"
				if lvl != core.Baseline {
					name = "Ours"
				}
				ms := func(p core.Primitive) string {
					return fmt.Sprintf("%.2f", float64(prof.ByPrimitive[p])*1e3)
				}
				t.add(r.Name, name, fmt.Sprintf("%.2f", float64(prof.Total())*1e3),
					fmt.Sprintf("%.2f", float64(prof.KernelTime)*1e3),
					ms(core.Scatter), ms(core.Gather), ms(core.Reduce), ms(core.Broadcast),
					ms(core.AlltoAll), ms(core.ReduceScatter), ms(core.AllGather), ms(core.AllReduce))
			}
		}
		t.write(o.W)
		return nil
	})

	registerUngated("fig15", "Speedup of benchmark applications over the conventional baseline", func(o Options) error {
		t := newTable("App", "Base(ms)", "PID-Comm(ms)", "Speedup")
		var ratios []float64
		for _, r := range fig13Subset(o) {
			base, err := r.Run(defaultPEs(r), core.Baseline)
			if err != nil {
				return err
			}
			ours, err := r.Run(defaultPEs(r), core.CM)
			if err != nil {
				return err
			}
			sp := float64(base.Total()) / float64(ours.Total())
			ratios = append(ratios, sp)
			t.add(r.Name, fmt.Sprintf("%.2f", float64(base.Total())*1e3),
				fmt.Sprintf("%.2f", float64(ours.Total())*1e3), fmt.Sprintf("%.2fx", sp))
		}
		t.add("Geomean", "", "", fmt.Sprintf("%.2fx", geomean(ratios)))
		t.write(o.W)
		return nil
	})

	registerUngated("fig21", "Speedup over CPU-only system with varying number of PEs", func(o Options) error {
		t := newTable("App", "PEs", "CPU(ms)", "PIM-Base", "PID-Comm")
		var baseR, oursR []float64
		for _, r := range fig13Subset(o) {
			cpuT, err := r.CPU()
			if err != nil {
				return err
			}
			for _, pes := range r.PEs {
				base, err := r.Run(pes, core.Baseline)
				if err != nil {
					return err
				}
				ours, err := r.Run(pes, core.CM)
				if err != nil {
					return err
				}
				sb := float64(cpuT) / float64(base.Total())
				so := float64(cpuT) / float64(ours.Total())
				t.add(r.Name, fmt.Sprint(pes), fmt.Sprintf("%.2f", float64(cpuT)*1e3),
					fmt.Sprintf("%.2fx", sb), fmt.Sprintf("%.2fx", so))
				baseR = append(baseR, sb)
				oursR = append(oursR, so)
			}
		}
		t.add("Geomean", "", "", fmt.Sprintf("%.2fx", geomean(baseR)), fmt.Sprintf("%.2fx", geomean(oursR)))
		t.write(o.W)
		return nil
	})

	registerUngated("fig22", "Word-width sensitivity of GNN (INT8/INT16/INT32)", func(o Options) error {
		t := newTable("Variant", "Width", "Base(ms)", "Ours(ms)", "Speedup", "Ours-DT(ms)")
		inputs := []string{"PM"}
		if o.Full {
			inputs = []string{"PM", "RD"}
		}
		for _, input := range inputs {
			for _, variant := range []gnn.Variant{gnn.RSAR, gnn.ARAG} {
				for _, et := range []elem.Type{elem.I8, elem.I16, elem.I32} {
					cfg := gnnCfg(input, 256, et)
					_, base, err := gnn.RunPIM(cfg, variant, core.Baseline)
					if err != nil {
						return err
					}
					_, ours, err := gnn.RunPIM(cfg, variant, core.CM)
					if err != nil {
						return err
					}
					t.add(fmt.Sprintf("GNN %v-%s", variant, input), et.String(),
						fmt.Sprintf("%.2f", float64(base.Total())*1e3),
						fmt.Sprintf("%.2f", float64(ours.Total())*1e3),
						fmt.Sprintf("%.2fx", float64(base.Total())/float64(ours.Total())),
						fmt.Sprintf("%.3f", float64(ours.CommBreakdown.Get(cost.DomainTransfer))*1e3))
				}
			}
		}
		t.write(o.W)
		return nil
	})
}
