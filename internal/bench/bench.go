package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
)

// Options configures an experiment run.
type Options struct {
	// W receives the experiment's table output.
	W io.Writer
	// Full selects paper-scale payloads; the default small scale keeps
	// the whole suite within laptop memory/minutes (the timing model is
	// linear in payload, so shapes are preserved; see the package doc).
	Full bool
	// Sched selects the submission scheduling policy of the async
	// experiment's scheduled comm (`pidbench -sched`). The zero value is
	// core.SchedWFQ, the machine default. The whole backlog is submitted
	// before the drain, so window-scanning policies see every candidate.
	// The reorder experiment ignores this and sweeps all registered
	// policies.
	Sched core.SchedPolicy
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the flag value, e.g. "fig14" or "table1".
	ID string
	// Title describes the paper artifact.
	Title string
	// Gated marks an experiment that runs cost-only: `pidbench -json`
	// runs it at the default scale and gates every cell it records. The
	// application experiments (always functional, minutes long) and the
	// static tables are not gated.
	Gated bool
	run   func(Options, *cells) error
}

// Run executes the experiment and writes its table.
func (e Experiment) Run(o Options) error { return e.run(o, &cells{}) }

var registry []Experiment

// register adds a gated experiment: run records every simulated time
// its table prints as a cell and renders the table from the cells.
func register(id, title string, run func(Options, *cells) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Gated: true, run: run})
}

// registerUngated adds a static table or an application experiment.
func registerUngated(id, title string, run func(Options) error) {
	registry = append(registry, Experiment{ID: id, Title: title,
		run: func(o Options, _ *cells) error { return run(o) }})
}

// cells is what one gated run measured: each simulated time its table
// prints, in seconds, keyed "<experiment>/<name>", and the acceptance
// checks it failed. A text run keeps neither (m is nil).
type cells struct {
	id     string
	m      map[string]float64
	failed []string
}

// put records s as the cell name and returns it as the float the table
// renders and derives its rates, ratios and shares from.
func (c *cells) put(name string, s cost.Seconds) float64 {
	v := float64(s)
	if c.m != nil {
		k := c.id + "/" + name
		if old, dup := c.m[k]; dup && old != v {
			panic(fmt.Sprintf("bench: cell %s recorded twice (%v, %v)", k, old, v))
		}
		c.m[k] = v
	}
	return v
}

// require records a failed acceptance check unless ok.
func (c *cells) require(ok bool, format string, args ...any) {
	if !ok {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	}
}

// Experiments returns all registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// RunAll executes every experiment.
func RunAll(o Options) error {
	for _, e := range Experiments() {
		fmt.Fprintf(o.W, "\n=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(o); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// gbps converts bytes and seconds to GB/s.
func gbps(bytes int64, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return float64(bytes) / sec / 1e9
}

// table is a minimal aligned-column text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
}
