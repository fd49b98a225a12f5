package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
)

// Options configures an experiment run.
type Options struct {
	// W receives the experiment's table output.
	W io.Writer
	// Full selects paper-scale payloads; the default small scale keeps
	// the whole suite within laptop memory/minutes (the timing model is
	// linear in payload, so shapes are preserved; see the package doc).
	Full bool
	// CostOnly runs experiments on the cost-only backend: identical
	// tables (the cost model is shared bit-for-bit with the functional
	// backend) at a fraction of the wall-clock and memory, since no MRAM
	// is allocated and no bytes move. Use for Full-scale sweeps.
	CostOnly bool
	// Sched selects the submission scheduling policy of the async
	// experiment's scheduled comm (`pidbench -sched`). The zero value is
	// core.SchedWFQ, the machine default. A non-default policy runs the
	// pipeline in stepped mode — the whole backlog is submitted before
	// the drain — so window-scanning policies see every candidate. The
	// reorder experiment ignores this and sweeps all registered policies.
	Sched core.SchedPolicy
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the flag value, e.g. "fig14" or "table1".
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment and writes its table.
	Run func(Options) error
}

var registry []Experiment

func register(id, title string, run func(Options) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments returns all registered experiments in registration order
// (tables first, then figures in paper order).
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

func (t *table) addf(format string, args ...interface{}) {
	t.add(fmt.Sprintf(format, args...))
}

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
