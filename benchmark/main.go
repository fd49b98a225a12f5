package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"time"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	out      string
	compare  bool
	child    bool
	budgetMs int64
	traceDir string
}

func main() {
	start := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as one JSON object on the last line (default: all workloads, as a table)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input: MRAM fill, graphs, arrival processes")
	flag.Float64Var(&o.seconds, "seconds", 15, "timed-pass budget per workload, split over the rounds")
	flag.IntVar(&o.trace, "trace", 0, "1 adds a traced round: per-layer metrics, trace_overhead and benchmark/out/trace-<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "CI hook: one in-process round of one pass on tiny shapes; the numbers mean nothing")
	flag.StringVar(&o.out, "out", "", "write the result set to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result sets: -compare a.json b.json")
	flag.BoolVar(&o.child, "child", false, "internal: run one round in this process and print it as JSON")
	flag.Int64Var(&o.budgetMs, "budget-ms", 0, "internal: timed-pass budget of a -child round")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory for span files (default benchmark/out under the repository root)")
	flag.Parse()
	if err := run(start, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(start time.Time, o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files: -compare a.json b.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds < 0 || math.IsNaN(o.seconds) {
		return fmt.Errorf("-seconds %v must not be negative", o.seconds)
	}
	if o.traceDir == "" {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		o.traceDir = filepath.Join(root, "benchmark", "out")
	}
	if o.child {
		spec, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		res, err := runRound(roundConfig{spec: spec, seed: o.seed, traced: o.trace != 0,
			budget: time.Duration(o.budgetMs) * time.Millisecond, start: start, traceDir: o.traceDir})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	sc := setConfig{seed: o.seed, seconds: o.seconds, rounds: rounds, smoke: o.smoke, trace: o.trace != 0,
		traceDir: o.traceDir, progress: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  ... "+format+"\n", args...)
		}}
	if o.smoke {
		sc.seconds, sc.rounds = 0, 1
	}
	if o.workload != "" {
		if _, err := workloadByName(o.workload); err != nil {
			return err
		}
		return runDriver(os.Stdout, sc, o.workload, o.out)
	}
	for _, w := range workloads {
		sc.names = append(sc.names, w.name)
	}
	set, err := runSet(sc)
	if err != nil {
		return err
	}
	printSet(os.Stdout, set)
	if o.out != "" {
		if err := writeSet(o.out, set); err != nil {
			return err
		}
	}
	return failures(set)
}

// failures turns failed output checks into the command's exit status.
func failures(set resultSet) error {
	for _, w := range set.Workloads {
		if w.Failed > 0 {
			return fmt.Errorf("%s: %d ops failed or returned wrong outputs", w.Name, w.Failed)
		}
	}
	return nil
}

func writeSet(path string, set resultSet) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// driverLine is the one JSON object a -workload run prints last.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runDriver runs one workload the way an outside driver asks for it:
// with -trace 0 a set of rounds of that workload and the bounded
// end-to-end metrics; with -trace 1 a shorter set plus a traced round of
// every workload, and every per-layer metric. Metrics that belong to
// another workload come from that workload's own (one-pass) traced
// round; where several workloads provide a name, the selected one wins.
func runDriver(w io.Writer, sc setConfig, name, out string) error {
	sc.names = []string{name}
	layer := metrics{}
	failed := 0
	if sc.trace {
		// The time budget goes to the selected workload: two fifths to
		// untraced rounds (the base of trace_overhead), one fifth to its
		// traced round; every other workload gets one traced pass.
		for _, other := range workloads {
			if other.name == name {
				continue
			}
			sc.progress("traced pass %s", other.name)
			res, _, err := sc.runOne(other.name, 0, true)
			if err != nil {
				return err
			}
			failed += res.Failed
			maps.Copy(layer, res.Layer)
		}
		sc.rounds = min(2, sc.rounds)
		sc.seconds *= 0.4
	}
	set, err := runSet(sc) // with sc.trace the set ends with the traced round
	if err != nil {
		return err
	}
	printSet(w, set)
	if out != "" {
		if err := writeSet(out, set); err != nil {
			return err
		}
	}
	res := set.Workloads[0]
	line := driverLine{Attempted: res.Attempted, Failed: failed + res.Failed, Metrics: map[string]value{}}
	line.Correct = line.Failed == 0
	if !sc.trace {
		for _, m := range driverEndToEnd() {
			line.Metrics[m.name] = value{Value: res.Metrics[m.name].Value, Unit: m.unit}
		}
		return emit(w, line)
	}
	maps.Copy(layer, res.Layer)
	for _, m := range perLayer() {
		v, ok := layer[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("traced run produced no finite value for %s", m.name)
		}
		line.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return emit(w, line)
}

// emit prints the driver line and turns failed checks into exit status.
func emit(w io.Writer, line driverLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	if !line.Correct {
		return fmt.Errorf("%d ops failed or returned wrong outputs", line.Failed)
	}
	return nil
}
