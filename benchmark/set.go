package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// value is one reported metric: the figure itself and, where it is the
// median of several samples, their quartiles, p90 and count.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	N     int     `json:"n,omitempty"`
}

// spread is the interquartile range as a share of the value.
func (v value) spread() float64 {
	if v.Value == 0 || v.N < 2 {
		return 0
	}
	return math.Abs(v.Q3-v.Q1) / math.Abs(v.Value)
}

// workloadResult is one workload's outcome over a set of rounds.
type workloadResult struct {
	Name string `json:"name"`
	// Metrics holds every end-to-end metric by name.
	Metrics map[string]value `json:"metrics"`
	// PassMs summarises the pooled pass wall times.
	PassMs summary `json:"pass_ms"`
	// OpsPerPass is the fixed op count of a pass; Attempted the ops of all
	// pooled passes; Failed the ops that errored or returned a wrong
	// output; SimFailed the requests the simulated system shed or served
	// late.
	OpsPerPass int `json:"ops_per_pass"`
	Attempted  int `json:"attempted"`
	Failed     int `json:"failed"`
	SimFailed  int `json:"sim_failed"`
	// Layer holds the per-layer metrics of the traced round, when one ran,
	// and TraceOverhead the traced pass median over the untraced one,
	// minus one.
	Layer         metrics `json:"layer,omitempty"`
	TraceOverhead float64 `json:"trace_overhead,omitempty"`
	TraceFile     string  `json:"trace_file,omitempty"`
}

// resultSet is what -out writes and -compare reads: one full set of
// rounds with the machine it ran on.
type resultSet struct {
	Schema     int              `json:"schema"`
	Go         string           `json:"go"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Rounds     int              `json:"rounds"`
	Smoke      bool             `json:"smoke,omitempty"`
	Workloads  []workloadResult `json:"workloads"`
}

// childProcs is the GOMAXPROCS every round runs at: the main goroutine
// plus one helper, the 2-core sandbox the workloads were sized on. The
// functional workloads shard their work over exactly two workers.
const childProcs = 2

// setConfig describes one set of rounds.
type setConfig struct {
	names    []string // workloads, in report order
	seed     int64
	seconds  float64 // timed-pass budget per workload, summed over rounds
	rounds   int
	smoke    bool // tiny shapes, and rounds run in this process: the CI hook
	trace    bool
	traceDir string
	progress func(format string, args ...any)
}

// runOne executes one round of one workload — in a fresh process, or in
// this one for a smoke set — and returns its result and setup_s.
func (sc setConfig) runOne(name string, budget time.Duration, traced bool) (roundResult, float64, error) {
	spec, err := workloadByName(name)
	if err != nil {
		return roundResult{}, 0, err
	}
	if sc.smoke {
		res, err := runRound(roundConfig{spec: spec, seed: sc.seed, smoke: true, traced: traced,
			budget: budget, start: time.Now(), traceDir: sc.traceDir})
		return res, float64(res.SetupNs) / 1e9, err
	}
	exe, err := os.Executable()
	if err != nil {
		return roundResult{}, 0, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(sc.seed, 10),
		"-budget-ms", strconv.FormatInt(budget.Milliseconds(), 10), "-trace-dir", sc.traceDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	spawned := time.Now()
	if err := cmd.Run(); err != nil { // Run waits for the process to end
		return roundResult{}, 0, fmt.Errorf("round of %s: %w", name, err)
	}
	var res roundResult
	line := bytes.TrimSpace(out.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return roundResult{}, 0, fmt.Errorf("round of %s: reading its result: %w", name, err)
	}
	return res, float64(res.ReadyUnixNano-spawned.UnixNano()) / 1e9, nil
}

// pooled accumulates one workload's rounds.
type pooled struct {
	passMs                     []float64
	setupS, allocs, bytes, rss []float64 // one value per round
	first                      *roundResult
	attempted, failed          int
}

func (p *pooled) add(name string, res roundResult, setupS float64) error {
	if p.first == nil {
		r := res
		p.first = &r
	} else if res.Sim != p.first.Sim || res.OpsPerPass != p.first.OpsPerPass {
		return fmt.Errorf("%s: simulated outcome %+v differs from the first round's %+v at equal seed: the simulated clock must repeat bit for bit",
			name, res.Sim, p.first.Sim)
	}
	for _, ns := range res.PassNs {
		p.passMs = append(p.passMs, float64(ns)/1e6)
	}
	ops := float64(len(res.PassNs) * res.OpsPerPass)
	p.setupS = append(p.setupS, setupS)
	p.allocs = append(p.allocs, float64(res.Mallocs)/ops)
	p.bytes = append(p.bytes, float64(res.AllocBytes)/ops)
	p.rss = append(p.rss, float64(res.MaxRSSKiB)/1024)
	p.attempted += len(res.PassNs) * res.OpsPerPass
	p.failed += res.Failed
	return nil
}

// fromSummary turns a sample summary into a reported value.
func fromSummary(s summary) value {
	return value{Value: s.Median, Q1: s.Q1, Q3: s.Q3, P90: s.P90, N: s.N}
}

// result folds the pooled rounds into the workload's end-to-end metrics.
func (p *pooled) result(name string) workloadResult {
	pass := summarize(p.passMs)
	ops := float64(p.first.OpsPerPass)
	rate := func(ms float64) float64 { return ops / (ms / 1e3) }
	simFailed := p.first.Sim.Failed * len(p.passMs)
	w := workloadResult{Name: name, PassMs: pass, OpsPerPass: p.first.OpsPerPass,
		Attempted: p.attempted, Failed: p.failed, SimFailed: simFailed}
	w.Metrics = map[string]value{
		"setup_s": fromSummary(summarize(p.setupS)),
		// Ops per pass over the median pass time; the quartiles of the rate
		// come from the opposite quartiles of the time.
		"host_ops_per_s": {Value: rate(pass.Median), Q1: rate(pass.Q3), Q3: rate(pass.Q1), P90: rate(pass.P90), N: pass.N},
		"allocs_per_op":  fromSummary(summarize(p.allocs)),
		"bytes_per_op":   fromSummary(summarize(p.bytes)),
		"peak_rss_mb":    fromSummary(summarize(p.rss)),
		"sim_total_s":    {Value: p.first.Sim.Total},
		"sim_p99_s":      {Value: p.first.Sim.P99},
		"fail_share":     {Value: float64(p.failed+simFailed) / float64(p.attempted)},
	}
	for _, m := range endToEnd {
		v := w.Metrics[m.name]
		v.Unit = m.unit
		w.Metrics[m.name] = v
	}
	return w
}

// runSet runs sc.rounds interleaved rounds — each round runs every
// workload once, in a fresh process, for its share of the time budget —
// pools them, and with sc.trace adds one traced round per workload.
func runSet(sc setConfig) (resultSet, error) {
	set := resultSet{Schema: 1, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: childProcs,
		Seed: sc.seed, Seconds: sc.seconds, Rounds: sc.rounds, Smoke: sc.smoke}
	budget := time.Duration(sc.seconds / float64(sc.rounds) * float64(time.Second))
	pools := map[string]*pooled{}
	for _, n := range sc.names {
		pools[n] = &pooled{}
	}
	for r := 0; r < sc.rounds; r++ {
		for _, n := range sc.names {
			sc.progress("round %d/%d %s", r+1, sc.rounds, n)
			res, setupS, err := sc.runOne(n, budget, false)
			if err != nil {
				return resultSet{}, err
			}
			if err := pools[n].add(n, res, setupS); err != nil {
				return resultSet{}, err
			}
		}
	}
	for _, n := range sc.names {
		w := pools[n].result(n)
		if sc.trace {
			sc.progress("traced round %s", n)
			res, _, err := sc.runOne(n, budget, true)
			if err != nil {
				return resultSet{}, err
			}
			if err := attachTrace(&w, res, pools[n].first); err != nil {
				return resultSet{}, err
			}
		}
		set.Workloads = append(set.Workloads, w)
	}
	return set, nil
}

// attachTrace adds a traced round's per-layer metrics to the workload's
// untraced result. End-to-end metrics never come from a traced round;
// the traced round must still have simulated the same thing.
func attachTrace(w *workloadResult, traced roundResult, untraced *roundResult) error {
	if traced.Sim != untraced.Sim {
		return fmt.Errorf("%s: the traced round's simulated outcome differs from the untraced rounds'", w.Name)
	}
	w.Failed += traced.Failed
	var ms []float64
	for _, ns := range traced.PassNs {
		ms = append(ms, float64(ns)/1e6)
	}
	w.TraceOverhead = median(ms)/w.PassMs.Median - 1
	w.Layer = traced.Layer
	w.Layer["trace_overhead"] = w.TraceOverhead
	for _, m := range endToEnd {
		if m.driver == 0 { // reported with the unbounded metrics
			w.Layer[m.name] = w.Metrics[m.name].Value
		}
	}
	w.TraceFile = traced.TraceFile
	return nil
}
