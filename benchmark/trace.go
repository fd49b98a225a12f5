package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into an exported function of the program under
// test. Spans of one op share Op; Parent is the span that was open when
// this one began (-1 for an op's root). Start and End are nanoseconds
// since the tracer was created.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and counts in memory; a nil *tracer records
// nothing, so untraced rounds run the same code with one nil check per
// boundary. Spans are recorded only here in benchmark/, around calls into
// the program — spans inside the program are a later issue.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span IDs
	op     int
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), op: -1, counts: map[string]int64{}}
}

// nextOp starts a new op: spans begun afterwards carry its ID.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// reserveOps sets aside n consecutive op IDs and returns the first, for
// drivers whose calls interleave the ops (a request's submits and the
// steps that execute it are separated by other requests' calls).
func (t *tracer) reserveOps(n int) int {
	if t == nil {
		return 0
	}
	first := t.op + 1
	t.op += n
	return first
}

// setOp attributes an already recorded span to op.
func (t *tracer) setOp(id, op int) {
	if t != nil {
		t.spans[id].Op = op
	}
}

// begin opens a span under the innermost open span and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// count adds n to a named counter at the boundary where the work happens.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// mark returns a position in the span log; durationsSince and truncate
// take it, so a driver can measure a repetition and then drop its spans
// from the file.
func (t *tracer) mark() int { return len(t.spans) }

// truncate drops every span recorded since mark.
func (t *tracer) truncate(mark int) { t.spans = t.spans[:mark] }

// durations returns the duration in nanoseconds of every closed span
// with the given name, in recording order.
func (t *tracer) durations(name string) []float64 { return t.durationsSince(0, name) }

// durationsSince is durations over the spans recorded since mark.
func (t *tracer) durationsSince(mark int, name string) []float64 {
	var out []float64
	for _, s := range t.spans[mark:] {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// total sums durations(name).
func (t *tracer) total(name string) float64 { return t.totalSince(0, name) }

// totalSince sums durationsSince(mark, name).
func (t *tracer) totalSince(mark int, name string) float64 {
	var sum float64
	for _, d := range t.durationsSince(mark, name) {
		sum += d
	}
	return sum
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part of it its direct children cover.
// Children of one parent never overlap here (one goroutine records them
// in call order), so the covered part is the sum of their durations.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.End > 0 {
			self[s.Name] += float64(s.End - s.Start - covered[s.ID])
		}
	}
	return self
}

// traceFile is what write stores: the spans, the counts taken at the same
// boundaries, and the per-name self times derived from them.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Counts   map[string]int64   `json:"counts"`
	SelfNs   map[string]float64 `json:"self_ns"`
}

// write stores the trace as <dir>/trace-<workload>.json and returns the
// path, relative to the working directory where it lies beneath it.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed,
		Spans: t.spans, Counts: t.counts, SelfNs: t.selfTimes()})
	if err != nil {
		return "", fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil && filepath.IsLocal(rel) {
			return rel, nil
		}
	}
	return path, nil
}
