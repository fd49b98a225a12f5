package cost

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMeterAddAndTotal(t *testing.T) {
	m := NewMeter()
	m.Add(HostMod, 1.5)
	m.Add(HostMem, 0.5)
	m.Add(HostMod, 0.5)
	if got := m.Get(HostMod); got != 2.0 {
		t.Errorf("Get(HostMod) = %v, want 2.0", got)
	}
	if got := m.Total(); got != 2.5 {
		t.Errorf("Total() = %v, want 2.5", got)
	}
}

func TestMeterAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative time")
		}
	}()
	NewMeter().Add(HostMod, -1)
}

// AddTrace is the Add loop under one lock: every entry's T added N times,
// the same breakdown bit for bit and the same recorder calls in the same
// order, on a meter that already holds charges.
func TestMeterAddTraceMatchesAddLoop(t *testing.T) {
	adds := []TraceEntry{{PEMem, 1, 0.1}, {HostMod, 3, 1e-7}, {PEMem, 2, 0.2}, {Kernel, 1, 0}, {Other, 1, 1.0 / 3}, {Network, 0, 5}, {PEMem, 1, 0.3}, {HostMod, 1, 3e9}}
	var want []TraceEntry // one entry per addition
	for _, e := range adds {
		for range e.N {
			want = append(want, TraceEntry{e.Cat, 1, e.T})
		}
	}
	var seqs [2][]TraceEntry
	var meters [2]Meter
	for i := range meters {
		m, i := &meters[i], i
		m.Add(PEMem, 0.7)
		m.SetRecorder(func(c Category, t Seconds) { seqs[i] = append(seqs[i], TraceEntry{c, 1, t}) })
	}
	for _, e := range want {
		meters[0].Add(e.Cat, e.T)
	}
	meters[1].AddTrace(adds)
	if a, b := meters[0].Snapshot(), meters[1].Snapshot(); a != b {
		t.Errorf("AddTrace breakdown %v, Add loop %v", b, a)
	}
	if !slices.Equal(seqs[0], want) || !slices.Equal(seqs[1], want) {
		t.Errorf("recorder saw %v under AddTrace and %v under the Add loop, want %v", seqs[1], seqs[0], want)
	}
}

// A Recorder stores a run of equal additions to a category as one
// 16-byte entry, whatever other categories take in between, and starts a
// new entry when T changes or the count is full. Its trace re-sums to the
// meter it recorded, bit for bit, and replays every category's additions
// in their order.
func TestRecorderMergesEqualAdditions(t *testing.T) {
	if n := unsafe.Sizeof(TraceEntry{}); n != 16 {
		t.Errorf("TraceEntry is %d bytes, want 16", n)
	}
	a, b := Seconds(1e-7), Seconds(1.0/3)
	calls := []TraceEntry{{HostMod, 1, a}, {HostMem, 1, b}, {HostMod, 1, a}, {HostMem, 1, b},
		{HostMod, 1, 0.5}, {HostMem, 1, b}, {HostMod, 1, a}, {PEMem, 1, 0}, {PEMem, 1, 0}}
	want := []TraceEntry{{HostMod, 2, a}, {HostMem, 3, b}, {HostMod, 1, 0.5}, {HostMod, 1, a}, {PEMem, 2, 0}}
	byCat := func(seq []TraceEntry) map[Category][]Seconds {
		out := map[Category][]Seconds{}
		for _, e := range seq {
			out[e.Cat] = append(out[e.Cat], e.T)
		}
		return out
	}
	var r Recorder
	m := NewMeter()
	m.SetRecorder(r.Record)
	for range 2 { // a reset recorder starts over
		r.Reset()
		m.Reset()
		for _, e := range calls {
			m.Add(e.Cat, e.T)
		}
		if !slices.Equal(r.Adds, want) {
			t.Fatalf("recorded %v, want %v", r.Adds, want)
		}
	}
	if got := SumTrace(r.Adds); got != m.Snapshot() {
		t.Errorf("SumTrace = %v, the recorded meter %v", got, m.Snapshot())
	}
	var replayed []TraceEntry
	replay := NewMeter()
	replay.SetRecorder(func(c Category, t Seconds) { replayed = append(replayed, TraceEntry{c, 1, t}) })
	replay.AddTrace(r.Adds)
	if got, want := byCat(replayed), byCat(calls); !reflect.DeepEqual(got, want) {
		t.Errorf("replay added %v per category, the recorded calls %v", got, want)
	}

	r.Reset()
	r.Record(Other, a)
	r.Adds[0].N = math.MaxUint32
	if r.Record(Other, a); !slices.Equal(r.Adds, []TraceEntry{{Other, math.MaxUint32, a}, {Other, 1, a}}) {
		t.Errorf("a full entry took another addition: %v", r.Adds)
	}
}

// addRoundsOracle books round rounds times through Add, round by round
// and entry by entry, T N times each, on a fresh meter recording into a
// fresh Recorder.
func addRoundsOracle(rounds int, round []TraceEntry) (Breakdown, Recorder) {
	var r Recorder
	m := NewMeter()
	m.SetRecorder(r.Record)
	for range rounds {
		for _, e := range round {
			for range e.N {
				m.Add(e.Cat, e.T)
			}
		}
	}
	return m.Snapshot(), r
}

// sameAddRounds reports where AddRounds(rounds, round) and the Add loop
// differ — the meter, bit for bit, and the recorded Adds and Segs — or
// "" when they agree.
func sameAddRounds(rounds int, round []TraceEntry) string {
	want, wr := addRoundsOracle(rounds, round)
	var r Recorder
	m := NewMeter()
	m.SetRecorder(r.Record)
	m.AddRounds(rounds, round)
	got := m.Snapshot()
	for c := range got.byCat {
		if math.Float64bits(float64(got.byCat[c])) != math.Float64bits(float64(want.byCat[c])) {
			return fmt.Sprintf("%v reads %v, the Add loop %v", Category(c), got.byCat[c], want.byCat[c])
		}
	}
	if !slices.Equal(r.Adds, wr.Adds) {
		return fmt.Sprintf("recorded additions %v, the Add loop's %v", r.Adds, wr.Adds)
	}
	if !slices.Equal(r.Segs, wr.Segs) {
		return fmt.Sprintf("recorded segments %v, the Add loop's %v", r.Segs, wr.Segs)
	}
	return ""
}

// AddRounds is the Add loop under one lock: round-major, entry-minor,
// each entry's T N times, the same meter bit for bit and the same
// recorder calls in the same order — where a round repeats a category
// with a different T, puts two categories on one lane, or adds operands
// whose order changes the float sum. No rounds add nothing, and a
// negative T panics before anything is added.
func TestAddRoundsMatchesAddLoop(t *testing.T) {
	big, one := Seconds(1e16), Seconds(1) // variables: constants would sum exactly
	if a, b := one+big+one+big+one+big, one+one+one+big+big+big; a == b {
		t.Fatal("the order-sensitive case sums alike in both orders: it tests nothing")
	}
	for _, tc := range []struct {
		name   string
		rounds int
		round  []TraceEntry
	}{
		{"repeated category, different T", 4, []TraceEntry{{HostMod, 1, 0.1}, {HostMem, 1, 0.25}, {HostMod, 1, 1.0 / 3}}},
		{"two categories on one lane", 3, []TraceEntry{{DomainTransfer, 1, 0.5}, {HostMod, 1, 0.125}, {PEMem, 1, 2}}},
		{"order-sensitive operands", 3, []TraceEntry{{HostMod, 1, one}, {HostMod, 1, big}}},
		{"counted entries", 2, []TraceEntry{{HostMod, 3, 1e-7}, {Network, 0, 5}, {HostMod, 2, 0.3}, {Kernel, 1, 0}}},
		{"one round", 1, []TraceEntry{{PEMod, 1, 0.75}, {Other, 1, 1e-9}}},
		{"zero rounds", 0, []TraceEntry{{HostMod, 1, 1}}},
		{"negative rounds", -2, []TraceEntry{{HostMod, 1, 1}}},
		{"empty round", 5, nil},
	} {
		if msg := sameAddRounds(tc.rounds, tc.round); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}

	m := NewMeter()
	m.Add(HostMod, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddRounds took a negative time without panicking")
			}
		}()
		m.AddRounds(2, []TraceEntry{{HostMod, 1, 0.5}, {HostMem, 1, -1}})
	}()
	if got := m.Snapshot(); got != (Breakdown{byCat: [numCategories]Seconds{HostMod: 1}}) {
		t.Errorf("a rejected AddRounds left the meter at %v", got)
	}
}

// FuzzAddRounds holds AddRounds to the Add loop over random rounds: up to
// eight entries of any category, count 0-3 and a finite non-negative T.
func FuzzAddRounds(f *testing.F) {
	f.Add(uint8(3), []byte{1, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 1, 0, 0x20, 0xbc, 0xbe, 0x4c, 0xc3, 0x41, 0x43})
	f.Add(uint8(2), []byte{2, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 2, 9, 9, 9, 9, 9, 9, 9, 9, 1, 1, 0, 0, 0, 0, 0, 0, 0xd0, 0x3f})
	f.Fuzz(func(t *testing.T, rounds uint8, data []byte) {
		var round []TraceEntry
		for ; len(data) >= 10 && len(round) < 8; data = data[10:] {
			v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[2:])))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			round = append(round, TraceEntry{Category(data[0] % byte(numCategories)), uint32(data[1] % 4), Seconds(v)})
		}
		if msg := sameAddRounds(int(rounds%16), round); msg != "" {
			t.Fatalf("%d rounds of %v: %s", rounds%16, round, msg)
		}
	})
}

func TestMeterMerge(t *testing.T) {
	a, b := NewMeter(), NewMeter()
	a.Add(DomainTransfer, 1)
	b.Add(DomainTransfer, 2)
	b.Add(Kernel, 3)
	a.Merge(b)
	if a.Get(DomainTransfer) != 3 || a.Get(Kernel) != 3 {
		t.Errorf("Merge: got DT=%v Kernel=%v", a.Get(DomainTransfer), a.Get(Kernel))
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter()
	m.Add(Other, 2)
	m.Reset()
	if m.Total() != 0 {
		t.Errorf("Reset: total %v, want 0", m.Total())
	}
}

func TestBreakdownSubClampsToZero(t *testing.T) {
	a, b := NewMeter(), NewMeter()
	a.Add(HostMem, 1)
	b.Add(HostMem, 2)
	d := a.Snapshot().Sub(b.Snapshot())
	if d.Get(HostMem) != 0 {
		t.Errorf("Sub clamp: got %v, want 0", d.Get(HostMem))
	}
}

func TestBreakdownSubIsolatesPhase(t *testing.T) {
	m := NewMeter()
	m.Add(HostMod, 1)
	before := m.Snapshot()
	m.Add(HostMod, 2)
	m.Add(PEMem, 4)
	phase := m.Snapshot().Sub(before)
	if phase.Get(HostMod) != 2 || phase.Get(PEMem) != 4 {
		t.Errorf("phase = %v", phase)
	}
}

func TestBreakdownCommTotal(t *testing.T) {
	m := NewMeter()
	m.Add(Kernel, 10)
	m.Add(PEMem, 2)
	m.Add(DomainTransfer, 3)
	if got := m.Snapshot().CommTotal(); got != 5 {
		t.Errorf("CommTotal = %v, want 5", got)
	}
}

func TestBreakdownString(t *testing.T) {
	m := NewMeter()
	m.Add(PEMem, 2)
	m.Add(DomainTransfer, 1)
	s := m.Snapshot().String()
	if !strings.Contains(s, "PEMem") || !strings.Contains(s, "DomainTransfer") {
		t.Errorf("String() = %q, missing categories", s)
	}
	// Larger contributor listed first.
	if strings.Index(s, "PEMem") > strings.Index(s, "DomainTransfer") {
		t.Errorf("String() = %q, want descending order", s)
	}
}

func TestCategoriesAndStrings(t *testing.T) {
	cats := Categories()
	if len(cats) != int(numCategories) {
		t.Fatalf("Categories() returned %d, want %d", len(cats), numCategories)
	}
	seen := map[string]bool{}
	for _, c := range cats {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "Category(") {
			t.Errorf("category %d has bad label %q", c, s)
		}
		if seen[s] {
			t.Errorf("duplicate label %q", s)
		}
		seen[s] = true
	}
	if got := Category(99).String(); !strings.HasPrefix(got, "Category(") {
		t.Errorf("unknown category label %q", got)
	}
}

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestParamsValidateCatchesBadFields(t *testing.T) {
	p := DefaultParams()
	p.ChannelBW = 0
	err := p.Validate()
	if err == nil {
		t.Fatal("expected error for zero ChannelBW")
	}
	if !strings.Contains(err.Error(), "ChannelBW") {
		t.Errorf("error %q does not name field", err)
	}
}

func TestParamsHostBytesAt(t *testing.T) {
	p := DefaultParams()
	p.HostClockHz = 1e9
	got := p.HostBytesAt(2e9, 2.0)
	if math.Abs(float64(got)-1.0) > 1e-12 {
		t.Errorf("HostBytesAt = %v, want 1.0", got)
	}
}

func TestParamsDPUInstrTime(t *testing.T) {
	p := DefaultParams()
	p.DPUInstrHz = 100e6
	if got := p.DPUInstrTime(100e6); math.Abs(float64(got)-1.0) > 1e-12 {
		t.Errorf("DPUInstrTime = %v, want 1.0", got)
	}
}

// Property: Merge is commutative.
func TestMergeProperties(t *testing.T) {
	f := func(a1, a2, b1, b2 uint16) bool {
		m1, m2 := NewMeter(), NewMeter()
		m1.Add(HostMod, Seconds(a1))
		m1.Add(PEMem, Seconds(a2))
		m2.Add(HostMod, Seconds(b1))
		m2.Add(PEMem, Seconds(b2))

		x := NewMeter()
		x.Merge(m1)
		x.Merge(m2)
		y := NewMeter()
		y.Merge(m2)
		y.Merge(m1)
		return x.Total() == y.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Breakdown.Add and Meter.Merge agree.
func TestBreakdownAddMatchesMerge(t *testing.T) {
	f := func(a, b uint16) bool {
		m1, m2 := NewMeter(), NewMeter()
		m1.Add(Network, Seconds(a))
		m2.Add(Network, Seconds(b))
		sum := m1.Snapshot().Add(m2.Snapshot())
		m1.Merge(m2)
		return sum.Get(Network) == m1.Get(Network)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
