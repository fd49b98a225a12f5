package cost

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Category classifies where simulated time is spent. The set mirrors the
// breakdown categories of Figure 17 (Domain Transfer, Host-side Modulation,
// Host Mem Access, PE Mem Access, PE-side Modulation, Other) plus Kernel and
// Network used by the application studies (Figures 4, 13, 21, 23b).
// It is 32 bits wide so a TraceEntry's count fits beside it.
type Category int32

const (
	// DomainTransfer is host-side 8x8 byte transposition between the PIM
	// byte domain and the host byte domain (§ II-B).
	DomainTransfer Category = iota
	// HostMod is host-side data modulation (rearrangement, shifts,
	// reductions) whether in memory or in vector registers.
	HostMod
	// HostMem is host main-memory traffic for staging buffers.
	HostMem
	// PEMem is data movement between the host and the DIMM banks over the
	// external bus (CPU-DPU and DPU-CPU transfers), bounded by channel
	// bandwidth.
	PEMem
	// PEMod is PE-side modulation: the reorder kernels of PE-assisted
	// reordering running on the DPUs.
	PEMod
	// Kernel is application compute on the DPUs (SpGEMM, GeMM, ...).
	Kernel
	// Network is inter-host communication in the multi-host study.
	Network
	// Other covers kernel-launch and synchronization overheads.
	Other

	numCategories
)

// String returns the short label used in breakdown tables.
func (c Category) String() string {
	switch c {
	case DomainTransfer:
		return "DomainTransfer"
	case HostMod:
		return "HostMod"
	case HostMem:
		return "HostMem"
	case PEMem:
		return "PEMem"
	case PEMod:
		return "PEMod"
	case Kernel:
		return "Kernel"
	case Network:
		return "Network"
	case Other:
		return "Other"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists all categories in display order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Seconds is simulated wall-clock time.
type Seconds float64

// Meter accumulates simulated time per category. The zero value is ready
// to use. Meter is safe for concurrent use: independent actors (parallel
// collectives, application kernel launches) may accrue into one meter,
// each addition applied atomically.
type Meter struct {
	mu    sync.Mutex
	byCat [numCategories]Seconds
	rec   func(Category, Seconds)
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// TraceEntry is a run of N equal recorded meter additions of T to Cat. A
// sequence of entries is the unit of the compiled-plan replay path:
// replaying a trace re-applies the original floating-point additions
// with the same operands in the same order within each category, and
// each category is its own accumulator, so the meter evolves
// bit-identically to a live execution.
type TraceEntry struct {
	Cat Category
	N   uint32
	T   Seconds
}

// SumTrace re-sums a recorded trace: the breakdown of a fresh meter driven
// by exactly these additions, same operands in the same order within each
// category, so bit for bit what that meter would hold.
func SumTrace(adds []TraceEntry) Breakdown {
	var b Breakdown
	for _, e := range adds {
		sum := b.byCat[e.Cat] // a register, not memory, carries the run
		for range e.N {
			sum += e.T
		}
		b.byCat[e.Cat] = sum
	}
	return b
}

// Recorder turns a meter's additions into a charge trace: pass its Record
// to SetRecorder. Adds stores each run of equal additions to a category
// once — an addition merges into its category's last entry when T is
// equal — and Segs is the additions coalesced into lane segments in call
// order, as they arrive.
type Recorder struct {
	Adds []TraceEntry
	Segs []Segment
	// last[c] is 1 + the index in Adds of category c's last entry, 0 for
	// none.
	last [numCategories]int
}

// Reset empties r, keeping its storage.
func (r *Recorder) Reset() {
	r.Adds, r.Segs, r.last = r.Adds[:0], r.Segs[:0], [numCategories]int{}
}

// Record books one addition of t to c.
func (r *Recorder) Record(c Category, t Seconds) {
	r.Segs = appendSegment(r.Segs, LaneOf(c), t)
	if i := r.last[c] - 1; i >= 0 && r.Adds[i].T == t && r.Adds[i].N < math.MaxUint32 {
		r.Adds[i].N++
		return
	}
	r.Adds = append(r.Adds, TraceEntry{Cat: c, N: 1, T: t})
	r.last[c] = len(r.Adds)
}

// SetRecorder registers f to observe every subsequent addition in call
// order: each Add, and each addition of an AddRounds or AddTrace, which
// reach the meter under one lock, round-major, calling f once per
// addition. nil stops recording. Merge is NOT recorded — a recorded
// meter must only be driven through additions (core's tracer asserts
// this invariant with SumTrace after every trace). Core records only to
// capture a charge trace; a run books the trace with AddTrace on an
// unrecorded meter.
// f runs with the meter's lock held and must not call back into the meter.
func (m *Meter) SetRecorder(f func(Category, Seconds)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rec = f
}

// Add accrues t seconds to category c.
func (m *Meter) Add(c Category, t Seconds) {
	if t < 0 {
		panic(fmt.Sprintf("cost: negative time %v for %v", t, c))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byCat[c] += t
	if m.rec != nil {
		m.rec(c, t)
	}
}

// AddTrace accrues every addition of adds, entry by entry and T N times
// each, exactly as a loop of Add would: it is AddRounds(1, adds). It is
// the cost-only replay of a compiled plan's charge trace: core adds the
// trace to the machine meter, then to the running tenant's, with no
// recorder set, so each meter takes one lock per replay.
func (m *Meter) AddTrace(adds []TraceEntry) { m.AddRounds(1, adds) }

// AddRounds accrues round — each entry's T added N times — rounds times,
// round-major and entry-minor, exactly as that loop of Add would: same
// operands, same order, the recorder called once per addition in that
// order, but under one acquisition of the lock. rounds ≤ 0 adds nothing.
// A negative T panics before anything is added. It is how core books a
// step's charges, priced once per step, and replays a charge trace. Its
// body restates Add's rather than sharing a helper: the helper does not
// inline, and every Add pays for the call.
func (m *Meter) AddRounds(rounds int, round []TraceEntry) {
	for _, e := range round {
		if e.T < 0 {
			panic(fmt.Sprintf("cost: negative time %v for %v", e.T, e.Cat))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for range rounds {
		for _, e := range round {
			sum := &m.byCat[e.Cat]
			if e.N == 1 { // most entries: no loop
				*sum += e.T
				continue
			}
			for range e.N {
				*sum += e.T
			}
		}
	}
	if m.rec != nil { // a recorder may not read the meter, so it cannot tell
		for range rounds {
			for _, e := range round {
				for range e.N {
					m.rec(e.Cat, e.T)
				}
			}
		}
	}
}

// Get returns the accumulated time in category c.
func (m *Meter) Get(c Category) Seconds {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byCat[c]
}

// Total returns the sum over all categories.
func (m *Meter) Total() Seconds {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t Seconds
	for _, v := range m.byCat {
		t += v
	}
	return t
}

// Merge adds every category of other into m.
func (m *Meter) Merge(other *Meter) {
	o := other.Snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, v := range o.byCat {
		m.byCat[i] += v
	}
}

// Reset zeroes the meter.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byCat = [numCategories]Seconds{}
}

// Snapshot returns a copy of the meter's current state.
func (m *Meter) Snapshot() Breakdown {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Breakdown{byCat: m.byCat}
}

// Breakdown is an immutable snapshot of a Meter, used for reporting.
type Breakdown struct {
	byCat [numCategories]Seconds
}

// Get returns the time in category c.
func (b Breakdown) Get(c Category) Seconds { return b.byCat[c] }

// Total returns the total time.
func (b Breakdown) Total() Seconds {
	var t Seconds
	for _, v := range b.byCat {
		t += v
	}
	return t
}

// Sub returns b - earlier per category, clamping small negatives from
// floating-point noise to zero. It is used to isolate one phase's cost.
func (b Breakdown) Sub(earlier Breakdown) Breakdown {
	var out Breakdown
	for i := range b.byCat {
		d := b.byCat[i] - earlier.byCat[i]
		if d < 0 {
			d = 0
		}
		out.byCat[i] = d
	}
	return out
}

// Add returns b + other per category.
func (b Breakdown) Add(other Breakdown) Breakdown {
	var out Breakdown
	for i := range b.byCat {
		out.byCat[i] = b.byCat[i] + other.byCat[i]
	}
	return out
}

// Max returns the per-category maximum of b and other. It models
// perfectly overlapped parallel actors — the cluster layer folds its
// per-host breakdowns with Max, since the hosts of one collective run
// concurrently and the slowest determines the elapsed time.
func (b Breakdown) Max(other Breakdown) Breakdown {
	out := b
	for i, v := range other.byCat {
		if v > out.byCat[i] {
			out.byCat[i] = v
		}
	}
	return out
}

// CommTotal returns the time spent on communication categories (everything
// except application Kernel time).
func (b Breakdown) CommTotal() Seconds {
	return b.Total() - b.byCat[Kernel]
}

// String renders the breakdown as "total (cat=t, ...)" listing non-zero
// categories in descending order of contribution.
func (b Breakdown) String() string {
	type entry struct {
		c Category
		t Seconds
	}
	var entries []entry
	for i, v := range b.byCat {
		if v > 0 {
			entries = append(entries, entry{Category(i), v})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].t > entries[j].t })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.6gs (", float64(b.Total()))
	for i, e := range entries {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%.3g", e.c, float64(e.t))
	}
	sb.WriteString(")")
	return sb.String()
}
