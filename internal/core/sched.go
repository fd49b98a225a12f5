package core

import (
	"fmt"
	"math"

	"repro/internal/cost"
)

// This file is the scheduler seam of the submission queue: a static
// table (schedulers) maps SchedPolicy values to Scheduler
// implementations. pickLocked (async.go) is the single funnel: it walks
// the live tenants, enumerates the hazard-free candidates near the head of
// each one's bucket (no earlier plan of the bucket conflicts; live tenant
// arenas are disjoint, and Close drains a bucket before it frees the
// arena), hands them to the active policy's Pick, and performs the shared
// bookkeeping (queue removal, weighted-fair virtual-time advance). A
// policy therefore only decides *who runs next among independent plans* —
// hazard ordering, fairness accounting and byte-level results are funnel
// invariants no policy can break.
//
// Four policies are built in: FIFO (global submission order), WFQ
// (weighted fair across buckets, the default), EDF (earliest deadline
// among windowed candidates) and Lookahead (makespan-aware list
// scheduling: dry-place each candidate's charge trace on a projection
// timeline and serve the one minimizing the projected makespan, under a
// WFQ virtual-time starvation bound).

// DefaultLookahead is the default candidate window: how deep into each
// bucket the window-scanning policies (EDF, Lookahead) consider plans.
// Deep scanning is pointless — a plan can only jump ahead of queue-mates
// it does not conflict with, and consecutive plans of one tenant usually
// reuse the same arena regions — and the window bounds the candidates,
// at most buckets x window: an EDF pick compares each once, a lookahead
// pick dry-places eligible x candidates plans. Config.Lookahead
// overrides it per Comm.
const DefaultLookahead = 32

// Candidate is one hazard-free queued plan offered to a Scheduler's Pick:
// no plan queued before it in its live tenant's bucket conflicts with it,
// and no plan of another bucket can (live tenant arenas are disjoint), so
// serving it next cannot reorder a data dependence.
type Candidate struct {
	// F is the queued future.
	F *Future
	// VTime and Weight are the owning bucket's weighted-fair virtual
	// time and service weight at pick time.
	VTime  float64
	Weight float64

	q   *subQueue // owning bucket, for the funnel's removal bookkeeping
	idx int       // position within q.q
}

// Scheduler picks the next plan to serve among independent candidates.
// Implementations are rows of the schedulers table, instantiated per
// Comm (a Scheduler may keep state across picks — the lookahead policy
// keeps a projection timeline). Calls are serialized under the Comm's
// submission lock; implementations need no locking of their own.
type Scheduler interface {
	// Window bounds how deep into each bucket the funnel enumerates
	// candidates, given the Comm's configured lookahead
	// (Config.Lookahead). Head-only policies return 1.
	Window(lookahead int) int
	// Pick returns the index into cands of the plan to serve next.
	// cands is never empty, is ordered by bucket then queue position,
	// and contains only hazard-free plans. Pick must not retain cands —
	// the backing array is reused across picks.
	Pick(cands []Candidate) int
}

// SchedSpec describes one submission scheduling policy.
type SchedSpec struct {
	// Policy is the enum value the policy resolves from.
	Policy SchedPolicy
	// Name is the parseable policy name ("wfq", "edf", ...).
	Name string
	// Desc is a one-line description for policy tables (pidinfo -sched).
	Desc string
	// New creates a fresh instance; called once per Comm, by New.
	New func() Scheduler
}

// schedulers is the scheduling-policy table, indexed by SchedPolicy.
var schedulers = [...]SchedSpec{
	SchedWFQ: {Policy: SchedWFQ, Name: "wfq",
		Desc: "weighted fair across buckets (smallest virtual time; default)",
		New:  func() Scheduler { return wfqSched{} }},
	SchedEDF: {Policy: SchedEDF, Name: "edf",
		Desc: "earliest deadline first among windowed hazard-free candidates",
		New:  func() Scheduler { return edfSched{} }},
	SchedFIFO: {Policy: SchedFIFO, Name: "fifo",
		Desc: "global submission order (the pre-tenancy queue)",
		New:  func() Scheduler { return fifoSched{} }},
	SchedLookahead: {Policy: SchedLookahead, Name: "lookahead",
		Desc: "makespan-aware reordering by dry-placed projection (WFQ-bounded)",
		New:  func() Scheduler { return &lookaheadSched{} }},
}

// SchedPolicies returns the policy values in ascending value order.
func SchedPolicies() []SchedPolicy {
	out := make([]SchedPolicy, len(schedulers))
	for i := range out {
		out[i] = SchedPolicy(i)
	}
	return out
}

// SchedSpecs returns the policy specs in ascending value order — the
// table pidinfo -sched prints.
func SchedSpecs() []SchedSpec { return append([]SchedSpec(nil), schedulers[:]...) }

// ParseSchedPolicy parses a scheduling policy name as printed by
// SchedPolicy.String ("wfq", "edf", "fifo", "lookahead").
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	names := make([]string, len(schedulers))
	for i, sp := range schedulers {
		if sp.Name == s {
			return sp.Policy, nil
		}
		names[i] = sp.Name
	}
	return 0, fmt.Errorf("core: unknown scheduling policy %q (want one of %v)", s, names)
}

// String names the policy for tables and diagnostics.
func (p SchedPolicy) String() string {
	if p >= 0 && int(p) < len(schedulers) {
		return schedulers[p].Name
	}
	return fmt.Sprintf("SchedPolicy(%d)", int(p))
}

// argmin returns the index of the first candidate that no other is less
// than: the strict less with candidates in bucket order breaks ties
// toward the earliest-offered one.
func argmin(cands []Candidate, less func(a, b *Candidate) bool) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if less(&cands[i], &cands[best]) {
			best = i
		}
	}
	return best
}

// fifoSched serves the globally oldest queued plan: plain submission
// order across all buckets, the pre-tenancy behavior. Head-only — a
// FIFO pick never jumps a queue-mate.
type fifoSched struct{}

func (fifoSched) Window(int) int { return 1 }
func (fifoSched) Pick(cands []Candidate) int {
	return argmin(cands, func(a, b *Candidate) bool { return a.F.seq < b.F.seq })
}

// wfqSched is start-time weighted fair queuing: serve the backlogged
// bucket with the smallest virtual time. Head-only (FIFO within a
// bucket); ties go to the earliest-created bucket, so a fresh Comm
// degenerates to plain FIFO.
type wfqSched struct{}

func (wfqSched) Window(int) int { return 1 }
func (wfqSched) Pick(cands []Candidate) int {
	return argmin(cands, func(a, b *Candidate) bool { return a.VTime < b.VTime })
}

// edfSched is earliest-deadline-first over the full candidate window:
// among every bucket's hazard-free candidates, serve the earliest
// deadline (a deadline beats none; ties fall back to submission order —
// see edfLess).
type edfSched struct{}

func (edfSched) Window(k int) int { return k }
func (edfSched) Pick(cands []Candidate) int {
	return argmin(cands, func(a, b *Candidate) bool { return edfLess(a.F, b.F) })
}

// lookaheadSlack bounds starvation under the lookahead policy, in units
// of the largest candidate's weighted share: a candidate whose bucket
// virtual time has fallen more than lookaheadSlack shares behind the
// least-served candidate bucket excludes all fresher buckets from the
// pick, so a bucket the makespan greedy never favors is still served
// within a bounded number of picks (see TestLookaheadStarvationBound).
const lookaheadSlack = 8

// lookaheadCheckpoint bounds the projection timeline: every this many
// bookings the projection's pruning floor advances to its makespan,
// dropping interval history the first-fit search would otherwise scan
// forever. Projection placements after a checkpoint no longer backfill
// gaps before it — acceptable for a scoring heuristic.
const lookaheadCheckpoint = 128

// lookaheadSched is the makespan-aware list scheduler. It keeps a
// private projection cost.Timeline of the plans it has served so far
// and, at each pick, scores every eligible candidate by dry-placing its
// cached charge trace first — followed by all other candidates — on the
// projection and rolling it back; the candidate minimizing the projected
// makespan wins (ties fall to edfLess, so deadlines still order equal-
// makespan picks — the EDF x lookahead composition internal/serve runs).
// Scoring is joint, not greedy-single: placing the remaining candidates
// too is what makes the scheduler prefer the plan whose lanes the others
// hide under, rather than simply the cheapest plan.
//
// The projection deliberately approximates the Comm's real timeline (it
// starts plans at their arrival time, not at the hazard frontier): it
// exists to *rank* candidate orders, and drift affects all candidates of
// a pick equally. Results stay bit-identical to serial execution because
// the funnel only ever offers hazard-free candidates.
type lookaheadSched struct {
	proj   cost.Timeline
	booked int
}

func (s *lookaheadSched) Window(k int) int { return k }

func (s *lookaheadSched) Pick(cands []Candidate) int {
	best := 0
	if len(cands) > 1 {
		best = s.pickBest(cands)
	}
	s.book(cands[best].F)
	return best
}

func (s *lookaheadSched) pickBest(cands []Candidate) int {
	// Starvation bound: restrict the pick to candidates whose bucket
	// virtual time is within lookaheadSlack weighted shares of the
	// least-served candidate bucket. The filter is never empty — the
	// vmin candidate always passes it.
	vmin := math.Inf(1)
	maxShare := 0.0
	for _, cd := range cands {
		if cd.VTime < vmin {
			vmin = cd.VTime
		}
		if sh := float64(cd.F.cp.tr.total.Total()) / cd.Weight; sh > maxShare {
			maxShare = sh
		}
	}
	best := -1
	var bestFinish cost.Seconds
	for i, cd := range cands {
		if cd.VTime > vmin+lookaheadSlack*maxShare {
			continue
		}
		fin := s.score(cands, i)
		if best < 0 || fin < bestFinish ||
			(fin == bestFinish && edfLess(cands[i].F, cands[best].F)) {
			best, bestFinish = i, fin
		}
	}
	return best
}

// score dry-places candidate i first, then every other candidate in
// offer order, on the projection, and rolls it back; it returns the
// makespan the placements reached. The hypothetical order is
// hazard-valid: candidates are pairwise independent (each conflicts with
// no plan queued before it in its bucket, and plans of two buckets never
// conflict).
func (s *lookaheadSched) score(cands []Candidate, i int) cost.Seconds {
	s.proj.Mark()
	s.proj.Place(cands[i].F.notBefore, cands[i].F.cp.tr.segs)
	for j, cd := range cands {
		if j != i {
			s.proj.Place(cd.F.notBefore, cd.F.cp.tr.segs)
		}
	}
	fin := s.proj.Elapsed()
	s.proj.Rollback()
	return fin
}

// book commits the served plan to the projection.
func (s *lookaheadSched) book(f *Future) {
	s.proj.Place(f.notBefore, f.cp.tr.segs)
	if s.booked++; s.booked%lookaheadCheckpoint == 0 {
		s.proj.SetFloor(s.proj.Elapsed())
	}
}
