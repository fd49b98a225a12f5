package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/cost"
)

// This file implements asynchronous plan execution: Submit enqueues a
// compiled plan on its Comm's submission queue and returns a Future. The
// queue drains on demand, on the calling goroutine: Step runs one plan,
// and a Future's blocking accessors, Flush and Submit's backpressure run
// plans until what they wait for holds, so every simulated number is a
// function of the call sequence. Execution of the schedule itself still
// serializes on the Comm (one simulated machine), but the *accounted
// elapsed time* no longer does: each plan is placed on the Comm's
// four-lane cost.Timeline, where plans with disjoint MRAM footprints
// overlap — one plan's PE-side reorder kernels and another's bus epochs
// occupy different lanes and run concurrently in simulated time, which is
// the overlap PID-Comm's speedup comes from. Plans whose footprints carry
// a data hazard (RAW, WAR or WAW on any per-PE region) are ordered: the
// dependent plan starts no earlier than its latest conflicting predecessor
// finishes.
//
// The work accounting is unchanged: the meter accrues exactly the charges
// a serial replay would, in the same order (the queue is FIFO), so async
// and serial execution produce bit-identical meters and — on the
// functional backend — bit-identical MRAM contents. Only Comm.Elapsed,
// the makespan of the timeline, shows the overlap.

// MaxPendingPlans bounds the per-Comm submission queue: once this many
// plans are in flight, Submit runs queued plans until a slot frees,
// providing backpressure to serving-style producers. Per-tenant bounds
// (TenantConfig.MaxPending) reject instead — see ShedPolicy.
const MaxPendingPlans = 1024

// SchedPolicy selects how a drain picks the next queued plan across
// buckets. Every value resolves to a Scheduler through the schedulers
// table (sched.go); the constants below name its four rows.
type SchedPolicy int

const (
	// SchedWFQ is start-time weighted fair queuing (the default): serve
	// the backlogged bucket with the smallest virtual time, FIFO within
	// a bucket. Throughput-fair, deadline-blind.
	SchedWFQ SchedPolicy = iota
	// SchedEDF is earliest-deadline-first layered on the WFQ buckets:
	// among the hazard-free candidates near every bucket's head, pick
	// the one with the earliest deadline (no deadline sorts last; ties
	// fall back to submission order).
	SchedEDF
	// SchedFIFO serves the globally oldest queued plan regardless of
	// bucket — plain submission order, the pre-tenancy behavior.
	// Fairness- and deadline-blind; useful as the reordering baseline.
	SchedFIFO
	// SchedLookahead is the makespan-aware list scheduler: among the
	// hazard-free candidates within the lookahead window of every
	// bucket's head, serve the one minimizing the projected makespan of
	// a dry placement on a private projection timeline — reordering
	// independent plans so one plan's PE or CPU passes hide under
	// another's bus epochs. A WFQ virtual-time bound keeps any bucket
	// from starving; results stay bit-identical to serial execution
	// (hazard order is a funnel invariant — only who-runs-next changes).
	SchedLookahead
)

// Pending returns the number of submitted plans not yet completed
// (queued or executing).
func (c *Comm) Pending() int {
	c.asyncMu.Lock()
	defer c.asyncMu.Unlock()
	return c.asyncPending
}

// Step pops the next plan under the comm's scheduling policy and
// executes it synchronously, returning its (completed) future. Returns
// nil when the queue is empty. A plan another goroutine is executing
// completes first.
func (c *Comm) Step() *Future {
	c.asyncMu.Lock()
	defer c.asyncMu.Unlock()
	if c.executing {
		c.waitLocked(func() bool { return !c.executing })
	}
	f := c.pickLocked()
	if f != nil {
		c.runLocked(f)
	}
	return f
}

// span is one per-PE MRAM byte range [off, off+n) a plan touches. All PEs
// of a Comm use the same offsets, so one span describes the whole
// machine's footprint for that range.
type span struct{ off, n int }

// planRegions is a shape row's per-PE MRAM footprint relative to the
// arena base, used for hazard detection between submitted plans: each
// member's source and destination, in order; a collective's two lie in
// buf. A source region the optimized levels consume (PE-assisted
// reordering rotates it in place) counts as written: a write subsumes a
// read for hazard purposes.
type planRegions struct {
	all []region
	buf [2]region
}

// region is one span of a footprint, and whether the plan writes it.
type region struct {
	span
	write bool
}

// set records the members' footprint; an empty span is none.
func (r *planRegions) set(specs []planSpec) {
	r.all = r.buf[:0]
	if len(specs) > 1 {
		r.all = make([]region, 0, 2*len(specs))
	}
	for _, sp := range specs {
		if sp.src.n > 0 {
			r.all = append(r.all, region{sp.src, sp.consumed})
		}
		if sp.dst.n > 0 {
			r.all = append(r.all, region{sp.dst, true})
		}
	}
}

// conflicts reports whether two plans' footprints — each its row's
// regions at its own arena base — carry a data hazard: a RAW, WAR or WAW
// dependence on any region.
func (cp *CompiledPlan) conflicts(o *CompiledPlan) bool {
	d := o.base - cp.base
	for _, a := range cp.regs.all {
		for _, b := range o.regs.all {
			if (a.write || b.write) && overlap(a.off, a.n, b.off+d, b.n) {
				return true
			}
		}
	}
	return false
}

// placedPlan is a placement visible to hazard checks: later conflicting
// plans start after end; bound is the latest end of it and all older ones.
type placedPlan struct {
	cp         *CompiledPlan
	end, bound cost.Seconds
}

// maxFrontier bounds the live placements of a frontier (execSubmitted).
const maxFrontier = 256

// frontier holds a Comm's placements in insertion order, n from head on
// in a ring of maxFrontier+1; the dead ones (ended at or behind the
// barrier) stay until it fills. top is the latest end placed. ends[lo:] are
// the live ends, sorted: the barrier only rises, so dead ends are a prefix.
type frontier struct {
	ring        []placedPlan
	head, n, lo int
	top         cost.Seconds
	ends        []cost.Seconds
}

// at returns the j-th oldest placement.
func (f *frontier) at(j int) *placedPlan {
	if j += f.head; j >= len(f.ring) {
		j -= len(f.ring)
	}
	return &f.ring[j]
}

// Future is the handle of one submitted plan execution. All accessors
// except Done block until the execution completes, stepping the queue
// themselves until it has: nothing else drains it. A Future is safe for
// concurrent use; what it reports never changes once set. A Gather's or
// Reduce's results are its plan's (Plan().Results()), which the plan's
// next run overwrites. Futures are carved from per-Comm chunks and never
// reused: a handle stays valid for as long as it is held, and pins at most
// its chunk (futureChunk-1 neighbours and their plans) until dropped.
type Future struct {
	cp *CompiledPlan
	// seq is the global submission sequence number: the FIFO policy's
	// order and the deadline picks' tie-break. Guarded by asyncMu.
	seq uint64

	// done is stored once, after the results below, under asyncMu
	// (finishLocked, or rejectLocked before anyone else has the handle);
	// a waiter that blocks parks on the comm's asyncCond (waitLocked).
	done atomic.Bool

	// notBefore and deadline are the serving attributes carried from
	// SubmitOptions: the plan's simulated arrival time (its placement
	// starts no earlier) and its absolute deadline (0 = none; consulted
	// by the EDF pick). Immutable after submission.
	notBefore cost.Seconds
	deadline  cost.Seconds

	// Set exactly once before done is stored.
	err        error
	start, end cost.Seconds
}

// futureChunk is the number of Futures per chunk: a submission costs
// 1/futureChunk of an object, a comm that submits once under 7 KB.
const futureChunk = 64

// carveLocked returns the next Future of the comm's chunk, starting a
// fresh chunk when one is used up. Callers hold asyncMu.
func (c *Comm) carveLocked(cp *CompiledPlan, o SubmitOptions) *Future {
	if len(c.futs) == 0 {
		c.futs = make([]Future, futureChunk)
	}
	f := &c.futs[0]
	c.futs = c.futs[1:]
	f.cp, f.notBefore, f.deadline = cp, o.NotBefore, o.Deadline
	return f
}

// Done reports without blocking whether the execution has completed. A
// queued plan runs only when someone drains the queue, so a future is done
// once someone has waited on a future, flushed or stepped past it.
func (f *Future) Done() bool { return f.done.Load() }

// wait blocks until the execution completes (waitLocked).
func (f *Future) wait() {
	if f.Done() {
		return
	}
	c := f.cp.owner.c
	c.asyncMu.Lock()
	c.waitLocked(f.Done)
	c.asyncMu.Unlock()
}

// waitLocked is the queue's one wait, behind Future.wait, Flush and
// submit's backpressure: it returns once done holds. Nothing else drains
// the queue, so the waiter picks and runs the next plan itself; while
// another goroutine executes a plan, or with nothing to pick, it parks on
// asyncCond until a completion broadcasts. done is evaluated under
// asyncMu, so it cannot flip between the check and the park. Callers hold
// asyncMu; it is released while a plan runs or the waiter is parked.
func (c *Comm) waitLocked(done func() bool) {
	for !done() {
		if !c.executing {
			if f := c.pickLocked(); f != nil {
				c.runLocked(f)
				continue
			}
		}
		c.parked++
		c.asyncCond.Wait()
		c.parked--
	}
}

// Wait blocks until the execution completes and returns its cost
// breakdown (what this run charged the meter: the plan's trace total, or
// nothing if it failed or was dropped) and error. Wait may be called any
// number of times and from multiple goroutines.
func (f *Future) Wait() (cost.Breakdown, error) {
	f.wait()
	if f.err != nil {
		return cost.Breakdown{}, f.err
	}
	return f.cp.tr.total, nil
}

// Err blocks until the execution completes and returns its error, if any.
// A plan that fails mid-schedule surfaces its error here (and via Wait)
// exactly once per Future; later submissions on the same Comm are
// unaffected.
func (f *Future) Err() error {
	f.wait()
	return f.err
}

// Cost blocks until the execution completes and returns the breakdown it
// charged. Unlike CompiledPlan.Cost (the predicted per-run cost), this is
// the measured charge of this particular run.
func (f *Future) Cost() cost.Breakdown {
	bd, _ := f.Wait()
	return bd
}

// Window blocks until the execution completes and returns the plan's
// interval [start, end) on the Comm's elapsed-time timeline. Dependent
// plans have non-overlapping windows in hazard order; independent plans'
// windows may overlap.
func (f *Future) Window() (start, end cost.Seconds) {
	f.wait()
	return f.start, f.end
}

// Plan returns the compiled plan this future executes.
func (f *Future) Plan() *CompiledPlan { return f.cp }

// subQueue is one weighted-fair submission bucket: one tenant's queue.
// Within a bucket plans execute in FIFO submission order — which is what
// preserves the hazard ordering guarantees, since data hazards can only
// exist within a bucket (tenant arenas are disjoint). Across buckets the
// comm's scheduling policy picks (sched.go); every service advances the
// bucket's vtime by the plan's predicted cost over the bucket's weight,
// so under the default WFQ policy each backlogged bucket b receives a
// weight_b / Σ weights share of the simulated machine (start-time
// weighted fair queuing); the lookahead policy's starvation bound reads
// the same clock. All fields are guarded by the Comm's asyncMu.
type subQueue struct {
	q      []*Future
	weight float64
	vtime  float64
}

// Submit enqueues one replay of the plan on its owning tenant's bucket of
// the machine's submission queue and returns immediately with a Future.
// The plan runs when the queue is drained: by Step, Flush, a blocking
// accessor of this or a later future, or a submission that finds
// MaxPendingPlans already in flight and steps the queue to free a slot.
// Plans of one tenant execute in submission order; across tenants the
// weighted-fair scheduler interleaves. The elapsed-time timeline overlaps
// plans with disjoint MRAM footprints and orders plans with data hazards
// (see Comm.Elapsed).
//
// The plan is admitted against its tenant's quota and overload bound at
// submission: a rejected plan returns an already-completed Future whose
// Err carries the admission error, and nothing is enqueued.
//
// Plans read (Scatter, Broadcast) or write (Gather, Reduce) their host
// buffers when the plan *executes*, not when it is submitted: do not
// refill or read them until the future completes, and read a rooted
// result (Results) before the plan is submitted again.
func (cp *CompiledPlan) Submit() *Future { return cp.owner.c.submit(cp, SubmitOptions{}) }

// SubmitOptions carries the serving attributes of one submission.
type SubmitOptions struct {
	// NotBefore is the plan's simulated arrival time: its timeline
	// placement starts no earlier, so sojourn time (completion minus
	// arrival) is measured against the open-loop arrival process rather
	// than the submission call.
	NotBefore cost.Seconds
	// Deadline is the absolute simulated-time deadline (0 = none). The
	// EDF scheduling policy (SchedEDF) serves earlier deadlines first;
	// a missed deadline is observable as Window end > Deadline.
	Deadline cost.Seconds
}

// SubmitOpts is Submit with explicit serving attributes (arrival time,
// deadline). See CompiledPlan.Submit for queue semantics.
func (cp *CompiledPlan) SubmitOpts(o SubmitOptions) *Future { return cp.owner.c.submit(cp, o) }

// submit enqueues a plan execution in one asyncMu section: admit, wait for
// a queue slot, re-check closure, check overload, enqueue. A submission
// allocates nothing of its own: its Future is carved.
func (c *Comm) submit(cp *CompiledPlan, o SubmitOptions) *Future {
	t := cp.owner
	c.asyncMu.Lock()
	defer c.asyncMu.Unlock()
	f := c.carveLocked(cp, o)
	if err := t.admitLocked(cp.tr.total.Total()); err != nil {
		return c.rejectLocked(f, false, err)
	}
	// Backpressure: the pending count is the queue slot. The wait is the
	// only stretch of the section that releases asyncMu.
	c.waitLocked(func() bool { return c.asyncPending < MaxPendingPlans })
	// Re-check closure in the section that enqueues, since the wait may
	// have released asyncMu: a Close that set the flag by now is refused
	// here, one that sets it later drains this plan before it retires the
	// bucket, so a closed tenant's bucket stays empty.
	if t.closed.Load() {
		return c.rejectLocked(f, true, fmt.Errorf("%w: tenant %q", ErrTenantClosed, t.name))
	}
	// Per-tenant overload admission: beyond MaxPending in-flight plans,
	// shed the oldest queued one if the tenant's ShedPolicy says so, else
	// reject this submission.
	if err := t.overloadedLocked(); err != nil {
		if t.shed != ShedOldest || len(t.sq.q) == 0 {
			return c.rejectLocked(f, true, err)
		}
		c.completeDroppedLocked(t.sq.remove(0), err)
	}
	t.inflight++
	q := &t.sq
	c.seqCounter++
	f.seq = c.seqCounter
	if len(q.q) == 0 && q.vtime < c.vclock {
		// A bucket waking from idle joins at the current virtual clock:
		// it competes fairly from now on instead of burning accumulated
		// "credit" in a burst that would starve the busy buckets.
		q.vtime = c.vclock
	}
	q.q = append(q.q, f)
	c.asyncPending++
	return f
}

// rejectLocked is the one epilogue of a submission refused before it was
// enqueued, when nobody can be waiting on f yet: it refunds an admitted
// plan's quota in place and completes f with err. Callers hold asyncMu.
func (c *Comm) rejectLocked(f *Future, admitted bool, err error) *Future {
	if admitted {
		f.cp.owner.admitted -= f.cp.tr.total.Total()
	}
	f.err = err
	f.done.Store(true)
	return f
}

// remove pops the future at index i, copying the tail down so the
// bucket's backing array is reused rather than stranded.
func (q *subQueue) remove(i int) *Future {
	f := q.q[i]
	q.q = slices.Delete(q.q, i, i+1)
	return f
}

// completeDroppedLocked finishes a queued future without executing it
// (overload shedding): it refunds the quota admission in place and
// completes the future with err. Its Window stays zero — it never reached
// the timeline. Callers hold asyncMu and have already removed the future
// from its bucket.
func (c *Comm) completeDroppedLocked(f *Future, err error) {
	f.cp.owner.admitted -= f.cp.tr.total.Total()
	f.err = err
	c.finishLocked(f)
}

// finishLocked is the single completion path of an enqueued future,
// executed or dropped, and runs exactly once for it: it publishes the
// results set before the call, releases the in-flight and pending counts
// (the latter frees the queue slot) and broadcasts asyncCond, waking every
// parked waiter to re-check its condition. Callers hold asyncMu.
func (c *Comm) finishLocked(f *Future) {
	f.done.Store(true)
	f.cp.owner.inflight--
	c.asyncPending--
	c.asyncCond.Broadcast()
}

// pickLocked pops the next future through the policy funnel: it
// enumerates the hazard-free plans within the policy's window of every
// bucket's head, hands them to the policy's Pick, and performs the
// bookkeeping every policy shares — removing the pick from its bucket
// and advancing the weighted-fair virtual clock by the plan's predicted
// cost over the bucket's weight. Returns nil when every bucket is
// empty. Callers hold asyncMu.
//
// Hazard safety is a funnel invariant no policy can break: a plan is a
// candidate only if no plan queued before it in its own bucket conflicts
// with it, so conflicting plans always execute in submission order and
// byte-level results are independent of the policy — it only chooses
// among independent plans. Plans of two buckets never conflict: a bucket
// is one live tenant's, live tenant arenas are disjoint, and Tenant.Close
// drains its bucket before it frees its arena for reuse.
// Every bucket's head is a candidate (nothing is queued before it), hence
// the pick cannot return nil while work is queued.
func (c *Comm) pickLocked() *Future {
	s := c.sched
	win := max(s.Window(c.lookahead), 1)
	cands := c.cands[:0]
	for _, t := range c.tenants {
		q := &t.sq
		depth := min(len(q.q), win)
		for i := 0; i < depth; i++ {
			f := q.q[i]
			if slices.ContainsFunc(q.q[:i], func(o *Future) bool { return f.cp.conflicts(o.cp) }) {
				continue
			}
			cands = append(cands, Candidate{
				F: f, VTime: q.vtime, Weight: q.weight,
				q: q, idx: i,
			})
		}
	}
	c.cands = cands // keep the grown backing array for the next pick
	if len(cands) == 0 {
		return nil
	}
	k := s.Pick(cands)
	if k < 0 || k >= len(cands) {
		panic(fmt.Sprintf("core: scheduler %T picked candidate %d of %d", s, k, len(cands)))
	}
	pick := cands[k]
	q := pick.q
	q.remove(pick.idx)
	c.vclock = q.vtime
	q.vtime += float64(pick.F.cp.tr.total.Total()) / q.weight
	for i := range cands {
		cands[i] = Candidate{} // drop Future references from the scratch array
	}
	return pick.F
}

// edfLess orders two candidate futures for the deadline-aware picks:
// earlier deadline first, a deadline beats no deadline, ties fall back
// to submission order (which keeps the pick deterministic and degrades
// to global FIFO when nothing carries a deadline). SchedEDF minimizes
// it outright; SchedLookahead uses it to break equal-makespan ties.
func edfLess(a, b *Future) bool {
	switch {
	case a.deadline > 0 && b.deadline > 0 && a.deadline != b.deadline:
		return a.deadline < b.deadline
	case a.deadline > 0 && b.deadline <= 0:
		return true
	case b.deadline > 0 && a.deadline <= 0:
		return false
	}
	return a.seq < b.seq
}

// runLocked executes one picked future with asyncMu released and
// completes it. It holds executing for the whole run, so picked plans
// execute one at a time in pick order, the order hazard safety rests on
// (pickLocked). A mid-schedule backend error is captured into f.err by
// execSubmitted's recover and takes the same completion path
// (finishLocked), so a failing plan can neither complete twice nor leak
// or double-release its slot. Callers hold asyncMu.
func (c *Comm) runLocked(f *Future) {
	c.executing = true
	c.asyncMu.Unlock()
	f.start, f.end, f.err = c.execSubmitted(f.cp, f.notBefore)
	c.asyncMu.Lock()
	c.executing = false
	c.finishLocked(f)
}

// execSubmitted places one plan on the timeline after the placements it
// conflicts with (newest first, only as far back as one could delay it) and
// runs it under the execution lock. A backend panic mid-schedule becomes
// the returned error; the plan's window stays booked (its partial charges
// stay on the meter) and dependents stay ordered after it.
func (c *Comm) execSubmitted(cp *CompiledPlan, notBefore cost.Seconds) (start, end cost.Seconds, err error) {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			err = cp.fail(r)
		}
	}()

	// The plan starts after the latest end of the placements it conflicts
	// with, a max of any scan order: newest first, the scan stops at a
	// bound no later than earliest (never before the barrier).
	earliest := c.asyncBase
	if notBefore > earliest {
		// Serving submissions start no earlier than their simulated
		// arrival time (SubmitOptions.NotBefore).
		earliest = notBefore
	}
	if c.front == nil { // ends' slack moves its dead prefix once per 30-odd placements
		c.front = &frontier{ring: make([]placedPlan, maxFrontier+1), ends: make([]cost.Seconds, 0, maxFrontier*9/8)}
	}
	f := c.front
	for j := f.n - 1; j >= 0 && f.at(j).bound > earliest; j-- {
		if pl := f.at(j); pl.end > earliest && cp.conflicts(pl.cp) {
			earliest = pl.end
		}
	}
	// Past maxFrontier live placements (a flow that never flushes), the
	// oldest retires by raising the barrier: one at most, from a full ring.
	for f.lo < len(f.ends) && f.ends[f.lo] <= c.asyncBase {
		f.lo++
	}
	if len(f.ends)-f.lo > maxFrontier {
		c.asyncBase = f.at(0).end
		f.head, f.n = (f.head+1)%len(f.ring), f.n-1
		c.tl.SetFloor(c.asyncBase)
		earliest = max(earliest, c.asyncBase)
	}
	start, end = c.tl.Place(earliest, cp.tr.segs)
	if f.n == len(f.ring) { // full: close up over the dead placements
		live := 0
		for j := 0; j < f.n; j++ {
			if pl := f.at(j); pl.end > c.asyncBase {
				*f.at(live) = *pl
				live++
			}
		}
		f.n = live
	}
	if len(f.ends) == cap(f.ends) {
		f.ends, f.lo = append(f.ends[:0], f.ends[f.lo:]...), 0
	}
	f.top = max(f.top, end)
	*f.at(f.n) = placedPlan{cp: cp, end: end, bound: f.top}
	f.n++
	f.ends = append(f.ends, end) // a new end is mostly the latest: sift it down
	for i := len(f.ends) - 1; i > f.lo && f.ends[i-1] > end; i-- {
		f.ends[i], f.ends[i-1] = f.ends[i-1], end
	}

	c.runScheduleLocked(cp)
	return start, end, nil
}

// placeSerialLocked runs segs on the timeline as a barrier (Serial, which
// also raises the timeline's pruning floor) and advances the submission
// barrier to its finish — the one way every serial path (Run,
// ExtendElapsed, Flush) closes the overlap window. Callers hold execMu.
func (c *Comm) placeSerialLocked(segs []cost.Segment) {
	c.asyncBase = c.tl.Serial(segs)
}

// Flush blocks until every plan submitted so far has completed, then
// closes the overlap window: plans submitted afterwards start no earlier
// than the current elapsed time. Use it as a barrier before touching MRAM
// directly (SetPEBuffer/GetPEBuffer, application kernels) while
// submissions may be in flight.
func (c *Comm) Flush() {
	c.asyncMu.Lock()
	c.waitLocked(func() bool { return c.asyncPending == 0 })
	c.asyncMu.Unlock()
	c.execMu.Lock()
	c.placeSerialLocked(nil)
	if f := c.front; f != nil {
		clear(f.ring) // a flushed machine pins no plan
		f.head, f.n, f.lo, f.ends = 0, 0, 0, f.ends[:0]
	}
	c.execMu.Unlock()
}

// Elapsed returns the overlap-aware simulated elapsed time of everything
// executed on this Comm so far: serial runs append to the timeline,
// submitted plans overlap where their MRAM footprints allow. For fully
// serial workloads Elapsed equals the meter total; with async submission
// it is lower by exactly the overlap won.
func (c *Comm) Elapsed() cost.Seconds {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	return c.tl.Elapsed()
}

// ExtendElapsed places b's per-lane time after everything currently on
// the timeline — a barrier. It accounts work charged outside the
// collective engine (application kernel launches, host pre/post-
// processing) on the elapsed-time clock; the meter is not touched.
func (c *Comm) ExtendElapsed(b cost.Breakdown) {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	c.extSegs = b.AppendSegments(c.extSegs[:0])
	c.placeSerialLocked(c.extSegs)
}
