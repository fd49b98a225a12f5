package core

import (
	"repro/internal/cost"
	"repro/internal/dpu"
	"repro/internal/host"
	"repro/internal/par"
)

// Backend executes schedule steps against the simulated substrate. Two
// implementations exist:
//
//   - the functional backend moves real bytes through the simulated bank
//     MRAMs and host registers (semantics verified against the reference
//     model by the core tests), and
//   - the cost-only backend skips all data movement and only drives the
//     cost.Meter, reproducing the functional backend's breakdown
//     bit-for-bit at a tiny fraction of the work — the engine for
//     paper-scale sweeps and Auto dry runs.
//
// Step charges declared in the schedule are applied by the shared
// executor for both backends, so the backends can only diverge on bus
// tallies and DPU-kernel accounting; exec_test.go pins those equal too.
type Backend interface {
	// Name identifies the backend ("functional" or "cost").
	Name() string
	// Functional reports whether the backend moves real bytes. When
	// false, host buffers are never dereferenced (only their sizes are
	// validated): rooted primitives write no results.
	Functional() bool

	// Step handlers receive the comm that executes the step and the host
	// the execution accounts against: the comm's own host normally, or its
	// one scratch tracer's, reset per trace, while a compile traces charges
	// (plan.go). A schedule holds no comm: the handlers pass c on to every
	// closure a step carries, so one lowered schedule runs on any comm of
	// its shape — every host of a cluster role at once. Functional
	// execution runs on c's own host for its running plan (Comm.cur),
	// adding the plan's arena base to the steps' arena-relative offsets.
	rotateBlocks(c *Comm, h *host.Host, st *StepRotateBlocks)
	bulk(c *Comm, h *host.Host, st *StepBulk)
	columnStream(c *Comm, h *host.Host, st *StepColumnStream)
}

// CostBackend returns the cost-only backend.
func CostBackend() Backend { return costBackend{} }

// executeOn is the single execution loop every collective goes through:
// it runs steps, a schedule's or a run of them, on backend b with c as the
// executing comm, accounting against host h.
func (c *Comm) executeOn(b Backend, h *host.Host, steps []Step) {
	for _, st := range steps {
		switch s := st.(type) {
		case *StepRotateBlocks:
			b.rotateBlocks(c, h, s)
		case *StepBulk:
			b.bulk(c, h, s)
		case *StepColumnStream:
			b.columnStream(c, h, s)
		case *StepHostCompute:
			applyCharges(h, s.Rounds, s.Charges)
		case *StepNetTransfer:
			h.ChargeNetRounds(s.Rounds, s.Bytes)
		case *StepSync:
			h.ChargeSync()
		}
	}
}

// applyCharges books charges rounds times, round by round, as that many
// Charge calls would: each priced once, all added in one meter call.
func applyCharges(h *host.Host, rounds int, charges []Charge) {
	round := make([]cost.TraceEntry, 0, 16) // on the stack, up to 16 charges
	for _, ch := range charges {
		round = append(round, h.Price(ch.Kind, ch.Bytes))
	}
	h.Meter().AddRounds(rounds, round)
}

// ---------------------------------------------------------------------
// Functional backend
// ---------------------------------------------------------------------

type functionalBackend struct{}

func (functionalBackend) Name() string     { return "functional" }
func (functionalBackend) Functional() bool { return true }

func (functionalBackend) rotateBlocks(c *Comm, h *host.Host, st *StepRotateBlocks) {
	if c.rotKern == nil { // bound here, not in New: a cost-only comm never pays for it
		c.rotKern = c.rotate
	}
	c.rotStep = st
	pes, ranks := st.p.launchLists()
	c.eng.Launch(dpu.LaunchSpec{
		PEs:        pes,
		GroupRanks: ranks,
		Category:   cost.PEMod,
		Workers:    c.workers,
	}, h.Meter(), c.rotKern)
}

// bulk books the step as the cost-only backend does — the same charges
// in the same order, so the two cannot drift — then moves its bytes one
// communication group at a time (Comm.stage).
func (functionalBackend) bulk(c *Comm, h *host.Host, st *StepBulk) {
	costBackend{}.bulk(c, h, st)
	if st.Modulate != nil {
		c.stage(st)
	}
}

// columnStream runs the epoch's segs in order: each seg's column loop is
// sharded across the worker pool on c's per-shard streaming contexts
// (segRunner), and the shard-local bus tallies merge
// deterministically before the next seg starts. The inter-seg barrier
// (par.Do returns only when every shard finished) preserves
// read-after-write dependencies between segs of fusion-coalesced epochs;
// everything still happens inside ONE bus epoch, so the charged bus time
// is identical to the serial engine's.
func (functionalBackend) columnStream(c *Comm, h *host.Host, st *StepColumnStream) {
	workers := c.workers
	h.BeginXfer()
	for _, sg := range st.segs {
		if sg.cols <= 0 {
			continue
		}
		c.ensureStreams(min(workers, sg.cols))
		c.srun.c, c.srun.body = c, sg.body
		par.Do(workers, sg.cols, &c.srun)
		h.MergeShards()
	}
	h.EndXfer()
	applyCharges(h, 1, st.Charges)
}

// ---------------------------------------------------------------------
// Cost-only backend
// ---------------------------------------------------------------------

type costBackend struct{}

func (costBackend) Name() string     { return "cost" }
func (costBackend) Functional() bool { return false }

// rotateBlocks charges the rotate-blocks kernel from the step alone: a
// PE whose rotation is zero exits at once, every other PE does the work
// rotateBlocksWork describes (the helper the functional kernel reports
// through, so the backends cannot drift), and the launch costs its
// slowest PE. Some rank of [0, n) rotates iff rank 1 does, so the launch
// is busy iff n > 1 and rotation(1) != 0.
func (costBackend) rotateBlocks(c *Comm, h *host.Host, st *StepRotateBlocks) {
	var instr, mramBytes int64
	if st.p.n > 1 && st.rotation(1) != 0 {
		instr, mramBytes = rotateBlocksWork(st.N * st.S)
	}
	c.eng.LaunchChargesUniform(dpu.LaunchSpec{PEs: st.p.pes, Category: cost.PEMod}, h.Meter(), instr, mramBytes)
}

func (costBackend) bulk(c *Comm, h *host.Host, st *StepBulk) {
	if st.Read {
		h.ChargeBulkRead(st.ReadPerPE)
	}
	applyCharges(h, 1, st.Charges)
	if st.Write {
		h.ChargeBulkWrite(st.WritePerPE)
	}
}

func (costBackend) columnStream(c *Comm, h *host.Host, st *StepColumnStream) {
	h.BeginXfer()
	h.TallyAllGroups(st.Reads + st.Writes)
	h.EndXfer()
	applyCharges(h, 1, st.Charges)
}
