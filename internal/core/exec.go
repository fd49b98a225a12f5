package core

import (
	"repro/internal/cost"
	"repro/internal/dpu"
	"repro/internal/host"
	"repro/internal/par"
)

// Backend is what a comm's runs do besides booking. Two implementations
// exist:
//
//   - the functional backend moves real bytes through the simulated bank
//     MRAMs and host buffers (semantics verified against the reference
//     model by the core tests), and
//   - the cost-only backend moves nothing, on a phantom system — the
//     engine for paper-scale sweeps and Auto dry runs.
//
// Neither books anything. Every run, on either backend, books its row's
// charge trace (runScheduleLocked): the meter additions and bus
// statistics that the one booking loop, executeOn, recorded when the row
// was built. A functional run then walks the schedule with the backend's
// mover, so the two backends cannot disagree on what a run costs.
type Backend interface {
	// Name identifies the backend ("functional" or "cost").
	Name() string
	// Functional reports whether the backend moves real bytes. When
	// false, host buffers are never dereferenced (only their sizes are
	// validated): rooted primitives write no results.
	Functional() bool

	// move moves step st's bytes on c, the comm that executes it, for
	// c's running plan (Comm.cur), adding the plan's arena base to the
	// step's arena-relative offsets. A schedule holds no comm, so one
	// lowered schedule runs on any comm of its shape — every host of a
	// cluster role at once. Steps that only book move nothing.
	move(c *Comm, st Step)
}

// CostBackend returns the cost-only backend.
func CostBackend() Backend { return costBackend{} }

// executeOn is the one booking loop: it books steps, a schedule's or a
// run of them, on host h, as a run of them costs. The shape table's
// tracer runs it to record a row's charge trace (plan.go), which every
// run of the row books.
func (c *Comm) executeOn(h *host.Host, steps []Step) {
	for _, st := range steps {
		switch s := st.(type) {
		case *StepRotateBlocks:
			c.chargeRotate(h, s)
		case *StepBulk:
			if s.Read {
				h.ChargeBulkRead(s.ReadPerPE)
			}
			applyCharges(h, 1, s.Charges)
			if s.Write {
				h.ChargeBulkWrite(s.WritePerPE)
			}
		case *StepColumnStream:
			h.BeginXfer()
			h.TallyAllGroups(s.Reads + s.Writes)
			h.EndXfer()
			applyCharges(h, 1, s.Charges)
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

// chargeRotate books the rotate-blocks kernel from the step alone: a PE
// whose rotation is zero exits at once, every other PE does the work
// rotateBlocksWork describes, and the launch costs its slowest PE.
func (c *Comm) chargeRotate(h *host.Host, st *StepRotateBlocks) {
	var instr, mramBytes int64
	if st.busy() {
		instr, mramBytes = rotateBlocksWork(st.N * st.S)
	}
	c.eng.LaunchChargesUniform(dpu.LaunchSpec{Category: cost.PEMod}, len(st.p.rankOf), h.Meter(), instr, mramBytes)
}

type functionalBackend struct{}

func (functionalBackend) Name() string     { return "functional" }
func (functionalBackend) Functional() bool { return true }

// move rotates a rotate-blocks step's regions in place (Comm.rotate),
// stages a bulk step's groups (Comm.stage), and runs a column-stream
// step's segs in order, each sharded across the worker pool on c's
// per-shard streaming contexts (segRunner). par.Do returns only when
// every shard finished, which preserves read-after-write dependencies
// between the segs of a fusion-coalesced epoch.
func (functionalBackend) move(c *Comm, st Step) {
	switch s := st.(type) {
	case *StepRotateBlocks:
		c.rotate(s)
	case *StepBulk:
		if s.Modulate != nil {
			c.stage(s)
		}
	case *StepColumnStream:
		for _, sg := range s.segs {
			if sg.cols > 0 {
				c.ensureStreams(min(c.workers, sg.cols))
				c.srun.c, c.srun.body = c, sg.body
				par.Do(c.workers, sg.cols, &c.srun)
			}
		}
	}
}

type costBackend struct{}

func (costBackend) Name() string     { return "cost" }
func (costBackend) Functional() bool { return false }
func (costBackend) move(*Comm, Step) {}
