package core

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/elem"
)

// Topology selects the algorithmic structure used by AllReduceTopo,
// reproducing the hierarchy-aware comparison of § VIII-H / Figure 23(a).
type Topology int

const (
	// Hypercube is PID-Comm's direct single-pass AllReduce.
	TopoHypercube Topology = iota
	// Ring reduces with physically close neighbors within the entangled
	// group first, then across groups, NCCL-style: 2(n-1) steps that each
	// reroute the in-flight blocks through the host.
	TopoRing
	// Tree builds reduction trees following the order entangled group ->
	// rank -> channel, then broadcasts down (two-tree style).
	TopoTree
)

// String returns the display label.
func (tp Topology) String() string {
	switch tp {
	case TopoHypercube:
		return "Hypercube (PID-Comm)"
	case TopoRing:
		return "Ring"
	case TopoTree:
		return "Tree"
	default:
		return fmt.Sprintf("Topology(%d)", int(tp))
	}
}

// AllReduceTopo runs the AllReduce d describes with the chosen
// algorithmic topology, all with PID-Comm's PR/IM/CM register
// optimizations applied (as in the paper's comparison): d.Prim and
// d.Level are implied (AllReduce at CM) and ignored. The ring and tree
// comparators compute the same functional result; their costs follow
// the structural analysis below, because on PIM-enabled DIMMs every
// "link" is the host bus:
//
//   - Ring: each of the 2(n-1) steps reroutes m/n bytes per PE through
//     the host (read + write), so total bus traffic is ~4m per PE versus
//     the hypercube's 2m — the "multiplied external bus usage" of § V-B3.
//     Each step is a separate synchronized pass.
//   - Tree: level l of the reduce tree has n/2^l active senders, so burst
//     lanes are progressively wasted (factor min(2^l, 8) within entangled
//     groups, 8 beyond); the broadcast-down phase mirrors it. Latency is
//     2*ceil(log2 n) synchronized passes.
func (c *Comm) AllReduceTopo(topo Topology, d Collective) (cost.Breakdown, error) {
	d.Prim, d.Level = AllReduce, CM
	if topo == TopoHypercube {
		return c.Run(d)
	}
	p, err := c.plan(d.Dims)
	if err != nil {
		return cost.Breakdown{}, fmt.Errorf("AllReduceTopo(%v): %w", topo, err)
	}
	m, _, err := shapes[AllReduce].check(c.fullArena(), d, p.n, len(p.groups), false)
	if err != nil {
		return cost.Breakdown{}, fmt.Errorf("AllReduceTopo(%v): %w", topo, err)
	}
	srcOff, dstOff, t, op := d.Src.Off, d.Dst.Off, d.Elem, d.Op
	c.Flush() // serial execution is a barrier w.r.t. submitted plans
	c.execMu.Lock()
	defer c.execMu.Unlock()
	before := c.h.Meter().Snapshot()

	// Functional result: same as any AllReduce. (Cost-only backends skip
	// the data movement; the structural cost model below is backend-
	// independent.)
	if c.backend.Functional() {
		for _, grp := range p.groups {
			in := make([][]byte, len(grp))
			for i, pe := range grp {
				in[i] = c.GetPEBuffer(pe, srcOff, m)
			}
			out := RefAllReduce(t, op, in)
			for i, pe := range grp {
				c.SetPEBuffer(pe, dstOff, out[i])
			}
		}
	}

	// Structural cost model.
	n := p.n
	numPE := len(p.rankOf)
	total := int64(m) * int64(numPE) // one full copy of the data
	// Bus traffic spreads uniformly over channels, as in the streaming
	// engine's epoch accounting.
	busCharge := func(busBytes int64) {
		c.h.Meter().AddBytes(cost.PEMem, busBytes, c.h.Params().ChannelBW*float64(c.hc.sys.Geometry().Channels))
	}
	switch topo {
	case TopoRing:
		steps := 2 * (n - 1)
		if steps == 0 {
			break
		}
		stepBytes := total / int64(n)           // m/n per PE per step
		busCharge(int64(steps) * stepBytes * 2) // read + write each step
		// Host work per step: byte-rotate shifts (CM) on all moving data,
		// reduction for the first n-1 steps (with DT around arithmetic).
		c.h.ChargeSIMD(int64(steps) * stepBytes)
		c.h.ChargeReduce(int64(n-1) * stepBytes)
		if t != elem.I8 {
			c.h.ChargeDT(2 * int64(n-1) * stepBytes)
		}
		for i := 0; i < steps; i++ {
			c.h.ChargeSync()
		}
	case TopoTree:
		levels := int(math.Ceil(math.Log2(float64(n))))
		if levels == 0 {
			break
		}
		var busBytes, reduceBytes int64
		for l := 1; l <= levels; l++ {
			active := n >> uint(l)
			if active == 0 {
				active = 1
			}
			useful := int64(m) * int64(active) * int64(len(p.groups))
			waste := int64(1) << uint(l)
			if waste > 8 {
				waste = 8
			}
			// Reduce up: each pair reroutes through the host — read both
			// operands, write the result (3 passes). Broadcast down: read
			// the parent, write the children (2 passes). All at the
			// level's lane-waste factor.
			busBytes += useful * waste * 3 // reduce phase
			busBytes += useful * waste * 2 // broadcast phase
			reduceBytes += useful * 2      // both operands pass the reducer
		}
		busCharge(busBytes)
		c.h.ChargeSIMD(busBytes / 4) // per-level repacking
		c.h.ChargeReduce(reduceBytes)
		if t != elem.I8 {
			c.h.ChargeDT(2 * reduceBytes)
		}
		for i := 0; i < 2*levels; i++ {
			c.h.ChargeSync()
		}
	default:
		return cost.Breakdown{}, fmt.Errorf("AllReduceTopo: unknown topology %v", topo)
	}
	bd := c.h.Meter().Snapshot().Sub(before)
	// Topology comparators execute outside the plan machinery; keep the
	// elapsed-time timeline coherent by appending their cost serially.
	c.placeSerialLocked(bd.Segments())
	return bd, nil
}
