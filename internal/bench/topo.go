package bench

import (
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/elem"
	"repro/internal/host"
)

// Figure 23(a) (§ VIII-H) compares PID-Comm's direct hypercube AllReduce
// against ring and tree structures with the same PR/IM/CM register
// optimizations applied. The hypercube row is a measured AllReduce at
// CM; ring and tree are closed-form cost comparators, priced by the
// structural analysis below rather than executed, because on
// PIM-enabled DIMMs every "link" is the host bus:
//
//   - Ring: each of the 2(n-1) steps reroutes m/n bytes per PE through
//     the host (read + write), so total bus traffic is ~4m per PE versus
//     the hypercube's 2m — the "multiplied external bus usage" of § V-B3.
//     Each step is a separate synchronized pass.
//   - Tree: level l of the reduce tree has n/2^l active senders, so burst
//     lanes are progressively wasted (factor min(2^l, 8) within entangled
//     groups, 8 beyond); the broadcast-down phase mirrors it. Latency is
//     2*ceil(log2 n) synchronized passes.

// TopoResult is one row of Figure 23(a): a topology and what one
// AllReduce costs on it.
type TopoResult struct {
	Name string
	Cost cost.Breakdown
}

// MeasureTopologies prices an AllReduce (I32 sum) of m bytes per PE over
// the dims groups of the shape hypercube on the three topologies of
// Figure 23(a), hypercube first.
func MeasureTopologies(shape []int, dims string, m int) ([]TopoResult, error) {
	hyper, err := RunPrimitive(figSpec(shape, dims, m, core.AllReduce, core.CM))
	if err != nil {
		return nil, err
	}
	pes, n := 1, 1
	for i, l := range shape {
		pes *= l
		if dims[i] == '1' {
			n *= l
		}
	}
	geo, err := primGeo(pes, m)
	if err != nil {
		return nil, err
	}
	params := cost.DefaultParams()
	ring, err := hostBusAllReduce(false, params, geo, n, m, elem.I32)
	if err != nil {
		return nil, err
	}
	tree, err := hostBusAllReduce(true, params, geo, n, m, elem.I32)
	if err != nil {
		return nil, err
	}
	return []TopoResult{{"Hypercube (PID-Comm)", hyper.Cost}, {"Ring", ring}, {"Tree", tree}}, nil
}

// hostBusAllReduce charges a fresh host with one AllReduce of m bytes per
// PE in groups of n, structured as a ring (NCCL-style: physically close
// neighbors first) or, with tree set, as reduction trees following
// entangled group -> rank -> channel with a broadcast back down.
func hostBusAllReduce(tree bool, params cost.Params, geo dram.Geometry, n, m int, t elem.Type) (cost.Breakdown, error) {
	sys, err := dram.NewPhantomSystem(geo)
	if err != nil {
		return cost.Breakdown{}, err
	}
	h := host.New(sys, params)
	groups := geo.NumPEs() / n
	var busBytes, simdBytes, reduceBytes int64
	var syncs int
	if tree {
		levels := int(math.Ceil(math.Log2(float64(n))))
		for l := 1; l <= levels; l++ {
			active := n >> uint(l)
			if active == 0 {
				active = 1
			}
			useful := int64(m) * int64(active) * int64(groups)
			waste := int64(1) << uint(l)
			if waste > 8 {
				waste = 8
			}
			// Reduce up: each pair reroutes through the host — read both
			// operands, write the result (3 passes). Broadcast down: read
			// the parent, write the children (2 passes). All at the
			// level's lane-waste factor.
			busBytes += useful * waste * (3 + 2)
			reduceBytes += useful * 2 // both operands pass the reducer
		}
		simdBytes = busBytes / 4 // per-level repacking
		syncs = 2 * levels
	} else {
		steps := int64(2 * (n - 1))
		stepBytes := int64(m) * int64(geo.NumPEs()) / int64(n) // m/n per PE per step
		busBytes = steps * stepBytes * 2                       // read + write each step
		// Host work per step: byte-rotate shifts (CM) on all moving data,
		// reduction for the first n-1 steps.
		simdBytes = steps * stepBytes
		reduceBytes = int64(n-1) * stepBytes
		syncs = int(steps)
	}
	if syncs == 0 {
		return cost.Breakdown{}, nil // a group of one has nothing to reduce
	}
	// Bus traffic spreads uniformly over channels, as in the streaming
	// engine's epoch accounting.
	h.Meter().Add(cost.PEMem, cost.Seconds(float64(busBytes)/(params.ChannelBW*float64(geo.Channels))))
	h.Charge(host.SIMD, simdBytes)
	h.Charge(host.Reduce, reduceBytes)
	if t != elem.I8 {
		h.Charge(host.DT, 2*reduceBytes) // domain transfer around the arithmetic
	}
	for i := 0; i < syncs; i++ {
		h.ChargeSync()
	}
	return h.Meter().Snapshot(), nil
}
