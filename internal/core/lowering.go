package core

import "repro/internal/host"

// This file holds the alternative rows of the lowering table
// (algorithm.go): classic MPI algorithm shapes expressed in the schedule
// IR, emulated on the host path; what each trades against the reference
// is in doc.go's "Pipeline" section. The element types are integers and
// the operators associative and commutative, so reduction order cannot
// change results; the differential suite (internal/algo) pins every row
// byte-identical to the reference.

// baselineMulti gates the host-path shapes: they model conventional (bulk)
// execution, so Baseline only, and a single-member group has no wire.
func baselineMulti(eff Level, n int) bool { return eff == Baseline && n >= 2 }

// hop is one priced wire round of a staged shape: vol bytes cross the
// host — a send plus a receive of host-memory traffic — and, unless the
// round purely forwards (work == host.HostMem), the receivers spend vol
// bytes of work folding or copying them in.
type hop struct {
	work host.Work
	vol  int64
}

// stagedRounds is the skeleton the ring and tree shapes share: an opening
// step (nil for none), one host-compute step per hop, the closing bulk
// write, the sync. The hop steps and their charges are two slabs, not two
// heap objects per hop (a 1024-rank ring has 2046), each step's charges
// capped at their own length so no append can reach the next step's.
func stagedRounds(name string, open Step, hops []hop, closing Step) Schedule {
	sched := Schedule{Name: name, Steps: make([]Step, 0, len(hops)+3)}
	if open != nil {
		sched.add(open)
	}
	steps, charges := make([]StepHostCompute, len(hops)), make([]Charge, 0, 2*len(hops))
	for i, h := range hops {
		lo := len(charges)
		if h.work != host.HostMem {
			charges = append(charges, Charge{h.work, h.vol})
		}
		charges = append(charges, Charge{host.HostMem, 2 * h.vol})
		steps[i].Charges = charges[lo:len(charges):len(charges)]
		sched.add(&steps[i])
	}
	sched.add(closing)
	sched.add(&StepSync{})
	return sched
}

// treeSenders returns the per-round sender counts of a binomial tree
// over n ranks: in reduce round j (pair distance d = 1<<j), every rank r
// with r mod 2d == d sends its full payload to r-d. Those ranks are d,
// 3d, 5d, … below n: (n+d-1)/(2d) of them. The counts sum to n-1; the
// broadcast-down pass replays them in reverse.
func treeSenders(n int) []int {
	var out []int
	for d := 1; d < n; d <<= 1 {
		out = append(out, (n+d-1)/(2*d))
	}
	return out
}

// stagedAllReduce wraps an AllReduce shape's hops between the snapshot
// and the write-back. The opening bulk read copies every PE's payload
// into the buffer the wire rounds conceptually pass around, the executing
// comm's modulation arena (Comm.bulkOut: the hops run no Bulk step, so it
// survives to the close; the staging slab does not, so the copy is
// mandatory — and charged as host-memory traffic). The closing bulk write
// reduces each group in place to its canonical-rank-order reduction,
// replicated to every member — the reference Baseline modulation's
// arithmetic; the hops already charged the reduction and replication
// work, so it carries only the write traffic itself.
func stagedAllReduce(e *algoEnv, name string, hops []hop) Schedule {
	p, m, t, op := e.p, e.bytes, e.elemType, e.op
	return stagedRounds(name, &StepBulk{
		Read: true, ReadOff: e.srcOff, ReadPerPE: m,
		Charges: []Charge{{host.HostMem, p.numPEBytes(m)}},
		Modulate: func(c *Comm, stag []byte) []byte {
			copy(c.bulkOut(len(stag)), stag)
			return nil
		},
	}, hops, &StepBulk{
		Write: true, WriteOff: e.dstOff, WritePerPE: m,
		Modulate: func(c *Comm, _ []byte) []byte {
			data := c.bulkOut(len(p.rankOf) * m)
			c.groupsDoScratch(len(p.groups), m, func(g int, red []byte) {
				foldGroup(t, op, red, data, p.groups[g], m, e.s, false)
				for _, pe := range p.groups[g] {
					copy(data[pe*m:(pe+1)*m], red)
				}
			})
			return data
		},
	})
}

// lowerRingAllReduce moves one s-byte block per PE around the group
// ring: n-1 reduce-scatter hops (each PE folds the arriving block into
// its own), then n-1 allgather hops (pure copies).
func lowerRingAllReduce(e algoEnv) Schedule {
	hops := make([]hop, 0, 2*(e.p.n-1))
	for _, work := range []host.Work{host.ScalarReduce, host.SIMD} {
		for r := 1; r < e.p.n; r++ {
			hops = append(hops, hop{work, e.p.numPEBytes(e.s)})
		}
	}
	return stagedAllReduce(&e, "AllReduce/ring", hops)
}

// lowerTreeAllReduce climbs and re-descends the binomial tree, each
// round moving the full m-byte payload per participating pair.
func lowerTreeAllReduce(e algoEnv) Schedule {
	up := treeSenders(e.p.n)
	pair := int64(len(e.p.groups)) * int64(e.bytes) // one sender per group
	hops := make([]hop, 2*len(up))
	for i, senders := range up {
		hops[i] = hop{host.ScalarReduce, int64(senders) * pair}
		hops[len(hops)-1-i] = hop{host.SIMD, int64(senders) * pair}
	}
	return stagedAllReduce(&e, "AllReduce/tree", hops)
}

// lowerRsagAllReduce is the Rabenseifner composition: the staged
// ReduceScatter pass leaves each PE its rank's reduced block at dst, a
// sync barrier ends that phase, and the staged AllGather pass reads the
// blocks back and writes the full replicated result over them.
func lowerRsagAllReduce(e algoEnv) Schedule {
	return Schedule{Name: "AllReduce/rsag", Steps: []Step{
		reduceScatterBulk(&e, host.ScalarReduce), &StepSync{},
		allGatherBulk(e.p, e.dstOff, e.dstOff, e.s), &StepSync{},
	}}
}

// stagedBroadcast closes a Broadcast shape's forwarding hops with the
// conventional delivery: every PE's destination gets its group's host
// payload, the running plan's, through the bulk write path (the hops
// already charged the wire; the payload fan-out into the PE-major buffer
// is memcpy class).
func stagedBroadcast(e *algoEnv, name string, hops []hop) Schedule {
	p, s, at := e.p, e.bytes, e.hosts
	return stagedRounds(name, nil, hops, &StepBulk{
		Write: true, WriteOff: e.dstOff, WritePerPE: s,
		Charges: []Charge{{host.SIMD, p.numPEBytes(s)}},
		Modulate: func(c *Comm, _ []byte) []byte {
			out, bufs := c.bulkOut(len(p.rankOf)*s), c.cur.hosts[at:]
			c.groupsDo(len(p.groups), func(g int) {
				for _, pe := range p.groups[g] {
					copy(out[pe*s:(pe+1)*s], bufs[g][:s])
				}
			})
			return out
		},
	})
}

// lowerRingBroadcast stages the payload around each group's ring: n-1
// full-payload hops, one link each.
func lowerRingBroadcast(e algoEnv) Schedule {
	hops := make([]hop, e.p.n-1)
	for r := range hops {
		hops[r] = hop{host.HostMem, int64(len(e.p.groups)) * int64(e.bytes)}
	}
	return stagedBroadcast(&e, "Broadcast/ring", hops)
}

// lowerTreeBroadcast stages the payload down a binomial tree:
// ceil(log2 n) doubling rounds — round j has min(2^j, n-2^j) senders,
// each forwarding the full payload.
func lowerTreeBroadcast(e algoEnv) Schedule {
	var hops []hop
	for have := 1; have < e.p.n; have *= 2 {
		senders := min(have, e.p.n-have)
		hops = append(hops, hop{host.HostMem, int64(len(e.p.groups)) * int64(senders) * int64(e.bytes)})
	}
	return stagedBroadcast(&e, "Broadcast/tree", hops)
}
