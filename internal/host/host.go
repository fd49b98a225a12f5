package host

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/dram"
	"repro/internal/par"
	"repro/internal/vec"
)

// Host is the simulated host CPU attached to a dram.System. Host is
// single-owner state (core.Comm serializes all executions on it), except
// for the cumulative transfer statistics and the meter, which may be read
// concurrently (Stats, Meter) while an execution runs.
//
// Inside one execution, bulk transfers and the streaming engine shard
// their per-group work across worker goroutines (SetWorkers); each worker
// tallies bus traffic on a private Shard and the owner merges the shard
// totals deterministically, so the epoch accounting, the cumulative
// statistics and the charged times are byte-identical at any worker
// count (see doc.go, "Concurrency contract").
type Host struct {
	sys    *dram.System
	params cost.Params
	meter  *cost.Meter
	vu     vec.Unit

	epochDepth int
	chanBytes  []int64 // per-channel bytes this epoch

	// workers is the shard count for internally parallelized bulk
	// transfers; shards are the reusable per-worker tally contexts and
	// stag/brun/wrun the reusable staging state of the bulk paths.
	workers int
	shards  []*Shard
	stag    []byte
	brun    bulkReadRun
	wrun    bulkWriteRun

	// Cumulative transfer statistics (see stats.go). Updated and read
	// atomically so Stats() can be polled while collectives execute.
	totalBursts atomic.Int64
	totalByChan []atomic.Int64
}

// New returns a host for the given system with a fresh meter.
func New(sys *dram.System, params cost.Params) *Host {
	return &Host{
		sys:         sys,
		params:      params,
		meter:       cost.NewMeter(),
		chanBytes:   make([]int64, sys.Geometry().Channels),
		workers:     runtime.GOMAXPROCS(0),
		totalByChan: make([]atomic.Int64, sys.Geometry().Channels),
	}
}

// SetWorkers sets the shard count for internally parallelized bulk
// transfers (BulkRead/BulkWrite); n <= 1 runs them serially. Results and
// accounting are byte-identical at any count. core.New mirrors
// Config.ExecWorkers here.
func (h *Host) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	h.workers = n
}

// Workers returns the configured bulk-transfer shard count.
func (h *Host) Workers() int { return h.workers }

// System returns the attached memory system.
func (h *Host) System() *dram.System { return h.sys }

// Params returns the cost parameters.
func (h *Host) Params() cost.Params { return h.params }

// Meter returns the host's cost meter.
func (h *Host) Meter() *cost.Meter { return h.meter }

// BeginXfer opens a transfer epoch: burst traffic is tallied per channel
// and charged at EndXfer with channels running in parallel. Epochs nest;
// only the outermost EndXfer charges.
func (h *Host) BeginXfer() { h.epochDepth++ }

// EndXfer closes the epoch and charges PEMem with the bus time: the
// maximum per-channel time, where a channel's time is its byte count over
// the channel bandwidth. Without rank parallelism, transfers to the ranks
// of a channel serialize with per-rank turnaround, halving effective
// bandwidth (the UPMEM driver's rank-interleaved transfers avoid this).
func (h *Host) EndXfer() {
	if h.epochDepth <= 0 {
		panic("host: EndXfer without BeginXfer")
	}
	h.epochDepth--
	if h.epochDepth > 0 {
		return
	}
	bw := h.params.ChannelBW
	if !h.params.RankParallel {
		bw /= 2
	}
	var maxT cost.Seconds
	for _, b := range h.chanBytes {
		t := cost.Seconds(float64(b) / bw)
		if t > maxT {
			maxT = t
		}
	}
	h.meter.Add(cost.PEMem, maxT)
	for i := range h.chanBytes {
		h.chanBytes[i] = 0
	}
}

// TallyBursts accounts count 64-byte bursts to/from the entangled group
// without moving any bytes: the host-level form of Shard.TallyBursts. The
// epoch and statistics bookkeeping is shared with the functional path,
// so per-channel totals — and therefore the PEMem time charged at
// EndXfer — are identical. The cost-only backend books whole-machine
// steps with TallyAllGroups instead. Must run inside a transfer epoch.
func (h *Host) TallyBursts(group int, count int64) {
	if h.epochDepth == 0 {
		panic("host: TallyBursts outside transfer epoch")
	}
	bytes := count * dram.BurstBytes
	ch, _ := h.sys.RankOfGroup(group)
	h.chanBytes[ch] += bytes
	h.totalBursts.Add(count)
	h.totalByChan[ch].Add(bytes)
}

// TallyAllGroups is TallyBursts on every entangled group of the machine:
// count bursts each, booked as count × RanksPerChannel × BanksPerChip
// bursts per channel in one sum per channel — the same integer totals as
// a TallyBursts loop over the groups, so Stats, the epoch's per-channel
// bytes and EndXfer's PEMem charge are unchanged. Must run inside a
// transfer epoch.
func (h *Host) TallyAllGroups(count int64) {
	if h.epochDepth == 0 {
		panic("host: TallyAllGroups outside transfer epoch")
	}
	bytes := count * h.groupsPerChannel() * dram.BurstBytes
	for ch := range h.chanBytes {
		h.chanBytes[ch] += bytes
		h.totalByChan[ch].Add(bytes)
	}
	h.totalBursts.Add(count * int64(h.sys.Geometry().NumGroups()))
}

// groupsPerChannel is the entangled-group count of one channel.
func (h *Host) groupsPerChannel() int64 {
	g := h.sys.Geometry()
	return int64(g.RanksPerChannel * g.BanksPerChip)
}

// ---------------------------------------------------------------------
// Shards: per-worker tally contexts for parallel execution
// ---------------------------------------------------------------------

// Shard is one worker's private view of the host during a parallel
// transfer epoch: burst movement goes straight to the memory system
// (workers touch disjoint bursts by construction), while bus tallies
// accumulate shard-locally until the owner calls MergeShards. A Shard
// must only be used between BeginXfer/EndXfer of the host that issued
// it, and only by one goroutine at a time.
type Shard struct {
	h         *Host
	bursts    int64
	chanBytes []int64
	// Every burst writes bursts and chanBytes: the pad (here, and the
	// rounded-up capacity in Shards) gives each worker's tallies cache
	// lines of their own, wherever the allocator happens to place them.
	_ [80]byte
}

// TallyBursts is the shard-local form of Host.TallyBursts: a bulk
// transfer's worker books a group's bursts here before it moves them, one
// copy per PE (dram.System.ReadSpan/WriteSpan).
func (s *Shard) TallyBursts(group int, count int64) {
	if s.h.epochDepth == 0 {
		panic("host: shard tally outside transfer epoch")
	}
	ch, _ := s.h.sys.RankOfGroup(group)
	s.chanBytes[ch] += count * dram.BurstBytes
	s.bursts += count
}

// TallyAllGroups is the shard-local form of Host.TallyAllGroups, and the
// one burst path of the functional column stream: a worker books a run's
// bursts on every entangled group here before it moves the run's bytes
// straight between banks (or host buffers), one copy per PE.
func (s *Shard) TallyAllGroups(count int64) {
	if s.h.epochDepth == 0 {
		panic("host: shard tally outside transfer epoch")
	}
	bytes := count * s.h.groupsPerChannel() * dram.BurstBytes
	for ch := range s.chanBytes {
		s.chanBytes[ch] += bytes
	}
	s.bursts += count * int64(s.h.sys.Geometry().NumGroups())
}

// Shards returns k reusable per-worker tally contexts (growing the set
// on demand). The caller must hold the execution serialized — shards are
// part of the host's single-owner state.
func (h *Host) Shards(k int) []*Shard {
	for len(h.shards) < k {
		h.shards = append(h.shards, &Shard{
			h:         h,
			chanBytes: make([]int64, h.sys.Geometry().Channels, (h.sys.Geometry().Channels+7)&^7),
		})
	}
	return h.shards[:k]
}

// MergeShards folds every shard's pending tallies into the host's epoch
// and cumulative accounting and resets them. Deterministic: shards are
// folded in shard order, channels in channel order, and all tallies are
// integer sums — so the merged totals (and the PEMem time EndXfer
// charges from them) are byte-identical at any worker count. Must run
// inside the transfer epoch the tallies belong to.
func (h *Host) MergeShards() {
	for _, s := range h.shards {
		if s.bursts == 0 {
			continue
		}
		h.totalBursts.Add(s.bursts)
		s.bursts = 0
		for ch, b := range s.chanBytes {
			if b != 0 {
				h.chanBytes[ch] += b
				h.totalByChan[ch].Add(b)
				s.chanBytes[ch] = 0
			}
		}
	}
}

// dsa returns the throughput multiplier for host-side transform work:
// 1 normally, DSAFactor under the § IX-B DSA-offload what-if.
func (h *Host) dsa() float64 {
	if h.params.DSAOffload {
		return h.params.DSAFactor
	}
	return 1
}

// Work is a class of host-side work priced per byte by Charge: the
// domain transfer, the modulation and reduction classes, and staging
// traffic to host main memory.
type Work uint8

const (
	// DT is domain-transfer compute (8x8 byte transposes).
	DT Work = iota
	// ScalarMod is the baseline's global modulation: scalar and
	// cache-hostile.
	ScalarMod
	// LocalMod is cache-friendly local modulation, after PE-assisted
	// reordering.
	LocalMod
	// SIMD is in-register modulation (shuffles, rotates, memcpy).
	SIMD
	// Reduce is vertical SIMD reduction, per input byte.
	Reduce
	// ScalarReduce is the baseline's scalar reduction loops over staged
	// data, per input byte.
	ScalarReduce
	// LocalReduce is reduction over PE-pre-reordered (cache-local) data,
	// per input byte.
	LocalReduce
	// HostMem is host main-memory traffic.
	HostMem
)

// works prices each Work: the meter category it accrues to and its
// throughput field of cost.Params — host bytes/cycle, scaled by the DSA
// what-if, except HostMem's, which is main-memory bandwidth in
// bytes/second.
var works = [...]struct {
	cat  cost.Category
	rate func(*cost.Params) float64
}{
	DT:           {cost.DomainTransfer, func(p *cost.Params) float64 { return p.DTBPC }},
	ScalarMod:    {cost.HostMod, func(p *cost.Params) float64 { return p.ScalarModBPC }},
	LocalMod:     {cost.HostMod, func(p *cost.Params) float64 { return p.LocalModBPC }},
	SIMD:         {cost.HostMod, func(p *cost.Params) float64 { return p.SIMDModBPC }},
	Reduce:       {cost.HostMod, func(p *cost.Params) float64 { return p.ReduceBPC }},
	ScalarReduce: {cost.HostMod, func(p *cost.Params) float64 { return p.ScalarRedBPC }},
	LocalReduce:  {cost.HostMod, func(p *cost.Params) float64 { return p.LocalRedBPC }},
	HostMem:      {cost.HostMem, func(p *cost.Params) float64 { return p.HostMemBW }},
}

// Price is the one place host work turns into seconds: n bytes of w as
// one meter addition in its category (N 1). HostMem is n over main-memory
// bandwidth, which must be positive; every other kind is n at its
// bytes/cycle scaled by the DSA what-if.
func (h *Host) Price(w Work, n int64) cost.TraceEntry {
	k := works[w]
	rate := k.rate(&h.params)
	if w != HostMem {
		return cost.TraceEntry{Cat: k.cat, N: 1, T: h.params.HostBytesAt(n, rate*h.dsa())}
	}
	if rate <= 0 {
		panic(fmt.Sprintf("host: non-positive bandwidth %v for %v", rate, k.cat))
	}
	return cost.TraceEntry{Cat: k.cat, N: 1, T: cost.Seconds(float64(n) / rate)}
}

// Charge charges n bytes of host work w: its Price, one meter addition.
// A step's charges take the counted path instead — each priced once,
// then one cost.Meter.AddRounds for all its rounds.
func (h *Host) Charge(w Work, n int64) {
	e := h.Price(w, n)
	h.meter.Add(e.Cat, e.T)
}

// ChargeSync charges a fixed host-side synchronization/launch overhead.
func (h *Host) ChargeSync() {
	h.meter.Add(cost.Other, h.params.KernelLaunch)
}

// ChargeNetRounds charges rounds overlapped inter-host exchange rounds
// of bytesPerRound payload each (cost.Network). The per-round time comes
// from the parameterized network model (Params.Net): pairwise transfers
// of distinct host pairs overlap, so a round costs one host's traffic
// over the goodput plus the fixed round latency. The whole transfer is
// one meter addition, so a plan's charge trace carries one entry per
// network leg.
func (h *Host) ChargeNetRounds(rounds int, bytesPerRound int64) {
	if rounds <= 0 {
		return
	}
	h.meter.Add(cost.Network, cost.Seconds(rounds)*h.params.Net.RoundTime(bytesPerRound))
}

// DomainTransfer applies the driver's domain transfer in place: each
// aligned 64-byte block is 8x8 byte-transposed (§ II-B), converting
// between PIM byte order and host byte order. It charges DT compute.
// len(buf) must be a multiple of 64.
func (h *Host) DomainTransfer(buf []byte) {
	if len(buf)%dram.BurstBytes != 0 {
		panic(fmt.Sprintf("host: DT length %d not a multiple of %d", len(buf), dram.BurstBytes))
	}
	for off := 0; off < len(buf); off += dram.BurstBytes {
		r := h.vu.Load(buf[off:])
		r = h.vu.Transpose8x8(r)
		h.vu.Store(buf[off:], r)
	}
	h.Charge(DT, int64(len(buf)))
}

// bulkReadRun is the reusable par.Runner of BulkRead: shard workers own
// contiguous group ranges, so their staging-buffer writes and burst reads
// are disjoint. Staging is PE-major and a burst in lane order is a word
// of each PE, so a group's perPE/8 bursts land as one copy per PE
// (dram.System.ReadSpan), tallied first.
type bulkReadRun struct {
	h      *Host
	groups []int
	off    int
	perPE  int
	buf    []byte
}

func (br *bulkReadRun) RunShard(shard, lo, hi int) {
	sh, n := br.h.shards[shard], dram.ChipsPerRank*br.perPE
	for gi := lo; gi < hi; gi++ {
		g := br.groups[gi]
		sh.TallyBursts(g, int64(br.perPE/dram.BankBurstBytes))
		br.h.sys.ReadSpan(g, br.off, br.buf[gi*n:(gi+1)*n])
	}
}

// bulkWriteRun is the reusable par.Runner of BulkWrite (group ranges are
// disjoint in both the host buffer and MRAM): one copy per PE, like
// bulkReadRun.
type bulkWriteRun struct {
	h      *Host
	groups []int
	off    int
	perPE  int
	buf    []byte
}

func (bw *bulkWriteRun) RunShard(shard, lo, hi int) {
	sh, n := bw.h.shards[shard], dram.ChipsPerRank*bw.perPE
	for gi := lo; gi < hi; gi++ {
		g := bw.groups[gi]
		sh.TallyBursts(g, int64(bw.perPE/dram.BankBurstBytes))
		bw.h.sys.WriteSpan(g, bw.off, bw.buf[gi*n:(gi+1)*n])
	}
}

// staging returns the host's reusable staging slab grown to n bytes.
func (h *Host) staging(n int) []byte {
	if cap(h.stag) < n {
		h.stag = make([]byte, n)
	}
	return h.stag[:n]
}

// bulk is the one charge order of a staged transfer of perPE bytes per
// PE of nGroups entangled groups: a read charges its bus epoch, then DT,
// then the staging store; a write charges the staging read, then DT,
// then its bus epoch. move moves the bytes of its groups, sharded over
// the configured workers; nil tallies the same bursts on every group of
// the machine (nGroups must be all of them) without moving any, so both
// backends charge, and count, the same.
func (h *Host) bulk(nGroups, perPE int, read bool, move par.Runner) {
	if perPE%dram.BankBurstBytes != 0 {
		panic(fmt.Sprintf("host: perPE %d not burst-aligned", perPE))
	}
	total := int64(nGroups) * dram.ChipsPerRank * int64(perPE)
	if !read {
		h.Charge(HostMem, total) // staging read
		h.Charge(DT, total)
	}
	h.BeginXfer()
	if move != nil {
		h.Shards(h.workers)
		par.Do(h.workers, nGroups, move)
		h.MergeShards()
	} else {
		h.TallyAllGroups(int64(perPE / dram.BankBurstBytes))
	}
	h.EndXfer()
	if read {
		h.Charge(DT, total)
		h.Charge(HostMem, total) // staging store
	}
}

// BulkRead is the conventional (UPMEM-SDK-style) retrieval path used by
// the baseline design: it reads perPE bytes starting at MRAM offset off
// from every PE of every listed group, applies the driver's automatic
// domain transfer, stores the result into a host staging buffer, and
// charges bus, DT and host-memory costs. The staging layout is PE-major:
// the bytes of the i-th PE (groups in the given order, chips in order
// within each group) occupy buf[i*perPE : (i+1)*perPE].
//
// The returned buffer is the host's own staging slab: it stays valid
// until the next BulkRead on this host. The group loop is sharded across
// the configured workers (SetWorkers); results and accounting are
// byte-identical at any worker count. Only the benchmark's host layer
// calls it: core books staged steps with ChargeBulkRead and moves their
// bytes one group at a time.
func (h *Host) BulkRead(groups []int, off, perPE int) []byte {
	buf := h.staging(len(groups) * dram.ChipsPerRank * perPE)
	h.brun = bulkReadRun{h: h, groups: groups, off: off, perPE: perPE, buf: buf}
	h.bulk(len(groups), perPE, true, &h.brun)
	return buf
}

// BulkWrite is the inverse of BulkRead: it scatters a PE-major host buffer
// back to the PEs' MRAM at offset off, applying domain transfer, and
// charges host-memory (staging read), DT and bus costs. The group loop is
// sharded like BulkRead's. Like BulkRead, only the benchmark's host layer
// calls it.
func (h *Host) BulkWrite(groups []int, off int, buf []byte) {
	n := len(groups) * dram.ChipsPerRank
	if n == 0 {
		return
	}
	if len(buf)%n != 0 {
		panic(fmt.Sprintf("host: buffer %d not divisible by %d PEs", len(buf), n))
	}
	perPE := len(buf) / n
	h.wrun = bulkWriteRun{h: h, groups: groups, off: off, perPE: perPE, buf: buf}
	h.bulk(len(groups), perPE, false, &h.wrun)
}

// ChargeBulkRead accounts a BulkRead of perPE bytes per PE from every
// entangled group of the machine without moving data.
func (h *Host) ChargeBulkRead(perPE int) { h.bulk(h.sys.Geometry().NumGroups(), perPE, true, nil) }

// ChargeBulkWrite accounts a BulkWrite of perPE bytes per PE to every
// entangled group of the machine without moving data.
func (h *Host) ChargeBulkWrite(perPE int) { h.bulk(h.sys.Geometry().NumGroups(), perPE, false, nil) }
