package dram

import (
	"fmt"
	"sync"

	"repro/internal/vec"
)

// ChipsPerRank is fixed by the DDR4 x8 DIMM organization: 8 chips with
// 8-bit buses concatenate into the 64-bit channel bus.
const ChipsPerRank = 8

// BurstBytes is the DDR4 burst granularity: 8 beats x 64 bits = 64 bytes.
// It is also the entangled-group access unit (8 bytes per bank).
const BurstBytes = 64

// BankBurstBytes is each bank's share of a burst.
const BankBurstBytes = BurstBytes / ChipsPerRank

// Geometry describes a PIM-enabled DIMM system.
type Geometry struct {
	// Channels is the number of memory channels (paper system: 4).
	Channels int
	// RanksPerChannel is the number of ranks per channel (paper: 4).
	RanksPerChannel int
	// BanksPerChip is the number of banks (= PEs) per chip (paper: 8).
	BanksPerChip int
	// MramPerBank is the per-bank MRAM capacity in bytes (UPMEM: 64 MiB;
	// tests use small values).
	MramPerBank int
}

// Validate checks the geometry for physical plausibility.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("dram: Channels must be positive, got %d", g.Channels)
	case g.RanksPerChannel <= 0 || g.RanksPerChannel&(g.RanksPerChannel-1) != 0:
		return fmt.Errorf("dram: RanksPerChannel must be a positive power of two, got %d", g.RanksPerChannel)
	case g.BanksPerChip <= 0 || g.BanksPerChip&(g.BanksPerChip-1) != 0:
		return fmt.Errorf("dram: BanksPerChip must be a positive power of two, got %d", g.BanksPerChip)
	case g.MramPerBank <= 0 || g.MramPerBank%BankBurstBytes != 0:
		return fmt.Errorf("dram: MramPerBank must be a positive multiple of %d, got %d", BankBurstBytes, g.MramPerBank)
	}
	return nil
}

// NumPEs returns the total number of PEs (= banks) in the system.
func (g Geometry) NumPEs() int {
	return g.Channels * g.RanksPerChannel * ChipsPerRank * g.BanksPerChip
}

// NumGroups returns the number of entangled groups.
func (g Geometry) NumGroups() int { return g.NumPEs() / ChipsPerRank }

// PaperGeometry returns the paper's testbed: 4 channels x 4 ranks x 8 chips
// x 8 banks = 1024 PEs, with mramPerBank bytes of MRAM each.
func PaperGeometry(mramPerBank int) Geometry {
	return Geometry{Channels: 4, RanksPerChannel: 4, BanksPerChip: 8, MramPerBank: mramPerBank}
}

// PEID identifies a PE by its physical coordinates.
type PEID struct {
	Channel, Rank, Chip, Bank int
}

// System is a simulated PIM-DIMM memory system holding real bytes — or,
// in phantom mode, only the geometry: a phantom system answers every
// size/topology query but backs no MRAM, so cost-only analyses can model
// paper-scale machines without allocating gigabytes. Any attempt to move
// actual bytes through a phantom system panics, which is what guarantees
// a cost-only backend really never touches data.
type System struct {
	geo Geometry
	// mram[linear PE index] is that bank's MRAM; nil in phantom mode.
	mram [][]byte
	// phantom marks a geometry-only system.
	phantom bool

	// carveMu guards free, the sorted, coalesced list of unallocated
	// per-bank MRAM spans the arena allocator (CarveArena/FreeArena)
	// hands windows out of.
	carveMu sync.Mutex
	free    []Arena
}

// Arena is a per-bank MRAM byte window [Base, Base+Bytes), identical on
// every PE: the unit of multi-tenant isolation. Arenas are carved
// first-fit from a coalescing free list, so tenants can come and go at
// runtime: FreeArena returns a window to the allocator and merges it
// with adjacent free spans, keeping churn from fragmenting MRAM.
type Arena struct {
	Base  int
	Bytes int
}

// End returns the first offset past the arena.
func (a Arena) End() int { return a.Base + a.Bytes }

// CarveArena reserves a bytes-sized window of every bank's MRAM (rounded
// up to BankBurstBytes so arena-relative alignment equals absolute
// alignment) and returns the carved window. Allocation is first-fit over
// the free list ordered by base offset, so with no intervening frees
// arenas are carved sequentially from offset 0. Carving works on phantom
// systems too — only sizes are tracked.
func (s *System) CarveArena(bytes int) (Arena, error) {
	if bytes <= 0 {
		return Arena{}, fmt.Errorf("dram: arena bytes must be positive, got %d", bytes)
	}
	if r := bytes % BankBurstBytes; r != 0 {
		bytes += BankBurstBytes - r
	}
	s.carveMu.Lock()
	defer s.carveMu.Unlock()
	for i, f := range s.free {
		if f.Bytes < bytes {
			continue
		}
		a := Arena{Base: f.Base, Bytes: bytes}
		if f.Bytes == bytes {
			s.free = append(s.free[:i], s.free[i+1:]...)
		} else {
			s.free[i] = Arena{Base: f.Base + bytes, Bytes: f.Bytes - bytes}
		}
		return a, nil
	}
	return Arena{}, fmt.Errorf("dram: arena of %d B does not fit: %d of %d B carved, largest free span %d B",
		bytes, s.carvedLocked(), s.geo.MramPerBank, s.largestFreeLocked())
}

// FreeArena returns a previously carved window to the allocator,
// coalescing it with adjacent free spans. The arena must be exactly as
// carved (aligned, inside MRAM) and must not overlap any free span —
// double frees and partial frees are rejected.
func (s *System) FreeArena(a Arena) error {
	if a.Bytes <= 0 {
		return fmt.Errorf("dram: free of arena with non-positive size %d", a.Bytes)
	}
	if a.Base < 0 || a.Base%BankBurstBytes != 0 || a.Bytes%BankBurstBytes != 0 || a.End() > s.geo.MramPerBank {
		return fmt.Errorf("dram: free of malformed arena [%d,%d) (mram %d)", a.Base, a.End(), s.geo.MramPerBank)
	}
	s.carveMu.Lock()
	defer s.carveMu.Unlock()
	// Find the insertion point: first free span at or past the arena.
	i := 0
	for i < len(s.free) && s.free[i].Base < a.Base {
		i++
	}
	if i > 0 && s.free[i-1].End() > a.Base {
		return fmt.Errorf("dram: double free: arena [%d,%d) overlaps free span [%d,%d)",
			a.Base, a.End(), s.free[i-1].Base, s.free[i-1].End())
	}
	if i < len(s.free) && a.End() > s.free[i].Base {
		return fmt.Errorf("dram: double free: arena [%d,%d) overlaps free span [%d,%d)",
			a.Base, a.End(), s.free[i].Base, s.free[i].End())
	}
	mergePrev := i > 0 && s.free[i-1].End() == a.Base
	mergeNext := i < len(s.free) && a.End() == s.free[i].Base
	switch {
	case mergePrev && mergeNext:
		s.free[i-1].Bytes += a.Bytes + s.free[i].Bytes
		s.free = append(s.free[:i], s.free[i+1:]...)
	case mergePrev:
		s.free[i-1].Bytes += a.Bytes
	case mergeNext:
		s.free[i] = Arena{Base: a.Base, Bytes: a.Bytes + s.free[i].Bytes}
	default:
		s.free = append(s.free, Arena{})
		copy(s.free[i+1:], s.free[i:])
		s.free[i] = a
	}
	return nil
}

func (s *System) carvedLocked() int {
	free := 0
	for _, f := range s.free {
		free += f.Bytes
	}
	return s.geo.MramPerBank - free
}

func (s *System) largestFreeLocked() int {
	max := 0
	for _, f := range s.free {
		if f.Bytes > max {
			max = f.Bytes
		}
	}
	return max
}

// LargestFree returns the largest contiguous free span's size — the
// biggest arena CarveArena can currently satisfy.
func (s *System) LargestFree() int {
	s.carveMu.Lock()
	defer s.carveMu.Unlock()
	return s.largestFreeLocked()
}

// FreeSpans returns a copy of the free list, sorted by base offset and
// maximally coalesced (no two spans are adjacent or overlapping).
func (s *System) FreeSpans() []Arena {
	s.carveMu.Lock()
	defer s.carveMu.Unlock()
	out := make([]Arena, len(s.free))
	copy(out, s.free)
	return out
}

// NewSystem allocates a system with the given geometry. The eight banks
// of an entangled group — what one burst touches — share one slab, each
// a window whose capacity ends with the bank, so an append to
// BankBytes(i) copies rather than grow into bank i+1. Slabs are per group,
// not per system: system-sized slabs, whose size varies from machine to
// machine, fragment the heap, where group-sized ones are reused.
func NewSystem(geo Geometry) (*System, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	s := &System{geo: geo, mram: make([][]byte, geo.NumPEs()), free: []Arena{{Base: 0, Bytes: geo.MramPerBank}}}
	m := geo.MramPerBank
	for g := 0; g < geo.NumGroups(); g++ {
		slab := make([]byte, ChipsPerRank*m)
		for c := 0; c < ChipsPerRank; c++ {
			s.mram[g*ChipsPerRank+c] = slab[c*m : (c+1)*m : (c+1)*m]
		}
	}
	return s, nil
}

// NewPhantomSystem validates the geometry and returns a system with no
// backing MRAM. It is the substrate for cost-only execution: region
// checks, group enumeration and bus accounting all work, but every burst,
// span and bank access panics.
func NewPhantomSystem(geo Geometry) (*System, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &System{geo: geo, phantom: true, free: []Arena{{Base: 0, Bytes: geo.MramPerBank}}}, nil
}

func (s *System) checkBacked(op string) {
	if s.phantom {
		panic(fmt.Sprintf("dram: %s on a phantom (cost-only) system", op))
	}
}

// Geometry returns the system geometry.
func (s *System) Geometry() Geometry { return s.geo }

// PEFromLinear converts a linear PE index to physical coordinates. The
// linear order is chip -> bank -> rank -> channel (chip varies fastest),
// which makes each entangled group a contiguous run of 8 PEs: group k is
// linear PEs [8k, 8k+8), sharing (channel, rank, bank) and differing in
// chip. That is the basis of the hypercube mapping (§ IV-C, Figure 6).
func (s *System) PEFromLinear(idx int) PEID {
	g := s.geo
	if idx < 0 || idx >= g.NumPEs() {
		panic(fmt.Sprintf("dram: linear PE %d out of range", idx))
	}
	chip := idx % ChipsPerRank
	idx /= ChipsPerRank
	bank := idx % g.BanksPerChip
	idx /= g.BanksPerChip
	rank := idx % g.RanksPerChannel
	channel := idx / g.RanksPerChannel
	return PEID{Channel: channel, Rank: rank, Chip: chip, Bank: bank}
}

// RankOfGroup returns the (channel, rank) that entangled group g lives in.
// Transfers to groups in different ranks can proceed in parallel
// (rank-level parallelism); groups in the same rank share the bus timing.
func (s *System) RankOfGroup(group int) (channel, rank int) {
	id := s.PEFromLinear(group * ChipsPerRank)
	return id.Channel, id.Rank
}

// MramSize returns the per-bank MRAM size.
func (s *System) MramSize() int { return s.geo.MramPerBank }

func (s *System) checkBurst(group, offset int) {
	if group < 0 || group >= s.geo.NumGroups() {
		panic(fmt.Sprintf("dram: group %d out of range", group))
	}
	if offset < 0 || offset%BankBurstBytes != 0 || offset+BankBurstBytes > s.geo.MramPerBank {
		panic(fmt.Sprintf("dram: burst offset %d invalid (mram %d)", offset, s.geo.MramPerBank))
	}
}

// ReadLanes reads one 64-byte burst from entangled group g at per-bank
// offset off (must be 8-byte aligned) in lane order: lane c of out is
// bank c's 8 bytes, out[8*c+w] = bank(c).mram[off+w]. It is the burst
// after the driver's domain transfer, and eight 8-byte word copies.
func (s *System) ReadLanes(group, off int, out *[BurstBytes]byte) {
	s.checkBacked("ReadLanes")
	s.checkBurst(group, off)
	banks := s.mram[group*ChipsPerRank : (group+1)*ChipsPerRank]
	for c, m := range banks {
		*(*[BankBurstBytes]byte)(out[c*BankBurstBytes:]) = [BankBurstBytes]byte(m[off:])
	}
}

// WriteLanes writes one 64-byte burst in lane order to entangled group g
// at per-bank offset off: bank(c).mram[off+w] = in[8*c+w].
func (s *System) WriteLanes(group, off int, in *[BurstBytes]byte) {
	s.checkBacked("WriteLanes")
	s.checkBurst(group, off)
	banks := s.mram[group*ChipsPerRank : (group+1)*ChipsPerRank]
	for c, m := range banks {
		*(*[BankBurstBytes]byte)(m[off:]) = [BankBurstBytes]byte(in[c*BankBurstBytes:])
	}
}

// ReadBurst reads one 64-byte burst from entangled group g at per-bank
// offset off (must be 8-byte aligned): the returned buffer interleaves the
// 8 banks byte-wise, exactly as the bytes appear on the channel bus. That
// is, out[i] = bank(i%8).mram[off + i/8] — ReadLanes transposed.
func (s *System) ReadBurst(group, off int, out *[BurstBytes]byte) {
	s.ReadLanes(group, off, out)
	var u vec.Unit
	*out = u.Transpose8x8(*out)
}

// WriteBurst writes one 64-byte burst to entangled group g at per-bank
// offset off, striping bytes exactly as the memory controller does:
// bank(i%8).mram[off + i/8] = in[i] — WriteLanes of in transposed.
func (s *System) WriteBurst(group, off int, in *[BurstBytes]byte) {
	var u vec.Unit
	lanes := [BurstBytes]byte(u.Transpose8x8(*in))
	s.WriteLanes(group, off, &lanes)
}

// checkSpan checks a run of len(buf)/BurstBytes bursts of entangled
// group g from per-bank offset off: its first and last burst.
func (s *System) checkSpan(op string, group, off int, buf []byte) {
	s.checkBacked(op)
	if len(buf)%BurstBytes != 0 {
		panic(fmt.Sprintf("dram: %s of %d B, not a multiple of %d", op, len(buf), BurstBytes))
	}
	if len(buf) > 0 {
		s.checkBurst(group, off)
		s.checkBurst(group, off+len(buf)/ChipsPerRank-BankBurstBytes)
	}
}

// ReadSpan reads n = len(dst)/8 bytes from each bank of entangled group g,
// from per-bank offset off on, into dst PE-major: bank c's n bytes land
// in dst[c*n:(c+1)*n], one copy per bank. It is what n/8 ReadLanes
// bursts deliver, regrouped by bank. len(dst) must be a multiple of
// BurstBytes.
func (s *System) ReadSpan(group, off int, dst []byte) {
	s.checkSpan("ReadSpan", group, off, dst)
	n := len(dst) / ChipsPerRank
	for c, m := range s.mram[group*ChipsPerRank : (group+1)*ChipsPerRank] {
		copy(dst[c*n:(c+1)*n], m[off:off+n])
	}
}

// WriteSpan is the inverse of ReadSpan: bank c of entangled group g
// receives src[c*n:(c+1)*n] at per-bank offset off, n = len(src)/8.
func (s *System) WriteSpan(group, off int, src []byte) {
	s.checkSpan("WriteSpan", group, off, src)
	n := len(src) / ChipsPerRank
	for c, m := range s.mram[group*ChipsPerRank : (group+1)*ChipsPerRank] {
		copy(m[off:off+n], src[c*n:(c+1)*n])
	}
}

// BankBytes exposes the raw MRAM of a PE for the DPU simulator (the PE can
// access its own bank directly, at MRAM bandwidth, without striping --
// that path never crosses the channel bus) and for core's column stream,
// which moves lane-order runs through it and books their bursts on a
// host.Shard.
func (s *System) BankBytes(linearPE int) []byte {
	s.checkBacked("BankBytes")
	if linearPE < 0 || linearPE >= s.geo.NumPEs() {
		panic(fmt.Sprintf("dram: PE %d out of range", linearPE))
	}
	return s.mram[linearPE]
}
