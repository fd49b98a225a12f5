package dram

import (
	"math/rand"
	"testing"
)

const arenaTestMram = 1 << 12 // 4 KiB per bank keeps the state space small

// CarvedBytes returns the per-bank bytes currently carved into arenas.
func (s *System) CarvedBytes() int {
	s.carveMu.Lock()
	defer s.carveMu.Unlock()
	return s.carvedLocked()
}

func arenaTestSystem(t *testing.T) *System {
	t.Helper()
	geo := Geometry{Channels: 1, RanksPerChannel: 1, BanksPerChip: 1, MramPerBank: arenaTestMram}
	s, err := NewPhantomSystem(geo)
	if err != nil {
		t.Fatalf("NewPhantomSystem: %v", err)
	}
	return s
}

// checkAllocatorInvariants asserts the free list is sorted, aligned,
// maximally coalesced, and exactly partitions MRAM together with the
// live arenas.
func checkAllocatorInvariants(t *testing.T, s *System, live []Arena) {
	t.Helper()
	free := s.FreeSpans()
	prevEnd := -1
	freeBytes := 0
	for i, f := range free {
		if f.Bytes <= 0 || f.Base < 0 || f.End() > arenaTestMram {
			t.Fatalf("free span %d malformed: %+v", i, f)
		}
		if f.Base%BankBurstBytes != 0 || f.Bytes%BankBurstBytes != 0 {
			t.Fatalf("free span %d unaligned: %+v", i, f)
		}
		if f.Base <= prevEnd {
			t.Fatalf("free list not sorted/coalesced at %d: %v", i, free)
		}
		prevEnd = f.End()
		freeBytes += f.Bytes
	}
	liveBytes := 0
	for i, a := range live {
		liveBytes += a.Bytes
		// Live arenas must not overlap each other...
		for _, b := range live[i+1:] {
			if a.Base < b.End() && b.Base < a.End() {
				t.Fatalf("live arenas overlap: %+v vs %+v", a, b)
			}
		}
		// ...or any free span.
		for _, f := range free {
			if a.Base < f.End() && f.Base < a.End() {
				t.Fatalf("live arena %+v overlaps free span %+v", a, f)
			}
		}
	}
	if liveBytes+freeBytes != arenaTestMram {
		t.Fatalf("live (%d) + free (%d) != MRAM (%d)", liveBytes, freeBytes, arenaTestMram)
	}
	if got := s.CarvedBytes(); got != liveBytes {
		t.Fatalf("CarvedBytes = %d, want %d", got, liveBytes)
	}
}

// TestArenaChurnProperty drives random alloc/free/realloc sequences and
// checks the tentpole invariant: live arenas never overlap each other or
// the free list, and releasing everything always re-coalesces the
// allocator to its initial single-span free state.
func TestArenaChurnProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := arenaTestSystem(t)
		var live []Arena
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || len(live) == 0: // alloc
				bytes := 1 + rng.Intn(arenaTestMram/4)
				a, err := s.CarveArena(bytes)
				if err == nil {
					live = append(live, a)
				} else if s.LargestFree() >= bytes+BankBurstBytes {
					t.Fatalf("seed %d step %d: carve %d failed with %d free: %v",
						seed, step, bytes, s.LargestFree(), err)
				}
			case op == 1: // free
				i := rng.Intn(len(live))
				if err := s.FreeArena(live[i]); err != nil {
					t.Fatalf("seed %d step %d: free %+v: %v", seed, step, live[i], err)
				}
				live = append(live[:i], live[i+1:]...)
			default: // realloc: free then immediately re-carve a new size
				i := rng.Intn(len(live))
				if err := s.FreeArena(live[i]); err != nil {
					t.Fatalf("seed %d step %d: free %+v: %v", seed, step, live[i], err)
				}
				live = append(live[:i], live[i+1:]...)
				if a, err := s.CarveArena(1 + rng.Intn(arenaTestMram/4)); err == nil {
					live = append(live, a)
				}
			}
			checkAllocatorInvariants(t, s, live)
		}
		// Tear everything down: the allocator must return to one
		// fully-coalesced span covering all of MRAM.
		for _, a := range live {
			if err := s.FreeArena(a); err != nil {
				t.Fatalf("seed %d teardown free %+v: %v", seed, a, err)
			}
		}
		free := s.FreeSpans()
		if len(free) != 1 || free[0] != (Arena{Base: 0, Bytes: arenaTestMram}) {
			t.Fatalf("seed %d: allocator did not re-coalesce: %v", seed, free)
		}
	}
}

func TestArenaFirstFitReusesLowestBase(t *testing.T) {
	s := arenaTestSystem(t)
	a, _ := s.CarveArena(256)
	b, _ := s.CarveArena(256)
	c, _ := s.CarveArena(256)
	if a.Base != 0 || b.Base != 256 || c.Base != 512 {
		t.Fatalf("sequential carve gave %v %v %v", a, b, c)
	}
	if err := s.FreeArena(b); err != nil {
		t.Fatalf("free b: %v", err)
	}
	// A fit-sized carve must reuse the freed hole, not the tail.
	d, err := s.CarveArena(128)
	if err != nil || d.Base != 256 {
		t.Fatalf("carve after free gave %v, %v; want base 256", d, err)
	}
	// An oversized carve skips the hole remainder and lands past c.
	e, err := s.CarveArena(512)
	if err != nil || e.Base != 768 {
		t.Fatalf("oversized carve gave %v, %v; want base 768", e, err)
	}
}

func TestArenaFreeRejectsDoubleAndMalformed(t *testing.T) {
	s := arenaTestSystem(t)
	a, _ := s.CarveArena(256)
	if err := s.FreeArena(a); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := s.FreeArena(a); err == nil {
		t.Fatal("double free not rejected")
	}
	b, _ := s.CarveArena(256)
	for _, bad := range []Arena{
		{Base: b.Base, Bytes: 0},
		{Base: b.Base, Bytes: -8},
		{Base: b.Base + 3, Bytes: 8},
		{Base: b.Base, Bytes: 13},
		{Base: arenaTestMram - 8, Bytes: 16},
		{Base: -8, Bytes: 8},
	} {
		if err := s.FreeArena(bad); err == nil {
			t.Fatalf("malformed free %+v not rejected", bad)
		}
	}
	// A span straddling a live arena's tail and the free region beyond
	// it partially overlaps the free list: also a double free.
	c, _ := s.CarveArena(256)
	if err := s.FreeArena(Arena{Base: c.End() - 8, Bytes: 16}); err == nil {
		t.Fatal("overlapping free not rejected")
	}
}

func TestArenaExhaustionReportsLargestFree(t *testing.T) {
	s := arenaTestSystem(t)
	if _, err := s.CarveArena(arenaTestMram + 8); err == nil {
		t.Fatal("oversized carve not rejected")
	}
	a, err := s.CarveArena(arenaTestMram)
	if err != nil {
		t.Fatalf("full-size carve: %v", err)
	}
	if s.LargestFree() != 0 {
		t.Fatalf("LargestFree = %d after full carve", s.LargestFree())
	}
	if _, err := s.CarveArena(8); err == nil {
		t.Fatal("carve from empty pool not rejected")
	}
	if err := s.FreeArena(a); err != nil {
		t.Fatalf("free full arena: %v", err)
	}
	if s.LargestFree() != arenaTestMram {
		t.Fatalf("LargestFree = %d after full free", s.LargestFree())
	}
}
