package dram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func testGeo() Geometry {
	return Geometry{Channels: 2, RanksPerChannel: 2, BanksPerChip: 4, MramPerBank: 1024}
}

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Geometry)
		ok   bool
	}{
		{"valid", func(g *Geometry) {}, true},
		{"paper", func(g *Geometry) { *g = PaperGeometry(4096) }, true},
		{"zero channels", func(g *Geometry) { g.Channels = 0 }, false},
		{"non-pow2 ranks", func(g *Geometry) { g.RanksPerChannel = 3 }, false},
		{"non-pow2 banks", func(g *Geometry) { g.BanksPerChip = 6 }, false},
		{"tiny mram", func(g *Geometry) { g.MramPerBank = 4 }, false},
		{"zero mram", func(g *Geometry) { g.MramPerBank = 0 }, false},
	}
	for _, tc := range cases {
		g := testGeo()
		tc.mut(&g)
		err := g.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPaperGeometryCounts(t *testing.T) {
	g := PaperGeometry(1 << 20)
	if got := g.NumPEs(); got != 1024 {
		t.Errorf("NumPEs = %d, want 1024", got)
	}
	if got := g.NumGroups(); got != 128 {
		t.Errorf("NumGroups = %d, want 128", got)
	}
}

// LinearPE is the inverse of PEFromLinear, the test's oracle for it.
func (s *System) LinearPE(id PEID) int {
	g := s.geo
	if id.Channel < 0 || id.Channel >= g.Channels ||
		id.Rank < 0 || id.Rank >= g.RanksPerChannel ||
		id.Chip < 0 || id.Chip >= ChipsPerRank ||
		id.Bank < 0 || id.Bank >= g.BanksPerChip {
		panic(fmt.Sprintf("dram: PE %+v out of range for %+v", id, g))
	}
	return id.Chip + ChipsPerRank*(id.Bank+g.BanksPerChip*(id.Rank+g.RanksPerChannel*id.Channel))
}

func TestLinearPERoundTrip(t *testing.T) {
	s, err := NewSystem(testGeo())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Geometry().NumPEs(); i++ {
		id := s.PEFromLinear(i)
		if got := s.LinearPE(id); got != i {
			t.Fatalf("round trip %d -> %+v -> %d", i, id, got)
		}
	}
}

func TestLinearPEOrderChipFastest(t *testing.T) {
	s, _ := NewSystem(testGeo())
	// Consecutive linear indices within a group differ only in chip.
	id0 := s.PEFromLinear(0)
	id1 := s.PEFromLinear(1)
	if id1.Chip != id0.Chip+1 || id1.Bank != id0.Bank || id1.Rank != id0.Rank || id1.Channel != id0.Channel {
		t.Errorf("linear order not chip-fastest: %+v then %+v", id0, id1)
	}
	// After 8 chips the bank advances.
	id8 := s.PEFromLinear(8)
	if id8.Bank != id0.Bank+1 || id8.Chip != 0 {
		t.Errorf("PE 8 should be next bank: %+v", id8)
	}
}

// Entangled group g is linear PEs [8g, 8g+8): one bank of one rank, in
// chip order.
func TestGroupPEsContiguous(t *testing.T) {
	s, _ := NewSystem(testGeo())
	for g := 0; g < s.Geometry().NumGroups(); g++ {
		first := s.PEFromLinear(g * ChipsPerRank)
		for c := 0; c < ChipsPerRank; c++ {
			id := s.PEFromLinear(g*ChipsPerRank + c)
			if id.Chip != c || id.Bank != first.Bank || id.Rank != first.Rank || id.Channel != first.Channel {
				t.Fatalf("group %d member %d has wrong coords %+v", g, c, id)
			}
		}
	}
}

func TestRankOfGroup(t *testing.T) {
	s, _ := NewSystem(testGeo())
	// Groups 0..BanksPerChip-1 are rank 0 channel 0; next BanksPerChip are rank 1.
	b := s.Geometry().BanksPerChip
	ch, rk := s.RankOfGroup(0)
	if ch != 0 || rk != 0 {
		t.Errorf("group 0 at (ch %d, rank %d)", ch, rk)
	}
	ch, rk = s.RankOfGroup(b)
	if ch != 0 || rk != 1 {
		t.Errorf("group %d at (ch %d, rank %d), want (0,1)", b, ch, rk)
	}
}

func TestBurstStriping(t *testing.T) {
	s, _ := NewSystem(testGeo())
	var in [BurstBytes]byte
	for i := range in {
		in[i] = byte(i)
	}
	s.WriteBurst(3, 16, &in)
	// Physical check: bank c of group 3 must hold bytes {c, 8+c, ...} at
	// offsets 16..23.
	for c := 0; c < ChipsPerRank; c++ {
		m := s.BankBytes(3*ChipsPerRank + c)
		for w := 0; w < BankBurstBytes; w++ {
			if m[16+w] != byte(8*w+c) {
				t.Fatalf("bank %d word %d = %d, want %d", c, w, m[16+w], 8*w+c)
			}
		}
	}
	var out [BurstBytes]byte
	s.ReadBurst(3, 16, &out)
	if out != in {
		t.Fatal("read-back mismatch")
	}
}

func TestBurstRoundTripProperty(t *testing.T) {
	s, _ := NewSystem(testGeo())
	f := func(seed int64, g, off uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		group := int(g) % s.Geometry().NumGroups()
		offset := (int(off) % (s.Geometry().MramPerBank/BankBurstBytes - 1)) * BankBurstBytes
		var in, out [BurstBytes]byte
		rng.Read(in[:])
		s.WriteBurst(group, offset, &in)
		s.ReadBurst(group, offset, &out)
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBurstsDoNotOverlap(t *testing.T) {
	s, _ := NewSystem(testGeo())
	var a, b [BurstBytes]byte
	for i := range a {
		a[i] = 0xAA
		b[i] = 0xBB
	}
	s.WriteBurst(0, 0, &a)
	s.WriteBurst(0, 8, &b)
	s.WriteBurst(1, 0, &b)
	var out [BurstBytes]byte
	s.ReadBurst(0, 0, &out)
	if out != a {
		t.Error("adjacent burst or group clobbered burst at (0,0)")
	}
}

func TestBurstAlignmentPanics(t *testing.T) {
	s, _ := NewSystem(testGeo())
	var buf [BurstBytes]byte
	for _, bad := range []struct{ group, off int }{
		{-1, 0}, {1000, 0}, {0, 4}, {0, -8}, {0, 1024},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for group=%d off=%d", bad.group, bad.off)
				}
			}()
			s.ReadBurst(bad.group, bad.off, &buf)
		}()
	}
}

func TestBankBytesIsLive(t *testing.T) {
	s, _ := NewSystem(testGeo())
	m := s.BankBytes(5)
	m[0] = 42
	if s.BankBytes(5)[0] != 42 {
		t.Error("BankBytes should return live storage")
	}
}

// A group's banks share one slab, but each is its own window of it: a
// bank's capacity ends with the bank, writing its last byte leaves its
// neighbor untouched, and an append to it copies instead of growing into
// the next bank.
func TestBanksAreDisjointWindows(t *testing.T) {
	geo := testGeo()
	s, _ := NewSystem(geo)
	for i := 0; i < geo.NumPEs(); i++ {
		if m := s.BankBytes(i); len(m) != geo.MramPerBank || cap(m) != geo.MramPerBank {
			t.Fatalf("bank %d: len %d cap %d, want both %d", i, len(m), cap(m), geo.MramPerBank)
		}
	}
	for i := 0; i+1 < geo.NumPEs(); i++ {
		s.BankBytes(i)[geo.MramPerBank-1] = 0xAB
		if next := s.BankBytes(i + 1); next[0] != 0 {
			t.Fatalf("writing bank %d's last byte changed bank %d's first to %#x", i, i+1, next[0])
		}
	}
	_ = append(s.BankBytes(0), 0xCD)
	if s.BankBytes(1)[0] != 0 {
		t.Fatal("an append to bank 0 wrote into bank 1")
	}
}

func TestNewSystemRejectsBadGeometry(t *testing.T) {
	if _, err := NewSystem(Geometry{}); err == nil {
		t.Error("expected error for zero geometry")
	}
}

// Writing a burst through WriteBurst and reading each bank's share directly
// must agree with reading the burst and slicing lanes after transpose; this
// pins the striping orientation used throughout the repo.
func TestStripingOrientationPinned(t *testing.T) {
	s, _ := NewSystem(testGeo())
	var in [BurstBytes]byte
	for i := range in {
		in[i] = byte(i * 3)
	}
	s.WriteBurst(2, 0, &in)
	for c := 0; c < ChipsPerRank; c++ {
		bank := s.BankBytes(2*ChipsPerRank + c)[:BankBurstBytes]
		want := make([]byte, BankBurstBytes)
		for w := range want {
			want[w] = in[8*w+c]
		}
		if !bytes.Equal(bank, want) {
			t.Fatalf("bank %d: got %v want %v", c, bank, want)
		}
	}
}
