package dram

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vec"
)

// readBurstOracle is the bus-order burst read one byte at a time:
// out[8*w+c] = bank(c).mram[off+w].
func readBurstOracle(s *System, group, off int, out *[BurstBytes]byte) {
	for c := 0; c < ChipsPerRank; c++ {
		m := s.BankBytes(group*ChipsPerRank + c)
		for w := 0; w < BankBurstBytes; w++ {
			out[8*w+c] = m[off+w]
		}
	}
}

// writeBurstOracle is the bus-order burst write one byte at a time.
func writeBurstOracle(s *System, group, off int, in *[BurstBytes]byte) {
	for c := 0; c < ChipsPerRank; c++ {
		m := s.BankBytes(group*ChipsPerRank + c)
		for w := 0; w < BankBurstBytes; w++ {
			m[off+w] = in[8*w+c]
		}
	}
}

func smallGeo() Geometry {
	return Geometry{Channels: 2, RanksPerChannel: 2, BanksPerChip: 2, MramPerBank: 256}
}

// randomSystem returns a system of geo whose MRAM holds random bytes.
func randomSystem(t *testing.T, geo Geometry, seed int64) *System {
	t.Helper()
	s, err := NewSystem(geo)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for pe := 0; pe < geo.NumPEs(); pe++ {
		rng.Read(s.BankBytes(pe))
	}
	return s
}

// At every 8-aligned offset of every group, the lane-order read is the
// bus-order read transposed, the bus-order read and write match their
// byte loops, and a lane write followed by a lane read returns the burst
// and leaves the neighboring bursts as they were.
func TestLanesMatchBusOrder(t *testing.T) {
	geo := smallGeo()
	s := randomSystem(t, geo, 1)
	ref := randomSystem(t, geo, 1)
	var u vec.Unit
	rng := rand.New(rand.NewSource(2))
	for g := 0; g < geo.NumGroups(); g++ {
		for off := 0; off < geo.MramPerBank; off += BankBurstBytes {
			var bus, want, lanes [BurstBytes]byte
			s.ReadBurst(g, off, &bus)
			readBurstOracle(ref, g, off, &want)
			if bus != want {
				t.Fatalf("group %d off %d: ReadBurst %x, byte loop %x", g, off, bus, want)
			}
			s.ReadLanes(g, off, &lanes)
			if lanes != u.Transpose8x8(bus) {
				t.Fatalf("group %d off %d: ReadLanes is not ReadBurst transposed", g, off)
			}

			var in, got [BurstBytes]byte
			rng.Read(in[:])
			s.WriteBurst(g, off, &in)
			writeBurstOracle(ref, g, off, &in)
			rng.Read(in[:])
			s.WriteLanes(g, off, &in)
			s.ReadLanes(g, off, &got)
			if got != in {
				t.Fatalf("group %d off %d: lane round trip %x, wrote %x", g, off, got, in)
			}
			lanes = u.Transpose8x8(in)
			writeBurstOracle(ref, g, off, &lanes)
		}
	}
	for pe := 0; pe < geo.NumPEs(); pe++ {
		if !bytes.Equal(s.BankBytes(pe), ref.BankBytes(pe)) {
			t.Fatalf("PE %d: lane writes and their byte-loop twins left different MRAM", pe)
		}
	}
}

// A span is the bursts it covers, regrouped by bank: ReadSpan of n bytes
// per bank equals n/8 ReadLanes, and WriteSpan writes exactly those bytes.
func TestSpanMatchesLanes(t *testing.T) {
	geo := smallGeo()
	s := randomSystem(t, geo, 3)
	for _, n := range []int{0, 8, 64, geo.MramPerBank} {
		for off := 0; off+n <= geo.MramPerBank; off += 8 * BankBurstBytes {
			for g := 0; g < geo.NumGroups(); g++ {
				span := make([]byte, ChipsPerRank*n)
				s.ReadSpan(g, off, span)
				for b := 0; b < n; b += BankBurstBytes {
					var lanes [BurstBytes]byte
					s.ReadLanes(g, off+b, &lanes)
					for c := 0; c < ChipsPerRank; c++ {
						if !bytes.Equal(span[c*n+b:c*n+b+8], lanes[8*c:8*c+8]) {
							t.Fatalf("group %d off %d n %d: bank %d word %d differs", g, off, n, c, b)
						}
					}
				}
				rand.New(rand.NewSource(int64(g))).Read(span)
				before := append([]byte(nil), s.BankBytes(g*ChipsPerRank)...)
				s.WriteSpan(g, off, span)
				back := make([]byte, len(span))
				s.ReadSpan(g, off, back)
				if !bytes.Equal(back, span) {
					t.Fatalf("group %d off %d n %d: span round trip mismatch", g, off, n)
				}
				after := s.BankBytes(g * ChipsPerRank)
				if !bytes.Equal(before[:off], after[:off]) || !bytes.Equal(before[off+n:], after[off+n:]) {
					t.Fatalf("group %d off %d n %d: WriteSpan wrote outside its span", g, off, n)
				}
			}
		}
	}
}

// The lane and span paths refuse, before touching MRAM, a misaligned
// offset, an offset or a span past MRAM, a bad group, a span that is not
// whole bursts, and any phantom system — each with dram's own message,
// not a runtime bounds error.
func TestLanesAndSpansPanic(t *testing.T) {
	geo := smallGeo()
	s, _ := NewSystem(geo)
	phantom, _ := NewPhantomSystem(geo)
	var burst [BurstBytes]byte
	span := make([]byte, 2*BurstBytes)
	calls := func(s *System) map[string]func(group, off int) {
		return map[string]func(group, off int){
			"ReadLanes":  func(g, off int) { s.ReadLanes(g, off, &burst) },
			"WriteLanes": func(g, off int) { s.WriteLanes(g, off, &burst) },
			"ReadBurst":  func(g, off int) { s.ReadBurst(g, off, &burst) },
			"WriteBurst": func(g, off int) { s.WriteBurst(g, off, &burst) },
			"ReadSpan":   func(g, off int) { s.ReadSpan(g, off, span) },
			"WriteSpan":  func(g, off int) { s.WriteSpan(g, off, span) },
		}
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "dram: ") {
				t.Errorf("%s: want a dram panic, got %q", what, msg)
			}
		}()
		fn()
	}
	last := geo.MramPerBank - BankBurstBytes
	for name, fn := range calls(s) {
		for _, bad := range []struct{ group, off int }{
			{0, 4}, {0, -8}, {0, geo.MramPerBank}, {-1, 0}, {geo.NumGroups(), 0},
		} {
			mustPanic(fmt.Sprintf("%s(%d, %d)", name, bad.group, bad.off), func() { fn(bad.group, bad.off) })
		}
		fn(0, last-BankBurstBytes) // a two-burst span ending at the last burst is fine
	}
	for name, fn := range calls(phantom) {
		mustPanic("phantom "+name, func() { fn(0, 0) })
	}
	mustPanic("ReadSpan past MRAM", func() { s.ReadSpan(0, last, span) })
	mustPanic("WriteSpan past MRAM", func() { s.WriteSpan(0, last, span) })
	mustPanic("ReadSpan of a partial burst", func() { s.ReadSpan(0, 0, make([]byte, 40)) })
	for pe := 0; pe < geo.NumPEs(); pe++ {
		if !bytes.Equal(s.BankBytes(pe), make([]byte, geo.MramPerBank)) {
			t.Fatalf("PE %d: a refused access wrote MRAM", pe)
		}
	}
}
