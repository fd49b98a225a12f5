package vec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/elem"
)

func seqReg() Reg {
	var r Reg
	for i := range r {
		r[i] = byte(i)
	}
	return r
}

func TestLoadStoreRoundTrip(t *testing.T) {
	var u Unit
	src := make([]byte, RegBytes)
	for i := range src {
		src[i] = byte(200 - i)
	}
	r := u.Load(src)
	dst := make([]byte, RegBytes)
	u.Store(dst, r)
	if !bytes.Equal(src, dst) {
		t.Fatal("load/store round trip mismatch")
	}
}

func TestRotBytesBasic(t *testing.T) {
	var u Unit
	r := seqReg()
	out := u.RotBytes(r, 1)
	if out[1] != 0 || out[0] != 63 {
		t.Errorf("RotBytes(1): out[1]=%d out[0]=%d", out[1], out[0])
	}
}

func TestRotBytesNegativeAndWrap(t *testing.T) {
	var u Unit
	r := seqReg()
	if u.RotBytes(r, -1) != u.RotBytes(r, 63) {
		t.Error("RotBytes(-1) != RotBytes(63)")
	}
	if u.RotBytes(r, 64) != r {
		t.Error("RotBytes(64) should be identity")
	}
	if u.RotBytes(r, 0) != r {
		t.Error("RotBytes(0) should be identity")
	}
}

func TestRotBytesComposition(t *testing.T) {
	var u Unit
	r := seqReg()
	a := u.RotBytes(u.RotBytes(r, 5), 7)
	b := u.RotBytes(r, 12)
	if a != b {
		t.Error("rotation composition failed")
	}
}

func TestRotBytesWithinHalves(t *testing.T) {
	var u Unit
	r := seqReg()
	out := u.RotBytesWithin(r, 32, 8)
	// Byte 0 moves to position 8; byte 31 wraps to position 7 within block 0.
	if out[8] != 0 {
		t.Errorf("out[8] = %d, want 0", out[8])
	}
	if out[7] != 31 {
		t.Errorf("out[7] = %d, want 31", out[7])
	}
	// Second block independent: byte 32 moves to position 40.
	if out[40] != 32 {
		t.Errorf("out[40] = %d, want 32", out[40])
	}
}

func TestRotBytesWithinFullBlockEqualsRotBytes(t *testing.T) {
	var u Unit
	r := seqReg()
	if u.RotBytesWithin(r, RegBytes, 13) != u.RotBytes(r, 13) {
		t.Error("RotBytesWithin(64, n) != RotBytes(n)")
	}
}

func TestRotBytesWithinBadBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var u Unit
	u.RotBytesWithin(seqReg(), 7, 1)
}

func TestRotLanesMovesWholeElements(t *testing.T) {
	var u Unit
	r := seqReg()
	out := u.RotLanes(r, 1)
	// Lane 0 (bytes 0..7) should now be at lane 1.
	if !bytes.Equal(out.Lane(1), r.Lane(0)) {
		t.Error("RotLanes(1) did not move lane 0 to lane 1")
	}
	if !bytes.Equal(out.Lane(0), r.Lane(7)) {
		t.Error("RotLanes(1) did not wrap lane 7 to lane 0")
	}
}

func TestRotLanesWithinSubGroups(t *testing.T) {
	var u Unit
	r := seqReg()
	out := u.RotLanesWithin(r, 4, 1)
	if !bytes.Equal(out.Lane(1), r.Lane(0)) || !bytes.Equal(out.Lane(0), r.Lane(3)) {
		t.Error("first sub-group rotation wrong")
	}
	if !bytes.Equal(out.Lane(5), r.Lane(4)) || !bytes.Equal(out.Lane(4), r.Lane(7)) {
		t.Error("second sub-group rotation wrong")
	}
}

func TestTranspose8x8IsInvolution(t *testing.T) {
	var u Unit
	r := seqReg()
	if u.Transpose8x8(u.Transpose8x8(r)) != r {
		t.Error("transpose twice != identity")
	}
}

func TestTranspose8x8Mapping(t *testing.T) {
	var u Unit
	r := seqReg()
	out := u.Transpose8x8(r)
	// in[8*w+k] -> out[8*k+w]: byte at word 2, pos 3 (=19) goes to 8*3+2=26.
	if out[26] != 19 {
		t.Errorf("out[26] = %d, want 19", out[26])
	}
}

// The cross-domain modulation identity (§ V-A3): the fused PIM-domain
// byte shift equals DT -> lane-rotate -> DT, for full entangled groups and
// for sub-groups.
func TestCrossDomainModulationIdentity(t *testing.T) {
	var u Unit
	rng := rand.New(rand.NewSource(7))
	for _, g := range []int{2, 4, 8} {
		for trial := 0; trial < 50; trial++ {
			var r Reg
			rng.Read(r[:])
			rot := rng.Intn(2*g) - g
			fused := u.RotBanks(r, g, rot)
			viaDT := u.Transpose8x8(u.RotLanesWithin(u.Transpose8x8(r), g, rot))
			if fused != viaDT {
				t.Fatalf("g %d trial %d rot %d: fused != via-DT", g, trial, rot)
			}
		}
	}
}

func TestRotBanksMovesElementIntact(t *testing.T) {
	var u Unit
	// Put a recognizable element in bank 2: in PIM domain that is byte 2 of
	// every aligned 8-byte word.
	var r Reg
	for w := 0; w < 8; w++ {
		r[8*w+2] = byte(0xA0 + w)
	}
	out := u.RotBanks(r, 8, 3) // bank 2 -> bank 5
	for w := 0; w < 8; w++ {
		if out[8*w+5] != byte(0xA0+w) {
			t.Fatalf("word %d: bank 5 byte = %#x, want %#x", w, out[8*w+5], 0xA0+w)
		}
	}
}

// Property-based: RotBytes preserves multiset of bytes and is a bijection.
func TestRotBytesIsPermutation(t *testing.T) {
	var u Unit
	f := func(seed int64, n int) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Reg
		rng.Read(r[:])
		out := u.RotBytes(r, n%200)
		var cin, cout [256]int
		for i := 0; i < RegBytes; i++ {
			cin[r[i]]++
			cout[out[i]]++
		}
		return cin == cout
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLaneSetLane(t *testing.T) {
	var r Reg
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	r.SetLane(3, b)
	if !bytes.Equal(r.Lane(3), b) {
		t.Error("SetLane/Lane mismatch")
	}
	if r.Lane(2)[0] != 0 {
		t.Error("SetLane touched neighboring lane")
	}
}

func TestLaneBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var r Reg
	r.Lane(8)
}

func TestBroadcastLane(t *testing.T) {
	var u Unit
	r := seqReg()
	out := u.BroadcastLane(r, 2)
	for l := 0; l < Lanes; l++ {
		if !bytes.Equal(out.Lane(l), r.Lane(2)) {
			t.Fatalf("lane %d not broadcast", l)
		}
	}
}

func TestReduceSumI32(t *testing.T) {
	var u Unit
	var a, b Reg
	elem.Fill(elem.I32, a[:], 100)
	elem.Fill(elem.I32, b[:], 23)
	out := u.Reduce(elem.I32, elem.Sum, a, b)
	for off := 0; off < RegBytes; off += 4 {
		if got := elem.Load(elem.I32, out[:], off); got != 123 {
			t.Fatalf("sum at %d = %d, want 123", off, got)
		}
	}
}

func TestReduceMinSigned(t *testing.T) {
	var u Unit
	var a, b Reg
	elem.Fill(elem.I16, a[:], -5)
	elem.Fill(elem.I16, b[:], 3)
	out := u.Reduce(elem.I16, elem.Min, a, b)
	if got := elem.Load(elem.I16, out[:], 0); got != -5 {
		t.Fatalf("min = %d, want -5", got)
	}
}

func TestReduceWrapsAtWidth(t *testing.T) {
	var u Unit
	var a, b Reg
	elem.Fill(elem.I8, a[:], 127)
	elem.Fill(elem.I8, b[:], 1)
	out := u.Reduce(elem.I8, elem.Sum, a, b)
	if got := elem.Load(elem.I8, out[:], 0); got != -128 {
		t.Fatalf("I8 wrap: got %d, want -128", got)
	}
}

func TestFillIdentityNeutral(t *testing.T) {
	var u Unit
	for _, typ := range elem.Types() {
		for _, op := range elem.Ops() {
			id := u.FillIdentity(typ, op)
			var x Reg
			rng := rand.New(rand.NewSource(int64(typ)*10 + int64(op)))
			rng.Read(x[:])
			got := u.Reduce(typ, op, id, x)
			if got != x {
				t.Errorf("%v/%v: identity not neutral", typ, op)
			}
		}
	}
}
