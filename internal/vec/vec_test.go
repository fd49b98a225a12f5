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

// rotBytes rotates the whole register left by n bytes, one byte at a
// time: the oracle of RotBytesWithin's whole-register case.
func rotBytes(r Reg, n int) Reg {
	n = mod(n, RegBytes)
	var out Reg
	for i := 0; i < RegBytes; i++ {
		out[(i+n)%RegBytes] = r[i]
	}
	return out
}

// rotLanesWithin rotates lanes left by n within consecutive groups of
// groupLanes lanes: the host-domain half of the cross-domain modulation
// identity.
func rotLanesWithin(r Reg, groupLanes, n int) Reg {
	var u Unit
	return u.RotBytesWithin(r, groupLanes*LaneBytes, n*LaneBytes)
}

// lane is lane i of r.
func lane(r *Reg, i int) []byte { return r[i*LaneBytes : (i+1)*LaneBytes] }

// transposeOracle is Transpose8x8 one byte at a time.
func transposeOracle(r Reg) Reg {
	var out Reg
	for w := 0; w < 8; w++ {
		for k := 0; k < 8; k++ {
			out[8*k+w] = r[8*w+k]
		}
	}
	return out
}

// RotBytesWithin over one whole-register block rotates the register.
func TestRotBytesBasic(t *testing.T) {
	var u Unit
	r := seqReg()
	out := u.RotBytesWithin(r, RegBytes, 1)
	if out[1] != 0 || out[0] != 63 {
		t.Errorf("RotBytesWithin(64, 1): out[1]=%d out[0]=%d", out[1], out[0])
	}
}

func TestRotBytesNegativeAndWrap(t *testing.T) {
	var u Unit
	r := seqReg()
	if u.RotBytesWithin(r, RegBytes, -1) != u.RotBytesWithin(r, RegBytes, 63) {
		t.Error("rotation by -1 != rotation by 63")
	}
	if u.RotBytesWithin(r, RegBytes, 64) != r {
		t.Error("rotation by 64 should be identity")
	}
	if u.RotBytesWithin(r, RegBytes, 0) != r {
		t.Error("rotation by 0 should be identity")
	}
}

func TestRotBytesComposition(t *testing.T) {
	var u Unit
	r := seqReg()
	for _, blk := range []int{2, 8, 32, RegBytes} {
		a := u.RotBytesWithin(u.RotBytesWithin(r, blk, 5), blk, 7)
		b := u.RotBytesWithin(r, blk, 12)
		if a != b {
			t.Errorf("block %d: rotation composition failed", blk)
		}
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
	for n := -70; n <= 70; n++ {
		if u.RotBytesWithin(r, RegBytes, n) != rotBytes(r, n) {
			t.Fatalf("RotBytesWithin(64, %d) != the byte-loop rotation", n)
		}
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

// In host byte order (lane c = bank c's element) a lane rotation is the
// PIM-order RotBanks conjugated by the domain transfer.
func TestRotLanesMovesWholeElements(t *testing.T) {
	var u Unit
	r := seqReg()
	out := u.Transpose8x8(u.RotBanks(u.Transpose8x8(r), 8, 1))
	// Lane 0 (bytes 0..7) should now be at lane 1.
	if !bytes.Equal(lane(&out, 1), lane(&r, 0)) {
		t.Error("lane rotation by 1 did not move lane 0 to lane 1")
	}
	if !bytes.Equal(lane(&out, 0), lane(&r, 7)) {
		t.Error("lane rotation by 1 did not wrap lane 7 to lane 0")
	}
}

func TestRotLanesWithinSubGroups(t *testing.T) {
	var u Unit
	r := seqReg()
	for _, out := range []Reg{rotLanesWithin(r, 4, 1), u.Transpose8x8(u.RotBanks(u.Transpose8x8(r), 4, 1))} {
		if !bytes.Equal(lane(&out, 1), lane(&r, 0)) || !bytes.Equal(lane(&out, 0), lane(&r, 3)) {
			t.Error("first sub-group rotation wrong")
		}
		if !bytes.Equal(lane(&out, 5), lane(&r, 4)) || !bytes.Equal(lane(&out, 4), lane(&r, 7)) {
			t.Error("second sub-group rotation wrong")
		}
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

// The word transpose agrees with the byte loop on structured registers
// (one byte set, one row set, one column set, the sequence, all ones) and
// on 10^4 random ones.
func TestTranspose8x8MatchesByteLoop(t *testing.T) {
	var u Unit
	var regs []Reg
	for i := 0; i < RegBytes; i++ {
		var r Reg
		r[i] = 0xFF
		regs = append(regs, r)
	}
	for k := 0; k < 8; k++ {
		var row, col Reg
		for w := 0; w < 8; w++ {
			row[8*k+w] = byte(0x10*k + w + 1)
			col[8*w+k] = byte(0x10*w + k + 1)
		}
		regs = append(regs, row, col)
	}
	var ones Reg
	for i := range ones {
		ones[i] = 0xFF
	}
	regs = append(regs, seqReg(), ones)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		var r Reg
		rng.Read(r[:])
		regs = append(regs, r)
	}
	for i, r := range regs {
		if got, want := u.Transpose8x8(r), transposeOracle(r); got != want {
			t.Fatalf("register %d: Transpose8x8 %x, byte loop %x", i, got, want)
		}
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
			viaDT := u.Transpose8x8(rotLanesWithin(u.Transpose8x8(r), g, rot))
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

// Property-based: rotating bytes preserves their multiset (a bijection),
// at every block size.
func TestRotBytesIsPermutation(t *testing.T) {
	var u Unit
	f := func(seed int64, n int, b uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Reg
		rng.Read(r[:])
		out := u.RotBytesWithin(r, 1<<(b%7), n%200)
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

// A register filled with op's identity is neutral under Reduce, which
// is why a fold may copy its first operand instead of reducing it into an
// identity fill.
func TestFillIdentityNeutral(t *testing.T) {
	var u Unit
	for _, typ := range elem.Types() {
		for _, op := range elem.Ops() {
			var id Reg
			elem.Fill(typ, id[:], op.Identity(typ))
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
