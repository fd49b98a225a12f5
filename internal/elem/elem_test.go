package elem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSizes(t *testing.T) {
	want := map[Type]int{I8: 1, I16: 2, I32: 4, I64: 8}
	for ty, sz := range want {
		if ty.Size() != sz {
			t.Errorf("%v.Size() = %d, want %d", ty, ty.Size(), sz)
		}
	}
}

func TestStrings(t *testing.T) {
	if I8.String() != "INT8" || I64.String() != "INT64" {
		t.Error("type names wrong")
	}
	if Sum.String() != "SUM" || Xor.String() != "XOR" {
		t.Error("op names wrong")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	f := func(v int64, off uint8) bool {
		buf := make([]byte, 64)
		for _, ty := range Types() {
			o := int(off) % (64 - 8)
			Store(ty, buf, o, v)
			got := Load(ty, buf, o)
			// The round trip truncates to the type's width and
			// sign-extends back.
			bits := uint(ty.Size() * 8)
			want := v << (64 - bits) >> (64 - bits)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineSemantics(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, w int64
	}{
		{Sum, 3, 4, 7},
		{Min, -5, 2, -5},
		{Max, -5, 2, 2},
		{Or, 0b0101, 0b0011, 0b0111},
		{And, 0b0101, 0b0011, 0b0001},
		{Xor, 0b0101, 0b0011, 0b0110},
	}
	for _, c := range cases {
		if got := c.op.Combine(c.a, c.b); got != c.w {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
}

// Every operator must be commutative and associative at every width —
// the property that makes multi-instance reductions order-independent.
func TestOpsCommutativeAssociativeProperty(t *testing.T) {
	for _, op := range Ops() {
		for _, ty := range Types() {
			op, ty := op, ty
			f := func(a, b, c int64) bool {
				buf := make([]byte, 8)
				norm := func(v int64) int64 {
					Store(ty, buf, 0, v)
					return Load(ty, buf, 0)
				}
				a, b, c = norm(a), norm(b), norm(c)
				comm := norm(op.Combine(a, b)) == norm(op.Combine(b, a))
				asc := norm(op.Combine(norm(op.Combine(a, b)), c)) ==
					norm(op.Combine(a, norm(op.Combine(b, c))))
				return comm && asc
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Errorf("%v/%v: %v", op, ty, err)
			}
		}
	}
}

// Identity elements must be neutral at the stored width.
func TestIdentityNeutralProperty(t *testing.T) {
	for _, op := range Ops() {
		for _, ty := range Types() {
			op, ty := op, ty
			f := func(v int64) bool {
				buf := make([]byte, 8)
				Store(ty, buf, 0, v)
				v = Load(ty, buf, 0)
				got := op.Combine(op.Identity(ty), v)
				Store(ty, buf, 0, got)
				return Load(ty, buf, 0) == v
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Errorf("%v/%v identity not neutral: %v", op, ty, err)
			}
		}
	}
}

func TestReduceInto(t *testing.T) {
	dst := make([]byte, 8)
	src := make([]byte, 8)
	Fill(I16, dst, 10)
	Fill(I16, src, -3)
	ReduceInto(I16, Sum, dst, src)
	for off := 0; off < 8; off += 2 {
		if got := Load(I16, dst, off); got != 7 {
			t.Fatalf("dst[%d] = %d, want 7", off, got)
		}
	}
}

// reduceIntoOracle is ReduceInto one element at a time: Load, Combine,
// Store.
func reduceIntoOracle(t Type, o Op, dst, src []byte) {
	for off := 0; off < len(dst); off += t.Size() {
		Store(t, dst, off, o.Combine(Load(t, dst, off), Load(t, src, off)))
	}
}

// ReduceInto's word and per-type loops agree with the per-element oracle
// for every type and op: on the extremes of each width, -1, 0 and 1 against
// each other (Sum wraps, Min and Max compare signed), on random bytes, and
// on lengths with and without a partial last word.
func TestReduceIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, ty := range Types() {
		sz := ty.Size()
		bits := uint(8 * sz)
		special := []int64{-(int64(1) << (bits - 1)), int64(1)<<(bits-1) - 1, -1, 0, 1}
		for _, o := range Ops() {
			// Every ordered pair of special values, then random elements.
			var a, b []byte
			for _, x := range special {
				for _, y := range special {
					a, b = append(a, make([]byte, sz)...), append(b, make([]byte, sz)...)
					Store(ty, a, len(a)-sz, x)
					Store(ty, b, len(b)-sz, y)
				}
			}
			r := make([]byte, 64*sz)
			rng.Read(r)
			a = append(a, r[:32*sz]...)
			b = append(b, r[32*sz:]...)
			for _, n := range []int{0, sz, 8, 8 + sz, len(a) - sz, len(a)} {
				n -= n % sz
				got, want := append([]byte(nil), a[:n]...), append([]byte(nil), a[:n]...)
				ReduceInto(ty, o, got, b[:n])
				reduceIntoOracle(ty, o, want, b[:n])
				if !bytes.Equal(got, want) {
					t.Fatalf("%v %v over %d bytes:\n got %x\nwant %x", ty, o, n, got, want)
				}
			}
		}
	}
}

func TestReduceIntoPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ReduceInto(I32, Sum, make([]byte, 8), make([]byte, 4)) }, // length mismatch
		func() { ReduceInto(I32, Sum, make([]byte, 6), make([]byte, 6)) }, // not multiple of size
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFillPartialTail(t *testing.T) {
	buf := make([]byte, 10) // not a multiple of 4
	Fill(I32, buf, -1)
	if Load(I32, buf, 0) != -1 || Load(I32, buf, 4) != -1 {
		t.Error("fill missed aligned elements")
	}
	if buf[8] != 0 || buf[9] != 0 {
		t.Error("fill wrote past the last whole element")
	}
}

func TestSumWrapsAtWidth(t *testing.T) {
	buf := make([]byte, 2)
	Store(I16, buf, 0, 32767)
	v := Sum.Combine(Load(I16, buf, 0), 1)
	Store(I16, buf, 0, v)
	if got := Load(I16, buf, 0); got != -32768 {
		t.Errorf("I16 wrap: got %d", got)
	}
}
