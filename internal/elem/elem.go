// Package elem defines the element data types and reduction operators
// supported by PID-Comm's arithmetic primitives (§ V-C "Data types"):
// signed integers of 8/16/32/64 bits with SUM/MIN/MAX/OR/AND/XOR
// reductions, encoded little-endian in the simulated memories.
package elem

import (
	"encoding/binary"
	"fmt"
)

// Type is an element data type.
type Type int

const (
	// I8 is an 8-bit signed integer. Notably, 8-bit elements can be
	// interpreted by the host without domain transfer (§ V-C), which
	// enables cross-domain modulation even for reducing primitives.
	I8 Type = iota
	// I16 is a 16-bit signed integer.
	I16
	// I32 is a 32-bit signed integer.
	I32
	// I64 is a 64-bit signed integer.
	I64
)

// Types lists all supported element types.
func Types() []Type { return []Type{I8, I16, I32, I64} }

// Size returns the element size in bytes.
func (t Type) Size() int {
	switch t {
	case I8:
		return 1
	case I16:
		return 2
	case I32:
		return 4
	case I64:
		return 8
	default:
		panic(fmt.Sprintf("elem: unknown type %d", int(t)))
	}
}

// String returns the conventional name (INT8, ...).
func (t Type) String() string {
	switch t {
	case I8:
		return "INT8"
	case I16:
		return "INT16"
	case I32:
		return "INT32"
	case I64:
		return "INT64"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Op is a reduction operator.
type Op int

const (
	// Sum adds elements (wrapping two's-complement).
	Sum Op = iota
	// Min takes the signed minimum (used by Connected Components).
	Min
	// Max takes the signed maximum.
	Max
	// Or is bitwise OR (used by BFS frontier updates).
	Or
	// And is bitwise AND.
	And
	// Xor is bitwise XOR.
	Xor
)

// Ops lists all supported reduction operators.
func Ops() []Op { return []Op{Sum, Min, Max, Or, And, Xor} }

// String returns the conventional name (SUM, ...).
func (o Op) String() string {
	switch o {
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Or:
		return "OR"
	case And:
		return "AND"
	case Xor:
		return "XOR"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Load reads the element at byte offset off of buf as a signed value
// widened to int64.
func Load(t Type, buf []byte, off int) int64 {
	switch t {
	case I8:
		return int64(int8(buf[off]))
	case I16:
		return int64(int16(binary.LittleEndian.Uint16(buf[off:])))
	case I32:
		return int64(int32(binary.LittleEndian.Uint32(buf[off:])))
	case I64:
		return int64(binary.LittleEndian.Uint64(buf[off:]))
	default:
		panic(fmt.Sprintf("elem: unknown type %d", int(t)))
	}
}

// Store writes v (truncated to the type's width) at byte offset off of buf.
func Store(t Type, buf []byte, off int, v int64) {
	switch t {
	case I8:
		buf[off] = byte(v)
	case I16:
		binary.LittleEndian.PutUint16(buf[off:], uint16(v))
	case I32:
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
	case I64:
		binary.LittleEndian.PutUint64(buf[off:], uint64(v))
	default:
		panic(fmt.Sprintf("elem: unknown type %d", int(t)))
	}
}

// Combine applies the operator to two values already widened to int64.
// For Sum the result wraps at the target width only when stored.
func (o Op) Combine(a, b int64) int64 {
	switch o {
	case Sum:
		return a + b
	case Min:
		if b < a {
			return b
		}
		return a
	case Max:
		if b > a {
			return b
		}
		return a
	case Or:
		return a | b
	case And:
		return a & b
	case Xor:
		return a ^ b
	default:
		panic(fmt.Sprintf("elem: unknown op %d", int(o)))
	}
}

// Identity returns the operator's identity element for type t.
func (o Op) Identity(t Type) int64 {
	bits := uint(t.Size() * 8)
	switch o {
	case Sum, Or, Xor:
		return 0
	case And:
		return -1 // all ones at any width
	case Min:
		// Maximum representable signed value at this width.
		return int64(1)<<(bits-1) - 1
	case Max:
		// Minimum representable signed value at this width.
		return -(int64(1) << (bits - 1))
	default:
		panic(fmt.Sprintf("elem: unknown op %d", int(o)))
	}
}

// ReduceInto combines src into dst elementwise: dst[i] = op(dst[i], src[i])
// for len(dst)/t.Size() elements. len(dst) must equal len(src) and be a
// multiple of the element size. The op is chosen once per call, not per
// element: Sum and the bitwise ops fold a 64-bit word of elements at a
// time, Min and Max run one loop per type.
func ReduceInto(t Type, o Op, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("elem: length mismatch %d != %d", len(dst), len(src)))
	}
	sz := t.Size()
	if len(dst)%sz != 0 {
		panic(fmt.Sprintf("elem: length %d not a multiple of element size %d", len(dst), sz))
	}
	if o == Min || o == Max {
		minMaxInto(t, o == Max, dst, src)
		return
	}
	n := len(dst) &^ 7
	wordsInto(o, signBits[t], dst[:n], src[:n])
	for off := n; off < len(dst); off += sz { // the bytes past the last word
		Store(t, dst, off, o.Combine(Load(t, dst, off), Load(t, src, off)))
	}
}

// signBits[t] has the sign bit of every element of type t in a 64-bit
// word set.
var signBits = [...]uint64{
	I8:  0x8080808080808080,
	I16: 0x8000800080008000,
	I32: 0x8000000080000000,
	I64: 0x8000000000000000,
}

// wordsInto folds src into dst (whole 64-bit words) with Sum or a bitwise
// op. The bitwise ops ignore element boundaries; Sum adds the bits below
// each element's sign bit (sign set in signs) with carries that stay
// inside the element, then adds the sign bits mod 2, so every element
// wraps at its own width.
func wordsInto(o Op, signs uint64, dst, src []byte) {
	le := binary.LittleEndian
	switch o {
	case Sum:
		for i := 0; i < len(dst); i += 8 {
			a, b := le.Uint64(dst[i:]), le.Uint64(src[i:])
			le.PutUint64(dst[i:], ((a&^signs)+(b&^signs))^((a^b)&signs))
		}
	case Or:
		for i := 0; i < len(dst); i += 8 {
			le.PutUint64(dst[i:], le.Uint64(dst[i:])|le.Uint64(src[i:]))
		}
	case And:
		for i := 0; i < len(dst); i += 8 {
			le.PutUint64(dst[i:], le.Uint64(dst[i:])&le.Uint64(src[i:]))
		}
	case Xor:
		for i := 0; i < len(dst); i += 8 {
			le.PutUint64(dst[i:], le.Uint64(dst[i:])^le.Uint64(src[i:]))
		}
	default:
		panic(fmt.Sprintf("elem: unknown op %d", int(o)))
	}
}

// minMaxInto is ReduceInto's Min (max false) and Max: one loop per type,
// overwriting each element of dst its src element beats.
func minMaxInto(t Type, max bool, dst, src []byte) {
	le := binary.LittleEndian
	switch t {
	case I8:
		for i := range dst {
			if a, b := int8(dst[i]), int8(src[i]); a != b && (b > a) == max {
				dst[i] = byte(b)
			}
		}
	case I16:
		for i := 0; i < len(dst); i += 2 {
			if a, b := int16(le.Uint16(dst[i:])), int16(le.Uint16(src[i:])); a != b && (b > a) == max {
				le.PutUint16(dst[i:], uint16(b))
			}
		}
	case I32:
		for i := 0; i < len(dst); i += 4 {
			if a, b := int32(le.Uint32(dst[i:])), int32(le.Uint32(src[i:])); a != b && (b > a) == max {
				le.PutUint32(dst[i:], uint32(b))
			}
		}
	case I64:
		for i := 0; i < len(dst); i += 8 {
			if a, b := int64(le.Uint64(dst[i:])), int64(le.Uint64(src[i:])); a != b && (b > a) == max {
				le.PutUint64(dst[i:], uint64(b))
			}
		}
	}
}

// Fill writes v into every element of buf.
func Fill(t Type, buf []byte, v int64) {
	sz := t.Size()
	for off := 0; off+sz <= len(buf); off += sz {
		Store(t, buf, off, v)
	}
}
