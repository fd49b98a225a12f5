// Package vec models the host CPU's 512-bit vector unit.
//
// PID-Comm's in-register and cross-domain modulation are register-level
// byte permutations executed with AVX-512 instructions on the real system
// (§ VI-B cites _mm512_rol_epi64 and friends). This package performs the
// identical permutations on real bytes, so collective results are
// bit-exact; the cost model charges them per schedule step, not per
// instruction.
//
// A Reg is exactly one DDR4 burst (64 bytes), which is also the unit PID-Comm
// streams between the host and an entangled group of 8 banks.
package vec

import (
	"encoding/binary"
	"fmt"
)

// RegBytes is the register width in bytes (AVX-512 / one DDR4 burst).
const RegBytes = 64

// Lanes is the number of 64-bit lanes in a register; it equals the number
// of banks (PEs) in an entangled group, which is why one register holds one
// element from each PE of a group.
const Lanes = 8

// LaneBytes is the width of one 64-bit lane.
const LaneBytes = 8

// Reg is a 512-bit vector register.
type Reg [RegBytes]byte

// Unit is a vector execution unit. It holds no state, so the zero value
// is ready to use: the schedule step that issues its instructions
// declares their cost.
type Unit struct{}

// Load fills a register from src (len >= RegBytes). One vector load.
func (u *Unit) Load(src []byte) Reg {
	var r Reg
	copy(r[:], src[:RegBytes])
	return r
}

// Store writes the register to dst (len >= RegBytes). One vector store.
func (u *Unit) Store(dst []byte, r Reg) {
	copy(dst[:RegBytes], r[:])
}

// RotBytesWithin rotates bytes left by n within each consecutive block of
// blockBytes bytes (n may be negative or larger than the block; a block
// of RegBytes rotates the whole register). It implements lane rotation
// for communication groups smaller than an entangled group (Figure 9: a
// group of 4 PEs occupies half a burst, so rotation must stay within the
// 32-byte half). blockBytes must divide RegBytes. One shuffle instruction.
func (u *Unit) RotBytesWithin(r Reg, blockBytes, n int) Reg {
	if blockBytes <= 0 || RegBytes%blockBytes != 0 {
		panic(fmt.Sprintf("vec: blockBytes %d does not divide %d", blockBytes, RegBytes))
	}
	n = mod(n, blockBytes)
	var out Reg
	for base := 0; base < RegBytes; base += blockBytes {
		for i := 0; i < blockBytes; i++ {
			out[base+(i+n)%blockBytes] = r[base+i]
		}
	}
	return out
}

// RotBanks is the fused byte-level shift of cross-domain modulation
// (§ V-A3). In the PIM byte domain, byte i of a burst belongs to bank i%8,
// so an 8-byte element of bank k occupies byte k of every aligned 8-byte
// word. Rotating each 8-byte word left by rot bytes therefore moves every
// element intact from bank k to bank (k+rot)%g within its sub-group of g
// banks, with no domain transfer. It is exactly what _mm512_rol_epi64
// performs on real hardware; it equals DT -> lane rotation within groups
// of g lanes -> DT but costs a single instruction. g must divide Lanes.
func (u *Unit) RotBanks(r Reg, g, rot int) Reg {
	if g <= 0 || Lanes%g != 0 {
		panic(fmt.Sprintf("vec: bank group %d does not divide %d", g, Lanes))
	}
	return u.RotBytesWithin(r, g, rot)
}

// Transpose8x8 transposes the register seen as an 8x8 byte matrix:
// out[8*k+w] = in[8*w+k]. This is exactly one burst's domain transfer
// (§ II-B): it converts between host byte order and PIM byte order.
// It is an involution. Like the log2(8)-step in-register network it
// models (3 shuffle instructions), it swaps the off-diagonal 4x4, then
// 2x2, then 1x1 byte blocks, each stage a mask-and-shift of row pairs
// of the eight 64-bit rows.
func (u *Unit) Transpose8x8(r Reg) Reg {
	le := binary.LittleEndian
	w0, w1, w2, w3 := le.Uint64(r[0:]), le.Uint64(r[8:]), le.Uint64(r[16:]), le.Uint64(r[24:])
	w4, w5, w6, w7 := le.Uint64(r[32:]), le.Uint64(r[40:]), le.Uint64(r[48:]), le.Uint64(r[56:])
	const k32, k16, k8 = 0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF
	w0, w4 = swapBlocks(w0, w4, 32, k32)
	w1, w5 = swapBlocks(w1, w5, 32, k32)
	w2, w6 = swapBlocks(w2, w6, 32, k32)
	w3, w7 = swapBlocks(w3, w7, 32, k32)
	w0, w2 = swapBlocks(w0, w2, 16, k16)
	w1, w3 = swapBlocks(w1, w3, 16, k16)
	w4, w6 = swapBlocks(w4, w6, 16, k16)
	w5, w7 = swapBlocks(w5, w7, 16, k16)
	w0, w1 = swapBlocks(w0, w1, 8, k8)
	w2, w3 = swapBlocks(w2, w3, 8, k8)
	w4, w5 = swapBlocks(w4, w5, 8, k8)
	w6, w7 = swapBlocks(w6, w7, 8, k8)
	var out Reg
	le.PutUint64(out[0:], w0)
	le.PutUint64(out[8:], w1)
	le.PutUint64(out[16:], w2)
	le.PutUint64(out[24:], w3)
	le.PutUint64(out[32:], w4)
	le.PutUint64(out[40:], w5)
	le.PutUint64(out[48:], w6)
	le.PutUint64(out[56:], w7)
	return out
}

// swapBlocks trades the bytes of row a outside keep (its high block of
// each pair of shift-bit blocks) with the bytes of row b inside keep
// (its low block): one stage of the transpose network for one row pair.
func swapBlocks(a, b uint64, shift uint, keep uint64) (uint64, uint64) {
	return a&keep | b<<shift&^keep, b&^keep | a>>shift&keep
}

func mod(n, m int) int {
	n %= m
	if n < 0 {
		n += m
	}
	return n
}
