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

import "fmt"

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

// RotBytes rotates the whole register left by n bytes (n may be negative
// or larger than RegBytes). One shuffle instruction.
func (u *Unit) RotBytes(r Reg, n int) Reg {
	n = mod(n, RegBytes)
	var out Reg
	for i := 0; i < RegBytes; i++ {
		out[(i+n)%RegBytes] = r[i]
	}
	return out
}

// RotBytesWithin rotates bytes left by n within each consecutive block of
// blockBytes bytes. It implements lane rotation for communication groups
// smaller than an entangled group (Figure 9: a group of 4 PEs occupies half
// a burst, so rotation must stay within the 32-byte half). blockBytes must
// divide RegBytes. One shuffle instruction.
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

// RotLanes rotates the 8 64-bit lanes left by n lanes. Used for host-domain
// (post-domain-transfer) word-level shifts in in-register modulation.
// One permute instruction.
func (u *Unit) RotLanes(r Reg, n int) Reg {
	return u.RotBytes(r, n*LaneBytes) // same shuffle, different granularity
}

// RotBanks is the fused byte-level shift of cross-domain modulation
// (§ V-A3). In the PIM byte domain, byte i of a burst belongs to bank i%8,
// so an 8-byte element of bank k occupies byte k of every aligned 8-byte
// word. Rotating each 8-byte word left by rot bytes therefore moves every
// element intact from bank k to bank (k+rot)%g within its sub-group of g
// banks, with no domain transfer. It is exactly what _mm512_rol_epi64
// performs on real hardware; it equals DT -> RotLanesWithin(g, rot) -> DT
// but costs a single instruction. g must divide Lanes.
func (u *Unit) RotBanks(r Reg, g, rot int) Reg {
	if g <= 0 || Lanes%g != 0 {
		panic(fmt.Sprintf("vec: bank group %d does not divide %d", g, Lanes))
	}
	return u.RotBytesWithin(r, g, rot)
}

// RotLanesWithin rotates lanes left by n within consecutive groups of
// groupLanes lanes. groupLanes must divide Lanes.
func (u *Unit) RotLanesWithin(r Reg, groupLanes, n int) Reg {
	if groupLanes <= 0 || Lanes%groupLanes != 0 {
		panic(fmt.Sprintf("vec: groupLanes %d does not divide %d", groupLanes, Lanes))
	}
	return u.RotBytesWithin(r, groupLanes*LaneBytes, n*LaneBytes)
}

// Transpose8x8 transposes the register seen as an 8x8 byte matrix:
// out[8*k+w] = in[8*w+k]. This is exactly one burst's domain transfer
// (§ II-B): it converts between host byte order and PIM byte order.
// It is an involution. Modeled as a short shuffle sequence (3 instructions,
// matching a log2(8)-step in-register transpose network).
func (u *Unit) Transpose8x8(r Reg) Reg {
	var out Reg
	for w := 0; w < 8; w++ {
		for k := 0; k < 8; k++ {
			out[8*k+w] = r[8*w+k]
		}
	}
	return out
}

// Lane returns lane i as a byte slice view of a copy (8 bytes).
func (r Reg) Lane(i int) []byte {
	if i < 0 || i >= Lanes {
		panic(fmt.Sprintf("vec: lane %d out of range", i))
	}
	out := make([]byte, LaneBytes)
	copy(out, r[i*LaneBytes:(i+1)*LaneBytes])
	return out
}

// SetLane overwrites lane i with the first 8 bytes of b.
func (r *Reg) SetLane(i int, b []byte) {
	if i < 0 || i >= Lanes {
		panic(fmt.Sprintf("vec: lane %d out of range", i))
	}
	copy(r[i*LaneBytes:(i+1)*LaneBytes], b[:LaneBytes])
}

// BroadcastLane returns a register with every lane equal to lane i of r.
// One broadcast instruction.
func (u *Unit) BroadcastLane(r Reg, i int) Reg {
	lane := r.Lane(i)
	var out Reg
	for l := 0; l < Lanes; l++ {
		copy(out[l*LaneBytes:], lane)
	}
	return out
}

func mod(n, m int) int {
	n %= m
	if n < 0 {
		n += m
	}
	return n
}
