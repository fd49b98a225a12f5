package vec

import "repro/internal/elem"

// Reduce performs a vertical (lane-parallel) elementwise reduction of two
// registers: out = op(a, b) per element of type t. This is the single-SIMD-
// instruction vertical reduction that in-register modulation relies on
// (§ V-B2): elements to be combined are placed in different registers but
// identical slots, so one instruction reduces a whole burst.
func (u *Unit) Reduce(t elem.Type, op elem.Op, a, b Reg) Reg {
	elem.ReduceInto(t, op, a[:], b[:])
	return a
}
