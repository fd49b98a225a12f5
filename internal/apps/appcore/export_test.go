package appcore

// ResetPool drops every idle machine, so the next run of any key builds a
// fresh one.
func ResetPool() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	clear(pool.idle)
	pool.bytes = 0
}

// IdleMachines is the number of machines the pool holds.
func IdleMachines() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.idle)
}

// IdleBudget is the pool's byte bound.
const IdleBudget = idleBudget

// IdleBytes returns the byte count the pool keeps and, summed afresh, the
// MRAM and arena bytes of its idle machines.
func IdleBytes() (counted, held int) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for k, m := range pool.idle {
		held += k.geo.NumPEs()*k.geo.MramPerBank + len(m.arena)
	}
	return pool.bytes, held
}
