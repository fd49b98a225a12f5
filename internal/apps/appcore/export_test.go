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
