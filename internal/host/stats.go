package host

// XferStats summarizes the cumulative bus traffic a host has issued:
// useful for verifying that an implementation moves the bytes it claims
// (cmd/pidtrace prints it) and for asserting traffic in tests.
type XferStats struct {
	// Bursts is the total number of 64-byte bursts transferred.
	Bursts int64
	// BytesPerChannel is the cumulative traffic per channel.
	BytesPerChannel []int64
}

// TotalBytes returns the overall bus traffic.
func (s XferStats) TotalBytes() int64 {
	var t int64
	for _, b := range s.BytesPerChannel {
		t += b
	}
	return t
}

// Stats returns a snapshot of the host's cumulative transfer statistics.
// Safe to call while an execution runs on another goroutine (each counter
// is read atomically; a mid-execution snapshot may straddle a transfer).
func (h *Host) Stats() XferStats {
	out := XferStats{
		Bursts:          h.totalBursts.Load(),
		BytesPerChannel: make([]int64, len(h.totalByChan)),
	}
	for ch := range h.totalByChan {
		out.BytesPerChannel[ch] = h.totalByChan[ch].Load()
	}
	return out
}

// ResetStats zeroes the cumulative transfer statistics, so a host reused
// for one measurement after another (core's scratch tracer) starts each
// from nothing.
func (h *Host) ResetStats() {
	h.totalBursts.Store(0)
	for ch := range h.totalByChan {
		h.totalByChan[ch].Store(0)
	}
}

// ApplyStats merges a precomputed traffic delta into the cumulative
// statistics without moving bytes or charging time: the replay half of
// the compiled-plan path, whose bus time was recorded as a meter trace.
// The delta must come from a host over the same system geometry.
func (h *Host) ApplyStats(s XferStats) {
	h.totalBursts.Add(s.Bursts)
	for ch, b := range s.BytesPerChannel {
		h.totalByChan[ch].Add(b)
	}
}
