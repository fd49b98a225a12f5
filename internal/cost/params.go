package cost

// Params holds the hardware parameters of the simulated system. Defaults
// approximate the paper's testbed: an Intel Xeon Gold 5215 host with
// AVX-512 and four channels of four-rank UPMEM DIMMs (1024 DPUs).
//
// All bandwidths are bytes/second; throughputs are bytes/cycle on the host
// clock. The modulation thread is single (the paper's host-side modulation
// is single-handed, § III-A); vectorized phases get SIMD throughput.
type Params struct {
	// HostClockHz is the host core clock (Xeon Gold 5215: 2.5-3.4 GHz).
	HostClockHz float64

	// ChannelBW is the effective per-channel external-bus bandwidth for
	// rank-interleaved bulk transfers. DDR4-2400 peak is 19.2 GB/s; UPMEM
	// transfers reach roughly 60% of that in practice.
	ChannelBW float64

	// HostMemBW is the effective host main-memory streaming bandwidth
	// available to the (single-threaded) staging copies of the baseline
	// design.
	HostMemBW float64

	// ScalarModBPC is host bytes/cycle for the baseline's global data
	// modulation: pointer-chasing scatter/gather over a working set far
	// exceeding the caches.
	ScalarModBPC float64

	// LocalModBPC is host bytes/cycle for cache-friendly local modulation
	// after PE-assisted reordering confines movement to register-sized
	// neighborhoods.
	LocalModBPC float64

	// SIMDModBPC is host bytes/cycle for in-register modulation: one
	// AVX-512 shuffle/rotate processes 64 B in ~2-3 cycles. Plain
	// sequential replication (memcpy) also runs at this class.
	SIMDModBPC float64

	// ScalarRedBPC is host bytes/cycle for the baseline's scalar
	// reductions over staged data (load-add-store loops; the most
	// compute-intensive host-side work, § VIII-D).
	ScalarRedBPC float64

	// LocalRedBPC is host bytes/cycle for reductions over PE-pre-
	// reordered (cache-local) data.
	LocalRedBPC float64

	// DTBPC is host bytes/cycle for the vectorized 8x8 byte transpose of
	// a domain transfer.
	DTBPC float64

	// ReduceBPC is host bytes/cycle for vertical SIMD reductions.
	ReduceBPC float64

	// DPUMramBW is per-DPU MRAM streaming bandwidth (UPMEM: ~628 MB/s).
	DPUMramBW float64

	// DPUInstrHz is per-DPU retired-instruction throughput with the
	// pipeline saturated by >=11 tasklets (UPMEM: 350 MHz, ~1 IPC).
	DPUInstrHz float64

	// KernelLaunch is the fixed host-side cost of launching a kernel on a
	// set of ranks and synchronizing completion.
	KernelLaunch Seconds

	// RankParallel enables the rank-level transfer parallelism of the
	// UPMEM driver (transfers to different ranks of a channel pipeline).
	// Disabling it serializes per-rank transfers (ablation).
	RankParallel bool

	// DSAOffload models the paper's § IX-B what-if: a future Intel Data
	// Streaming Accelerator that supports shifting, addition and domain
	// transfers, replacing the host core for PID-Comm's data modulation.
	// When enabled, host-side DT/modulation/reduction run DSAFactor times
	// faster and overlap better with transfers.
	DSAOffload bool

	// DSAFactor is the modulation-throughput multiplier when DSAOffload
	// is set (a DSA moves/transforms at near-memory bandwidth instead of
	// core-pipeline throughput).
	DSAFactor float64

	// Net models the inter-host network of the multi-host study (§ IX-A):
	// link bandwidth and latency plus efficiency, NIC striping, switch
	// tiers and deterministic skew (see NetParams).
	Net NetParams
}

// DefaultParams returns the calibrated defaults, approximating the
// testbed that Params and each of its fields describe (§ VIII-A).
func DefaultParams() Params {
	return Params{
		HostClockHz:  3.0e9,
		ChannelBW:    12.8e9,
		HostMemBW:    20.0e9,
		ScalarModBPC: 3.0,
		LocalModBPC:  9.0,
		SIMDModBPC:   48.0,
		ScalarRedBPC: 2.2,
		LocalRedBPC:  4.5,
		DTBPC:        16.0,
		ReduceBPC:    32.0,
		DPUMramBW:    628e6,
		DPUInstrHz:   350e6,
		KernelLaunch: 20e-6,
		RankParallel: true,
		DSAOffload:   false,
		DSAFactor:    4.0,
		Net:          DefaultNetParams(),
	}
}

// HostCycles converts a host cycle count to seconds.
func (p Params) HostCycles(n float64) Seconds { return Seconds(n / p.HostClockHz) }

// HostBytesAt converts a byte count processed at bpc bytes/cycle to seconds.
func (p Params) HostBytesAt(bytes int64, bpc float64) Seconds {
	if bpc <= 0 {
		panic("cost: non-positive bytes/cycle")
	}
	return p.HostCycles(float64(bytes) / bpc)
}

// DPUInstrTime converts a DPU instruction count to seconds on one DPU.
func (p Params) DPUInstrTime(n int64) Seconds { return Seconds(float64(n) / p.DPUInstrHz) }

// Validate reports whether all parameters are physically meaningful.
func (p Params) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{p.HostClockHz > 0, "HostClockHz"},
		{p.ChannelBW > 0, "ChannelBW"},
		{p.HostMemBW > 0, "HostMemBW"},
		{p.ScalarModBPC > 0, "ScalarModBPC"},
		{p.LocalModBPC > 0, "LocalModBPC"},
		{p.SIMDModBPC > 0, "SIMDModBPC"},
		{p.ScalarRedBPC > 0, "ScalarRedBPC"},
		{p.LocalRedBPC > 0, "LocalRedBPC"},
		{p.DTBPC > 0, "DTBPC"},
		{p.ReduceBPC > 0, "ReduceBPC"},
		{p.DPUMramBW > 0, "DPUMramBW"},
		{p.DPUInstrHz > 0, "DPUInstrHz"},
		{p.KernelLaunch >= 0, "KernelLaunch"},
		{p.DSAFactor > 0 || !p.DSAOffload, "DSAFactor"},
	}
	for _, c := range checks {
		if !c.ok {
			return &ParamError{Field: c.what}
		}
	}
	return p.Net.Validate()
}

// ParamError reports an invalid Params field.
type ParamError struct{ Field string }

func (e *ParamError) Error() string { return "cost: invalid parameter " + e.Field }
