// Package par provides the fixed worker pool the functional backend
// shards schedule-step work across (see the "Parallel functional
// backend" chapter of the README).
//
// The pool is a process-wide set of GOMAXPROCS helper goroutines parked
// on an unbuffered channel, started lazily on first use. Do splits an
// index range [0, n) into at most `workers` contiguous shards and runs
// them via a Runner; the calling goroutine always participates, so a
// serial Do (workers <= 1) is a plain function call with no channel
// traffic, no goroutines and no allocation — the property the zero-alloc
// cached-replay path of internal/core relies on.
//
// Determinism contract: Do makes no promise about which shard runs on
// which goroutine or in which order shards complete. Callers must
// therefore only submit work whose shards are mutually independent
// (write-disjoint) and must merge any shard-local accumulations
// themselves, in shard order, after Do returns. Do establishes the
// happens-before edges: everything before Do is visible to every shard,
// and every shard's writes are visible after Do returns.
//
// A shard that panics does not take the process down with a pool helper:
// Do recovers it wherever it ran, lets the shards already running finish,
// and re-panics the first recovered value on the calling goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes one contiguous shard [lo, hi) of a Do call. Shard is
// the shard index in [0, shards); implementations typically use it to
// pick a per-shard scratch context.
type Runner interface {
	RunShard(shard, lo, hi int)
}

// job is one in-flight Do call. Helpers and the caller claim shards from
// next until exhausted; wg counts outstanding helper hand-offs so the
// job can be recycled only after every helper is done touching it.
type job struct {
	r      Runner
	n      int32
	shards int32
	next   atomic.Int32
	wg     sync.WaitGroup

	mu       sync.Mutex
	panicVal any // first value recovered from a shard (never nil), re-raised by Do
}

var (
	jobPool  = sync.Pool{New: func() any { return new(job) }}
	poolOnce sync.Once
	workCh   chan *job
	poolSize int
)

// startPool launches the process-wide helpers. The pool size is fixed at
// the GOMAXPROCS value of first use: more helpers than schedulable
// threads cannot add parallelism, and Do degrades gracefully (the caller
// runs shards itself) when fewer helpers are free than requested.
func startPool() {
	poolSize = runtime.GOMAXPROCS(0)
	workCh = make(chan *job)
	for i := 0; i < poolSize; i++ {
		go func() {
			for j := range workCh {
				j.run()
				j.wg.Done()
			}
		}()
	}
}

// run claims and executes shards until none remain. A panicking shard
// ends the job early: its value is kept for Do and no further shard is
// claimed by anyone.
func (j *job) run() {
	n, shards, r := int(j.n), int(j.shards), j.r
	defer func() {
		if v := recover(); v != nil {
			j.next.Store(j.shards)
			j.mu.Lock()
			if j.panicVal == nil {
				j.panicVal = v
			}
			j.mu.Unlock()
		}
	}()
	for {
		k := int(j.next.Add(1)) - 1
		if k >= shards {
			return
		}
		lo, hi := k*n/shards, (k+1)*n/shards
		if lo < hi {
			r.RunShard(k, lo, hi)
		}
	}
}

// Do partitions [0, n) into min(workers, n) contiguous shards and runs
// r.RunShard on each, using up to workers-1 idle pool helpers plus the
// calling goroutine. It returns after every shard has completed.
//
// workers <= 1 (or n <= 1) runs the whole range inline on the caller —
// the exact serial path, with zero synchronization and zero allocation.
// Helpers are recruited with non-blocking sends: if the pool is busy
// (including nested Do calls issued from inside a shard), the caller
// simply runs more shards itself, so Do never deadlocks.
//
// If a shard panics, Do panics with that value on the calling goroutine
// once every recruited helper is done with the job; shards not yet
// claimed are skipped.
func Do(workers, n int, r Runner) {
	if n <= 0 {
		return
	}
	shards := workers
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		r.RunShard(0, 0, n)
		return
	}
	poolOnce.Do(startPool)
	j := jobPool.Get().(*job)
	j.r, j.n, j.shards = r, int32(n), int32(shards)
	j.next.Store(0)
	for i := 1; i < shards; i++ {
		// Add before the send so a helper's Done can never race the
		// final Wait; on a failed (pool-saturated) send the token is
		// returned immediately and recruitment stops.
		j.wg.Add(1)
		sent := false
		select {
		case workCh <- j:
			sent = true
		default:
		}
		if !sent {
			j.wg.Done()
			break
		}
	}
	j.run()
	j.wg.Wait()
	v := j.panicVal
	j.r, j.panicVal = nil, nil
	jobPool.Put(j)
	if v != nil {
		panic(v)
	}
}
