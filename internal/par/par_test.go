package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// sumRunner records per-shard coverage of [0, n).
type sumRunner struct {
	hits   []atomic.Int32
	shards []atomic.Int32 // shard index that claimed each element
}

func (r *sumRunner) RunShard(shard, lo, hi int) {
	for i := lo; i < hi; i++ {
		r.hits[i].Add(1)
		r.shards[i].Store(int32(shard + 1))
	}
}

func checkCoverage(t *testing.T, workers, n int) {
	t.Helper()
	r := &sumRunner{hits: make([]atomic.Int32, n), shards: make([]atomic.Int32, n)}
	Do(workers, n, r)
	for i := range r.hits {
		if got := r.hits[i].Load(); got != 1 {
			t.Fatalf("workers=%d n=%d: element %d visited %d times", workers, n, i, got)
		}
	}
	// Shards must be contiguous and in index order.
	last := int32(0)
	for i := range r.shards {
		s := r.shards[i].Load()
		if s < last {
			t.Fatalf("workers=%d n=%d: shard order not monotone at %d", workers, n, i)
		}
		last = s
	}
}

func TestDoCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{1, 2, 7, 64, 1000} {
			checkCoverage(t, workers, n)
		}
	}
}

func TestDoZeroOrNegativeN(t *testing.T) {
	r := &sumRunner{}
	Do(4, 0, r)  // must not call RunShard
	Do(4, -3, r) // ditto
}

func TestDoSerialRunsInline(t *testing.T) {
	// workers <= 1 must run on the calling goroutine with no pool use.
	var ran bool
	Do(1, 100, runnerFunc(func(shard, lo, hi int) {
		if shard != 0 || lo != 0 || hi != 100 {
			t.Fatalf("inline shard (%d,%d,%d), want (0,0,100)", shard, lo, hi)
		}
		ran = true
	}))
	if !ran {
		t.Fatal("inline runner did not run")
	}
}

type runnerFunc func(shard, lo, hi int)

func (f runnerFunc) RunShard(shard, lo, hi int) { f(shard, lo, hi) }

// Nested Do from inside a shard must not deadlock: inner calls recruit
// only idle helpers and otherwise run inline on the (busy) worker.
func TestNestedDoDoesNotDeadlock(t *testing.T) {
	var total atomic.Int64
	Do(runtime.GOMAXPROCS(0)+2, 16, runnerFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			Do(4, 8, runnerFunc(func(_, lo2, hi2 int) {
				total.Add(int64(hi2 - lo2))
			}))
		}
	}))
	if got := total.Load(); got != 16*8 {
		t.Fatalf("nested Do covered %d elements, want %d", got, 16*8)
	}
}

// Repeated Do calls recycle job descriptors; run many rounds under -race
// to shake out reuse bugs.
func TestDoStressReuse(t *testing.T) {
	for round := 0; round < 200; round++ {
		var sum atomic.Int64
		Do(4, 37, runnerFunc(func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(int64(i))
			}
		}))
		if got := sum.Load(); got != 37*36/2 {
			t.Fatalf("round %d: sum %d, want %d", round, got, 37*36/2)
		}
	}
}

func TestSerialDoDoesNotAllocate(t *testing.T) {
	r := runnerFunc(func(_, _, _ int) {})
	if avg := testing.AllocsPerRun(100, func() { Do(1, 1000, r) }); avg > 0 {
		t.Fatalf("serial Do allocates %.1f times per call", avg)
	}
}

// A shard that panics on whichever goroutine ran it — a pool helper
// included — must surface as a panic of Do's caller with the shard's
// value, after the join; the helpers survive and later calls see a clean
// job.
func TestDoRepanicsShardPanicOnCaller(t *testing.T) {
	for round := 0; round < 50; round++ {
		var ran atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			Do(4, 64, runnerFunc(func(shard, _, _ int) {
				ran.Add(1)
				if shard >= 2 {
					panic("shard down")
				}
			}))
			return nil
		}()
		if got != "shard down" {
			t.Fatalf("round %d: recovered %v, want the shard's panic value", round, got)
		}
		if n := ran.Load(); n < 1 || n > 4 {
			t.Fatalf("round %d: %d shards ran", round, n)
		}
		checkCoverage(t, 4, 64)
	}
}
