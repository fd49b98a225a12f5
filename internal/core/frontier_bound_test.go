package core

import (
	"testing"

	"repro/internal/elem"
)

// TestFrontierStaysBounded submits thousands of plans without ever
// calling Flush: the hazard frontier must stay bounded (oldest entries
// retire by advancing the barrier) and elapsed must stay within the
// serial bound.
func TestFrontierStaysBounded(t *testing.T) {
	const m = 32 * 8
	c := asyncTestComm(t, true)
	var last *Future
	for i := 0; i < 3000; i++ {
		base := (i % 8) * 2 * m
		f, err := c.Submit(Collective{Prim: AllReduce, Dims: "1",
			Src: Span(base, m), Dst: At(base + m), Elem: elem.I32, Op: elem.Sum, Level: IM})
		if err != nil {
			t.Fatal(err)
		}
		last = f
	}
	if err := last.Err(); err != nil {
		t.Fatal(err)
	}
	c.execMu.Lock()
	n := len(c.frontier)
	c.execMu.Unlock()
	if n > 300 {
		t.Fatalf("frontier grew to %d entries without Flush (want bounded)", n)
	}
	if el, work := c.Elapsed(), c.Meter().Snapshot().Total(); el > work+1e-9 {
		t.Fatalf("elapsed %v exceeds serial bound %v", el, work)
	}
}
