package core

import (
	"testing"

	"repro/internal/elem"
)

// TestFrontierStaysBounded submits thousands of plans without ever
// calling Flush, between serial Runs (barriers that flush) and
// ExtendElapsed barriers (which leave every entry dead in the ring): the
// hazard frontier must stay bounded — at most maxFrontier+1 live entries,
// the oldest retiring by advancing the barrier, and arrays that never
// grow past twice that — and elapsed must stay within the serial bound.
func TestFrontierStaysBounded(t *testing.T) {
	const m = 32 * 8
	c := asyncTestComm(t, true)
	ar := func(i int) Collective {
		base := (i % 8) * 2 * m
		return Collective{Prim: AllReduce, Dims: "1",
			Src: Span(base, m), Dst: At(base + m), Elem: elem.I32, Op: elem.Sum, Level: IM}
	}
	bound := func(i int) {
		c.execMu.Lock()
		defer c.execMu.Unlock()
		f := c.front
		if f == nil { // nothing placed yet
			return
		}
		live := 0
		for j := 0; j < f.n; j++ {
			if f.at(j).end > c.asyncBase {
				live++
			}
		}
		if live > maxFrontier+1 {
			t.Fatalf("submission %d: %d live entries without Flush (want at most %d)", i, live, maxFrontier+1)
		}
		if r, e := cap(f.ring), cap(f.ends); r > 2*(maxFrontier+1) || e > 2*(maxFrontier+1) {
			t.Fatalf("submission %d: ring capacity %d, ends capacity %d (want at most %d)", i, r, e, 2*(maxFrontier+1))
		}
	}
	bd, err := c.Run(ar(0))
	if err != nil {
		t.Fatal(err)
	}
	var last *Future
	for i := 0; i < 3000; i++ {
		switch {
		case i%1000 == 999:
			if _, err := c.Run(ar(i)); err != nil {
				t.Fatal(err)
			}
		case i%600 == 300:
			c.ExtendElapsed(bd)
		}
		f, err := c.Submit(ar(i))
		if err != nil {
			t.Fatal(err)
		}
		last = f
		if i%10 == 9 {
			bound(i)
		}
	}
	if err := last.Err(); err != nil {
		t.Fatal(err)
	}
	bound(3000)
	if el, work := c.Elapsed(), c.Meter().Snapshot().Total(); el > work+1e-9 {
		t.Fatalf("elapsed %v exceeds serial bound %v", el, work)
	}
}
