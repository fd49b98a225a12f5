package data

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// Ints is rand.Rand.Intn value for value, and leaves the stream where
// Intn leaves it, over a million draws per seed at the bounds the apps
// draw with; PutInts writes the same values.
func TestIntsMatchRandIntn(t *testing.T) {
	for _, n := range []int32{7, 15} {
		for _, seed := range []int64{1, 2, 77, 131, 9000} {
			want := rand.New(rand.NewSource(seed))
			got := make([]int64, 1<<20)
			rng := rand.New(rand.NewSource(seed))
			Ints(rng, got, -n/2, n/2)
			for i, g := range got {
				if w := int64(want.Intn(int(n)) - int(n/2)); w != g {
					t.Fatalf("n=%d seed %d draw %d: Ints %d, rand.Intn %d", n, seed, i, g, w)
				}
			}
			if want.Int63() != rng.Int63() {
				t.Fatalf("n=%d seed %d: the streams part after 2^20 draws", n, seed)
			}
			words := make([]byte, 4*len(got))
			PutInts(rand.New(rand.NewSource(seed)), words, -n/2, n/2)
			for i, g := range got {
				if w := int64(int32(binary.LittleEndian.Uint32(words[4*i:]))); w != g {
					t.Fatalf("n=%d seed %d word %d: PutInts %d, Ints %d", n, seed, i, w, g)
				}
			}
		}
	}
}

// edgeSource replays fixed Int63 values: Int31 is their top 31 bits.
type edgeSource struct {
	vals []int64
	i    int
}

func (s *edgeSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *edgeSource) Seed(int64) {}

// The rejection bound is where a copy of Int31n goes wrong: draws at, just
// past and far past it, alone and in runs, are rejected or kept exactly as
// rand.Intn rejects or keeps them, by Ints and by PutInts. Powers of two
// reject nothing.
func TestIntsRejectAtTheBound(t *testing.T) {
	for _, n := range []int32{7, 15, 1, 8, 1 << 30, 1<<31 - 1} {
		max := int64((1 << 31) - 1 - (1<<31)%uint32(n))
		var vals []int64
		for _, top := range []int64{0, 1, max - 1, max, max + 1, max + 2, 1<<31 - 1, max + 1, max, max + 1, 1<<31 - 1, 5} {
			if top > 1<<31-1 {
				continue
			}
			vals = append(vals, top<<32, top<<32|0xffffffff)
		}
		want, rng := rand.New(&edgeSource{vals: vals}), rand.New(&edgeSource{vals: vals})
		got := make([]int32, 4*len(vals))
		Ints(rng, got, 0, n-1)
		for i, g := range got {
			if w := int32(want.Intn(int(n))); w != g {
				t.Fatalf("n=%d draw %d: Ints %d, rand.Intn %d", n, i, g, w)
			}
		}
		if want.Int63() != rng.Int63() {
			t.Fatalf("n=%d: the streams part", n)
		}
		words := make([]byte, 4*len(got))
		PutInts(rand.New(&edgeSource{vals: vals}), words, 0, n-1)
		for i, g := range got {
			if w := int32(binary.LittleEndian.Uint32(words[4*i:])); w != g {
				t.Fatalf("n=%d word %d: PutInts %d, Ints %d", n, i, w, g)
			}
		}
	}
}
