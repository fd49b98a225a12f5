package main

import (
	"math"
	"sort"
)

// summary describes one pooled host-time sample set: the median the
// metrics are built on, the quartiles that give the spread, the p90 (the
// highest percentile a few dozen passes support) and the sample count.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90"`
}

// summarize sorts a copy of xs and reads the summary off it.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Median: quantile(s, 0.50),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		P90:    quantile(s, 0.90),
	}
}

// quantile interpolates linearly between the order statistics of the
// ascending-sorted s.
func quantile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is summarize(xs).Median for callers that need nothing else.
func median(xs []float64) float64 { return summarize(xs).Median }

// nearestRank returns the nearest-rank p-quantile of the ascending-sorted
// s — the definition internal/serve uses for its sojourn percentiles, so
// simulated percentiles computed here agree with Result.SLO bit for bit.
func nearestRank(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	r := int(math.Ceil(p * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
