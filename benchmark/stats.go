package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest ranks (the same rule as Python's
// statistics.quantiles(method="inclusive")). NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s) {
		hi = len(s) - 1
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// series is one metric's raw measurements, kept round by round so the
// report can give the value, its sample count and the quartiles across
// rounds.
//
// With Q == 0 every round contributes the mean of its samples (a batch
// mean) and the value is the median over rounds. With Q > 0 the value is
// the Q-quantile of all samples pooled over the measured rounds, or with
// ByRound the median over rounds of each round's own Q-quantile: a stall
// that slows a hundred consecutive operations lifts a pooled p95 by a
// quarter and leaves the median of twelve rounds' p95 where it was.
// ByRound wants rounds of a few hundred samples, so that ten or more lie
// beyond the quantile in each.
type series struct {
	Q       float64
	ByRound bool
	rounds  [][]float64
}

func (s *series) add(round ...float64) {
	if len(round) > 0 {
		s.rounds = append(s.rounds, round)
	}
}

func (s *series) pooled() []float64 {
	var all []float64
	for _, r := range s.rounds {
		all = append(all, r...)
	}
	return all
}

// perRound reduces each round to one number by the series' own rule.
func (s *series) perRound() []float64 {
	out := make([]float64, 0, len(s.rounds))
	for _, r := range s.rounds {
		if s.Q == 0 {
			out = append(out, stats.Mean(r))
		} else {
			out = append(out, percentile(r, s.Q))
		}
	}
	return out
}

func (s *series) value() float64 {
	if s.Q == 0 || s.ByRound {
		return stats.Median(s.perRound())
	}
	return percentile(s.pooled(), s.Q)
}

// measurement is one reported metric value with its evidence.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value; Rounds the number of
	// measured rounds; Q1/Q3 the quartiles of the per-round values.
	N      int     `json:"n"`
	Rounds int     `json:"rounds"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func (s *series) measure(unit string) measurement {
	pr := s.perRound()
	return measurement{
		Value:  s.value(),
		Unit:   unit,
		N:      len(s.pooled()),
		Rounds: len(pr),
		Q1:     percentile(pr, 0.25),
		Q3:     percentile(pr, 0.75),
	}
}

// single is a measurement that is one number, not a sample set.
func single(v float64, unit string) measurement {
	return measurement{Value: v, Unit: unit, N: 1, Rounds: 1, Q1: v, Q3: v}
}

// spread is the interquartile range as a share of the median: the
// run-to-run (or round-to-round) noise figure the compare rule uses.
func spread(q1, q3, median float64) float64 {
	if median == 0 || math.IsNaN(median) {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(median)
}
