package main

import (
	"fmt"
	"os"
	"time"
)

// phaseResult is what one phase of a run measured.
type phaseResult struct {
	Attempted, Failed int
	// Wall is the phase's whole duration; Timed the part spent inside
	// timed operations.
	Wall, Timed time.Duration
	// Setup holds, per measured round, the round's duration minus its time
	// inside timed operations: world build, launches, counter prep,
	// verification, teardown, the collection between rounds.
	Setup []float64
	// Series holds the raw samples of each end-to-end metric the phase
	// produces.
	Series map[string]*series
	// Layer holds per-layer values measured inside the phase (traced
	// runs only).
	Layer map[string]float64
	// Counters holds the phase's visible event counts: things a correct
	// run may do but should do rarely (retries after a transient refusal,
	// migrations whose DONE was not confirmed). They are reported beside
	// ops_failed and gated by -compare.
	Counters map[string]events
	// Headline is the phase's main figure, for trace.overhead_pct;
	// HigherBetter gives its direction.
	Headline     float64
	HigherBetter bool

	complaints int
}

func newPhaseResult() *phaseResult {
	return &phaseResult{Series: make(map[string]*series), Layer: make(map[string]float64), Counters: make(map[string]events)}
}

// merge appends another slice of the same phase: its rounds follow this
// slice's rounds in every series, its counts add up.
func (r *phaseResult) merge(o *phaseResult) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Wall += o.Wall
	r.Timed += o.Timed
	r.Setup = append(r.Setup, o.Setup...)
	for name, s := range o.Series {
		// Two series of a phase may share one sample set (p50 and p95 of
		// the same operations); the capacity cap keeps each append its own.
		mine := r.Series[name]
		mine.rounds = append(mine.rounds[:len(mine.rounds):len(mine.rounds)], s.rounds...)
	}
	for name, ev := range o.Counters {
		r.count(name, ev.N, ev.Of)
	}
}

func (r *phaseResult) series(name string, q float64) *series {
	s, ok := r.Series[name]
	if !ok {
		s = &series{Q: q}
		r.Series[name] = s
	}
	return s
}

// events counts how often something happened (N) among the occasions on
// which it could have (Of).
type events struct {
	N  int `json:"n"`
	Of int `json:"of"`
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// count records n events on of more occasions.
func (r *phaseResult) count(name string, n, of int) {
	ev := r.Counters[name]
	r.Counters[name] = events{ev.N + n, ev.Of + of}
}

// ok counts one attempted operation; a failed or wrong-valued operation
// counts as failed and contributes no latency sample.
func (r *phaseResult) ok(good bool, format string, args ...any) bool {
	r.Attempted++
	if good {
		return true
	}
	r.Failed++
	if r.complaints < 5 {
		r.complaints++
		fmt.Fprintf(os.Stderr, "benchmark: FAILED op: "+format+"\n", args...)
	}
	return false
}

// roundClock brackets one measured round for the set-up account.
type roundClock struct {
	r     *phaseResult
	start time.Time
	timed time.Duration
}

func (r *phaseResult) beginRound() roundClock { return roundClock{r, time.Now(), r.Timed} }

// end records the round's set-up time when keep is set (warm-up rounds
// are executed and checked, never reported).
func (c roundClock) end(keep bool) {
	if keep {
		c.r.Setup = append(c.r.Setup, (time.Since(c.start) - (c.r.Timed - c.timed)).Seconds())
	}
}

// timer accumulates a phase's time inside timed operations.
type timer struct {
	r     *phaseResult
	start time.Time
}

func (r *phaseResult) time() timer { return timer{r, time.Now()} }

func (t timer) stop() time.Duration {
	d := time.Since(t.start)
	t.r.Timed += d
	return d
}
