// Package analyze is the observability plane's analysis layer: it turns
// the raw telemetry collected by internal/obs — finished spans, metric
// snapshots, audit events — into answers. Trace trees and per-phase
// critical paths explain where a migration's microseconds went; the
// unavailability ledger derives per-enclave downtime windows; the
// export plane runs the rule pass (internal/obs/health) on every scrape
// and serves OpenMetrics text and JSON dumps over HTTP.
package analyze

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// Tree is one reconstructed span tree within a trace. A trace normally
// has a single tree rooted at its ParentID-0 span, but ring eviction or
// an unfinished parent can orphan a subtree, which then surfaces as its
// own tree with Orphan set.
type Tree struct {
	Root obs.Span
	// Orphan marks a root adopted because its parent span was never
	// exported (evicted from the ring, or still in flight).
	Orphan bool

	children map[uint64][]obs.Span // parent span ID -> children, by Start
}

// Children returns the direct children of the span with the given ID,
// ordered by start time.
func (t *Tree) Children(spanID uint64) []obs.Span { return t.children[spanID] }

// BuildTraces reconstructs span trees from a flat exported span set,
// grouped by trace ID. Within a trace, trees are ordered by root start
// time.
func BuildTraces(spans []obs.Span) map[uint64][]*Tree {
	byTrace := map[uint64][]obs.Span{}
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := make(map[uint64][]*Tree, len(byTrace))
	for id, group := range byTrace {
		out[id] = buildTrees(group)
	}
	return out
}

func buildTrees(spans []obs.Span) []*Tree {
	byID := make(map[uint64]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	children := map[uint64][]obs.Span{}
	var trees []*Tree
	for _, s := range spans {
		parent, ok := byID[s.ParentID]
		if s.ParentID == 0 || !ok {
			trees = append(trees, &Tree{Root: s, Orphan: s.ParentID != 0})
			continue
		}
		parent = adopter(byID, s, parent)
		children[parent.SpanID] = append(children[parent.SpanID], s)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool {
			if !kids[i].Start.Equal(kids[j].Start) {
				return kids[i].Start.Before(kids[j].Start)
			}
			return kids[i].SpanID < kids[j].SpanID
		})
	}
	for _, t := range trees {
		t.children = children
	}
	sort.Slice(trees, func(i, j int) bool {
		if !trees[i].Root.Start.Equal(trees[j].Root.Start) {
			return trees[i].Root.Start.Before(trees[j].Root.Start)
		}
		return trees[i].Root.SpanID < trees[j].Root.SpanID
	})
	return trees
}

// adopter returns the span s hangs under in the tree. That is its
// parent, unless s starts after the parent ended: destination-side
// lib.resume and me.done are children of the source's me.migrate-out,
// which returns once the stream is acked, so clamping them to its window
// would leave them nothing and book their time to whoever owns the gap.
// Such a span is adopted by the nearest ancestor still running when it
// started; with none, it stays where it was.
func adopter(byID map[uint64]obs.Span, s, parent obs.Span) obs.Span {
	if s.Start.Before(parent.EndTime()) {
		return parent
	}
	anc := parent
	// Bounded climb: spans from a decoded bundle may carry parent cycles.
	for hops := 0; hops < len(byID); hops++ {
		next, ok := byID[anc.ParentID]
		if !ok {
			break
		}
		anc = next
		if !s.Start.Before(anc.Start) && s.Start.Before(anc.EndTime()) {
			return anc
		}
	}
	return parent
}

// Segment is one stretch of a trace's critical path: a contiguous time
// window attributed to exactly one span (and through it, one phase).
// Parent spans own the gaps their children don't cover.
type Segment struct {
	Span  obs.Span      `json:"span"`
	Phase string        `json:"phase"`
	Start time.Time     `json:"start"`
	End   time.Time     `json:"end"`
	Dur   time.Duration `json:"dur_ns"`
}

// CriticalPath attributes every instant of the tree's root window to
// exactly one span, by walking backward from the root's end and always
// descending into the child whose (clamped) end is latest. The returned
// segments are ordered by start time and their durations sum to the
// root's duration exactly — the per-phase breakdown is a partition, not
// an estimate. Children that report windows outside their parent's
// (clock skew, out-of-order End calls) are clamped to the parent window.
func (t *Tree) CriticalPath() []Segment {
	if t == nil || t.Root.Dur <= 0 {
		return nil
	}
	var out []Segment
	t.walk(t.Root, t.Root.Start, t.Root.EndTime(), &out)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// walk attributes [winStart, winEnd) under span, appending segments.
func (t *Tree) walk(span obs.Span, winStart, winEnd time.Time, out *[]Segment) {
	cursor := winEnd
	for cursor.After(winStart) {
		best, bestStart, bestEnd, ok := t.latestChild(span.SpanID, winStart, cursor)
		if !ok {
			emit(out, span, winStart, cursor)
			return
		}
		if bestEnd.Before(cursor) {
			emit(out, span, bestEnd, cursor)
		}
		t.walk(best, bestStart, bestEnd, out)
		cursor = bestStart
	}
}

// latestChild finds the child of parentID whose window, clamped to
// [winStart, cursor), ends latest. Ties break toward the earlier start
// (longer segment), then the smaller span ID (determinism).
func (t *Tree) latestChild(parentID uint64, winStart, cursor time.Time) (best obs.Span, bestStart, bestEnd time.Time, ok bool) {
	for _, kid := range t.children[parentID] {
		cs, ce := clamp(kid, winStart, cursor)
		if !ce.After(cs) {
			continue
		}
		if !ok || ce.After(bestEnd) ||
			(ce.Equal(bestEnd) && cs.Before(bestStart)) ||
			(ce.Equal(bestEnd) && cs.Equal(bestStart) && kid.SpanID < best.SpanID) {
			best, bestStart, bestEnd, ok = kid, cs, ce, true
		}
	}
	return best, bestStart, bestEnd, ok
}

func clamp(s obs.Span, winStart, winEnd time.Time) (time.Time, time.Time) {
	start, end := s.Start, s.EndTime()
	if start.Before(winStart) {
		start = winStart
	}
	if end.After(winEnd) {
		end = winEnd
	}
	return start, end
}

func emit(out *[]Segment, span obs.Span, start, end time.Time) {
	*out = append(*out, Segment{
		Span:  span,
		Phase: obs.PhaseOf(span.Name),
		Start: start,
		End:   end,
		Dur:   end.Sub(start),
	})
}

// PhaseOther is the phase of a span the catalogue does not declare (the
// phase vocabulary itself lives with the span catalogue in obs).
const PhaseOther = obs.PhaseOther

// Breakdown sums the tree's critical-path segments by phase. Because the
// critical path partitions the root window, the values sum to the root
// span's duration exactly.
func (t *Tree) Breakdown() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, seg := range t.CriticalPath() {
		out[seg.Phase] += seg.Dur
	}
	return out
}

// PhaseStat is one phase's share of an aggregated critical path.
type PhaseStat struct {
	Phase    string        `json:"phase"`
	Total    time.Duration `json:"total_ns"`
	Fraction float64       `json:"fraction"`
}

// Summary aggregates critical-path breakdowns across every tree whose
// root span carries the given name (e.g. all fleet.migrate traces).
type Summary struct {
	Root   string        `json:"root"`
	Count  int           `json:"count"`
	Total  time.Duration `json:"total_ns"`
	Mean   time.Duration `json:"mean_ns"`
	Phases []PhaseStat   `json:"phases"` // descending by total
}

// Summarize builds the aggregate critical-path summary for all traces in
// spans rooted at rootName. Count is zero when no such trace exists.
func Summarize(spans []obs.Span, rootName string) Summary {
	sum := Summary{Root: rootName}
	totals := map[string]time.Duration{}
	for _, trees := range BuildTraces(spans) {
		for _, t := range trees {
			if t.Root.Name != rootName || t.Root.Dur <= 0 {
				continue
			}
			sum.Count++
			sum.Total += t.Root.Dur
			for phase, d := range t.Breakdown() {
				totals[phase] += d
			}
		}
	}
	if sum.Count == 0 {
		return sum
	}
	sum.Mean = sum.Total / time.Duration(sum.Count)
	for phase, d := range totals {
		sum.Phases = append(sum.Phases, PhaseStat{
			Phase:    phase,
			Total:    d,
			Fraction: float64(d) / float64(sum.Total),
		})
	}
	sort.Slice(sum.Phases, func(i, j int) bool {
		if sum.Phases[i].Total != sum.Phases[j].Total {
			return sum.Phases[i].Total > sum.Phases[j].Total
		}
		return sum.Phases[i].Phase < sum.Phases[j].Phase
	})
	return sum
}
