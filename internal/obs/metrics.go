package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric. A nil *Gauge ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the stored value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed exponential bucket layout shared by every
// histogram: bucket i covers values < histBound(i), doubling from 256 ns
// to ~9.4 hours, with a final overflow bucket. Fixed buckets keep
// Observe to one atomic add with no allocation or locking.
const (
	histBuckets   = 48
	histFirstBand = 256 // ns; bucket 0 covers [0, 256)
)

// histBound returns the exclusive upper bound of bucket i in nanoseconds.
func histBound(i int) int64 {
	return histFirstBand << uint(i)
}

// bucketFor locates the bucket for a nanosecond observation.
func bucketFor(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := 0
	for bound := int64(histFirstBand); b < histBuckets-1 && ns >= bound; b++ {
		bound <<= 1
	}
	return b
}

// Histogram is a fixed-bucket latency histogram recording durations in
// nanoseconds. Observe is lock-free (one atomic add per bucket plus the
// count/sum tallies). A nil *Histogram ignores observations.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.buckets[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo := int64(0)
			if i > 0 {
				lo = histBound(i - 1)
			}
			hi := histBound(i)
			if i == histBuckets-1 {
				hi = lo * 2 // unbounded overflow bucket: extrapolate one band
			}
			// Interpolate the rank's position within the bucket.
			frac := float64(rank-seen) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		seen += n
	}
	return time.Duration(histBound(histBuckets - 1))
}

// HistogramSnapshot is the exported view of one histogram.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
	Max   time.Duration `json:"max_bound_ns"` // upper bound of highest occupied bucket
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			s.Max = time.Duration(histBound(i))
			break
		}
	}
	return s
}

// labelKey is one child's label values, in its family's key order.
type labelKey [maxLabels]string

// family holds the live children of one catalogue descriptor.
type family struct {
	mu       sync.Mutex
	children map[labelKey]any // *Counter | *Gauge | *Histogram
}

// Metrics is the registry: one family per catalogue descriptor, one
// child per distinct label-value tuple. Resolving a handle takes the
// family's lock for a map lookup; emitters on hot paths keep the
// returned handle instead of re-resolving per operation. A nil *Metrics
// hands out nil handles, which ignore updates — disabled
// instrumentation costs only the nil checks.
type Metrics struct {
	fams      []family // indexed by Desc.id-1
	snapshots atomic.Int64
}

// NewMetrics creates an empty registry over the catalogue.
func NewMetrics() *Metrics { return &Metrics{fams: make([]family, len(metricCatalogue))} }

// resolve returns (creating if needed) d's child for the label values
// lv. Passing the wrong number of values is a bug at the call site, not
// a runtime condition, so it panics.
func resolve[T any](m *Metrics, d *Desc, lv []string) *T {
	if m == nil || d == nil || d.id == 0 {
		return nil
	}
	if len(lv) != len(d.Labels) {
		panic("obs: " + d.Name + " takes label values for (" + strings.Join(d.Labels, ", ") + ")")
	}
	var key labelKey
	copy(key[:], lv)
	f := &m.fams[d.id-1]
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.(*T)
	}
	if f.children == nil {
		f.children = map[labelKey]any{}
	}
	c := new(T)
	f.children[key] = c
	return c
}

// Counter returns the counter of family d labelled lv.
func (m *Metrics) Counter(d *CounterDesc, lv ...string) *Counter {
	return resolve[Counter](m, (*Desc)(d), lv)
}

// Gauge returns the gauge of family d labelled lv.
func (m *Metrics) Gauge(d *GaugeDesc, lv ...string) *Gauge {
	return resolve[Gauge](m, (*Desc)(d), lv)
}

// Histogram returns the histogram of family d labelled lv.
func (m *Metrics) Histogram(d *HistogramDesc, lv ...string) *Histogram {
	return resolve[Histogram](m, (*Desc)(d), lv)
}

// Series is one exported time series: a family name, the child's label
// values keyed by label name, and its value. Hist is set for histograms
// (Value then repeats the observation count).
type Series struct {
	Name   string             `json:"name"`
	Kind   Kind               `json:"kind"`
	Labels map[string]string  `json:"labels,omitempty"`
	Value  int64              `json:"value"`
	Hist   *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot is a point-in-time JSON-serializable export of the registry,
// sorted by family name and then label values.
type Snapshot struct {
	Series []Series `json:"series"`
}

// Snapshot exports every series currently registered.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	m.snapshots.Add(1)
	for i := range m.fams {
		d, f := metricCatalogue[i], &m.fams[i]
		f.mu.Lock()
		for key, c := range f.children {
			sr := Series{Name: d.Name, Kind: d.Kind}
			if len(d.Labels) > 0 {
				sr.Labels = make(map[string]string, len(d.Labels))
				for j, k := range d.Labels {
					sr.Labels[k] = key[j]
				}
			}
			switch c := c.(type) {
			case *Counter:
				sr.Value = c.Value()
			case *Gauge:
				sr.Value = c.Value()
			case *Histogram:
				h := c.Snapshot()
				sr.Value, sr.Hist = h.Count, &h
			}
			s.Series = append(s.Series, sr)
		}
		f.mu.Unlock()
	}
	// By name, then by labels (fmt prints a map in key order).
	sort.Slice(s.Series, func(i, j int) bool {
		a, b := s.Series[i], s.Series[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return fmt.Sprint(a.Labels) < fmt.Sprint(b.Labels)
	})
	return s
}

// Snapshots returns how many times the registry has been snapshotted
// (the "one snapshot per rule pass" contract is checked against it).
func (m *Metrics) Snapshots() int64 {
	if m == nil {
		return 0
	}
	return m.snapshots.Load()
}

// Each calls fn for every child of family f, passing its label values
// in the family's declared key order — the same positions the emitter
// passed them to Counter/Gauge/Histogram.
func (s Snapshot) Each(f Family, fn func(lv []string, sr Series)) {
	d := f.desc()
	for _, sr := range s.Series {
		if sr.Name != d.Name {
			continue
		}
		lv := make([]string, len(d.Labels))
		for i, k := range d.Labels {
			lv[i] = sr.Labels[k]
		}
		fn(lv, sr)
	}
}

// find returns family f's child labelled lv.
func (s Snapshot) find(f Family, lv []string) (found Series, ok bool) {
	s.Each(f, func(got []string, sr Series) {
		if slices.Equal(got, lv) {
			found, ok = sr, true
		}
	})
	return found, ok
}

// Counter reads one counter; ok is false when the series was never
// registered (missing, which readers must not confuse with zero).
func (s Snapshot) Counter(d *CounterDesc, lv ...string) (int64, bool) {
	sr, ok := s.find(d, lv)
	return sr.Value, ok
}

// Gauge reads one gauge.
func (s Snapshot) Gauge(d *GaugeDesc, lv ...string) (int64, bool) {
	sr, ok := s.find(d, lv)
	return sr.Value, ok
}

// Histogram reads one histogram; ok is false when the series is
// missing or has no observations.
func (s Snapshot) Histogram(d *HistogramDesc, lv ...string) (HistogramSnapshot, bool) {
	sr, ok := s.find(d, lv)
	if !ok || sr.Hist == nil || sr.Hist.Count == 0 {
		return HistogramSnapshot{}, false
	}
	return *sr.Hist, true
}
