package obs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestHistogramQuantilesTrackStats checks the bucketed quantile estimates
// against exact order statistics (internal/stats) on known distributions.
// Exponential buckets double, so an estimate is accepted when it lands
// within the true value's bucket band [v/2, 2v].
func TestHistogramQuantilesTrackStats(t *testing.T) {
	distributions := map[string][]time.Duration{
		"uniform":  nil, // filled below
		"bimodal":  nil,
		"constant": nil,
	}
	var uniform, bimodal, constant []time.Duration
	for i := 1; i <= 1000; i++ {
		uniform = append(uniform, time.Duration(i)*time.Microsecond)
		if i%10 == 0 {
			bimodal = append(bimodal, 50*time.Millisecond) // slow tail
		} else {
			bimodal = append(bimodal, 100*time.Microsecond)
		}
		constant = append(constant, 777*time.Microsecond)
	}
	distributions["uniform"] = uniform
	distributions["bimodal"] = bimodal
	distributions["constant"] = constant

	for name, samples := range distributions {
		h := &Histogram{}
		var secs []float64
		for _, d := range samples {
			h.Observe(d)
			secs = append(secs, d.Seconds())
		}
		if h.Count() != int64(len(samples)) {
			t.Fatalf("%s: count %d, want %d", name, h.Count(), len(samples))
		}
		exactMedian := time.Duration(stats.Median(secs) * float64(time.Second))
		got := h.Quantile(0.5)
		if got < exactMedian/2 || got > exactMedian*2 {
			t.Errorf("%s: p50 = %v, exact median %v (outside bucket band)", name, got, exactMedian)
		}
		snap := h.Snapshot()
		if snap.P50 > snap.P99 || snap.P99 > snap.P999 {
			t.Errorf("%s: quantiles not monotonic: %+v", name, snap)
		}
		exactMean := time.Duration(stats.Mean(secs) * float64(time.Second))
		if snap.Mean < exactMean-time.Microsecond || snap.Mean > exactMean+time.Microsecond {
			t.Errorf("%s: mean %v, exact %v (mean is not bucketed; must match)", name, snap.Mean, exactMean)
		}
	}
}

// TestHistogramTailQuantiles pins the tail behavior on the bimodal case:
// with 10% of observations at 50ms and the rest at 100µs, p99 and p999
// must land in the slow mode's bucket band, p50 in the fast mode's.
func TestHistogramTailQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 1000; i++ {
		if i%10 == 0 {
			h.Observe(50 * time.Millisecond)
		} else {
			h.Observe(100 * time.Microsecond)
		}
	}
	if p50 := h.Quantile(0.5); p50 > 400*time.Microsecond {
		t.Errorf("p50 = %v, want fast-mode value near 100µs", p50)
	}
	for _, q := range []float64{0.99, 0.999} {
		if v := h.Quantile(q); v < 25*time.Millisecond || v > 100*time.Millisecond {
			t.Errorf("q%.3f = %v, want slow-mode value near 50ms", q, v)
		}
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	h.Observe(-time.Second) // clamps to bucket 0
	h.Observe(1 << 62)      // overflow bucket
	snap := h.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("count = %d, want 2", snap.Count)
	}
	if snap.Max != time.Duration(histBound(histBuckets-1)) {
		t.Fatalf("max bound = %v, want top bucket", snap.Max)
	}
}

// TestMetricsConcurrentWriters hammers one registry from many goroutines;
// the final totals must be exact (run under -race in CI).
func TestMetricsConcurrentWriters(t *testing.T) {
	m := NewMetrics()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Counter(WireMsgs).Add(1)
				m.Counter(WANLinkMsgs, "shared").Add(2)
				m.Gauge(MirrorDirty).Set(int64(g))
				m.Histogram(FleetMigrationLatency).Observe(time.Duration(i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if v := m.Counter(WireMsgs).Value(); v != goroutines*perG {
		t.Fatalf("counter = %d, want %d", v, goroutines*perG)
	}
	if v := m.Counter(WANLinkMsgs, "shared").Value(); v != 2*goroutines*perG {
		t.Fatalf("counter2 = %d, want %d", v, 2*goroutines*perG)
	}
	if n := m.Histogram(FleetMigrationLatency).Count(); n != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", n, goroutines*perG)
	}
	snap := m.Snapshot()
	if v, _ := snap.Counter(WireMsgs); v != goroutines*perG {
		t.Fatalf("snapshot counter = %d", v)
	}
	if g, ok := snap.Gauge(MirrorDirty); !ok || g < 0 || g >= goroutines {
		t.Fatalf("gauge = %d, want a goroutine index", g)
	}
}
