// Package bench implements the paper's evaluation experiments (§VII-B):
// the counter-operation timings of Figure 3, the initialization and
// sealing timings of Figure 4, and the enclave-migration overhead
// measurement, each as a reusable runner shared by the root-level
// testing.B benchmarks and the cmd/benchfig table generator.
//
// Methodology mirrors the paper: each operation is measured as one
// ECALL, repeated N times (the paper uses N=1000); results are reported
// as means with 99% confidence intervals, and the Migration Library is
// compared against the native SGX primitives with a one-tailed Welch
// t-test.
package bench

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xcrypto"
)

// Config controls an experiment run.
type Config struct {
	// N is the number of measured iterations per operation (paper: 1000).
	N int
	// Scale is the latency-model scale factor (0 = no simulated latency,
	// 1 = paper-magnitude Platform Services latencies).
	Scale float64
	// Confidence is the CI level (paper: 0.99).
	Confidence float64
	// BatchSize is the stream width the WAN drain scenarios run at
	// (fleet.Config.BatchSize). Zero means the default (64); 1 runs every
	// migration as a stream of one, which is what the CI smoke compares
	// against.
	BatchSize int
	// Metrics, when set, additionally receives each experiment's raw
	// sample durations as latency histograms (the fig3 and fig4
	// families, labelled by op and variant) and the run's simulated-cost
	// op tallies as gauges (sim.op, labelled by op). Recording happens
	// after the timed loops, off the measured path; nil (the default)
	// records nothing.
	Metrics *obs.Metrics `json:"-"`
}

// record folds one experiment's per-op sample sets (seconds) into the
// configured metrics registry, one child of fig per (op, variant).
func (c Config) record(fig *obs.HistogramDesc, variant string, samples map[string][]float64) {
	for op, vals := range samples {
		observeSeconds(c.Metrics.Histogram(fig, op, variant), vals)
	}
}

func observeSeconds(h *obs.Histogram, samples []float64) {
	for _, s := range samples {
		h.Observe(time.Duration(s * float64(time.Second)))
	}
}

// recordSimCounts mirrors the latency model's charged-op tallies into
// gauges, so a metrics snapshot carries the cost-model evidence next to
// the wall-clock histograms.
func (c Config) recordSimCounts(lat *sim.Latency) {
	for op, n := range lat.Counts() {
		c.Metrics.Gauge(obs.SimOp, op.String()).Set(int64(n))
	}
}

// DefaultConfig returns the paper's methodology at a wall-clock-friendly
// scale (see EXPERIMENTS.md for the scale discussion).
func DefaultConfig() Config {
	return Config{N: 1000, Scale: 0, Confidence: 0.99}
}

// Row is one measured operation: Migration Library vs. native baseline.
type Row struct {
	Name        string
	Library     stats.Summary
	Baseline    stats.Summary
	HasBaseline bool
	// PValue is the one-tailed Welch t-test p-value for
	// H1: library slower than baseline.
	PValue float64
	// OverheadPct is (libMean - baseMean) / baseMean * 100.
	OverheadPct float64
}

// String formats the row for table output.
func (r Row) String() string {
	if !r.HasBaseline {
		return fmt.Sprintf("%-24s lib=%-34s (no baseline)", r.Name, r.Library)
	}
	return fmt.Sprintf("%-24s lib=%-34s base=%-34s overhead=%+6.2f%% p=%.4f",
		r.Name, r.Library, r.Baseline, r.OverheadPct, r.PValue)
}

// appSigner is the deterministic signer for benchmark app images.
func appSigner() ed25519.PublicKey {
	key := xcrypto.DeriveKey([]byte("bench-app-signer"), "ed25519-pub")
	return key[:]
}

// appImage builds the benchmark application enclave image.
func appImage(name string) *sgx.Image {
	return &sgx.Image{Name: name, Version: 1, Code: []byte("bench:" + name), SignerPublicKey: appSigner()}
}

// world is the provisioned two-machine environment benchmarks run in.
type world struct {
	dc  *cloud.DataCenter
	src *cloud.Machine
	dst *cloud.Machine
}

func newWorld(scale float64) (*world, error) {
	dc, err := cloud.NewDataCenter("bench-dc", sim.NewLatency(scale))
	if err != nil {
		return nil, err
	}
	src, err := dc.AddMachine("bench-src")
	if err != nil {
		return nil, err
	}
	dst, err := dc.AddMachine("bench-dst")
	if err != nil {
		return nil, err
	}
	return &world{dc: dc, src: src, dst: dst}, nil
}

// sample measures f n times and returns per-call durations in seconds.
// A few unmeasured warm-up calls run first so cold caches and first-use
// allocations do not skew small samples.
func sample(n int, f func() error) ([]float64, error) {
	for i := 0; i < 3; i++ {
		if err := f(); err != nil {
			return nil, err
		}
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// compare builds a Row from two sample sets.
func compare(name string, lib, base []float64, conf float64) (Row, error) {
	ls, err := stats.Summarize(lib, conf)
	if err != nil {
		return Row{}, fmt.Errorf("%s library summary: %w", name, err)
	}
	row := Row{Name: name, Library: ls}
	if base == nil {
		return row, nil
	}
	bs, err := stats.Summarize(base, conf)
	if err != nil {
		return Row{}, fmt.Errorf("%s baseline summary: %w", name, err)
	}
	tt, err := stats.WelchTTest(lib, base)
	if err != nil {
		return Row{}, fmt.Errorf("%s t-test: %w", name, err)
	}
	row.Baseline = bs
	row.HasBaseline = true
	row.PValue = tt.POneTailed
	if bs.Mean > 0 {
		row.OverheadPct = (ls.Mean - bs.Mean) / bs.Mean * 100
	}
	return row, nil
}

// Fig3 measures the four monotonic counter operations through the
// Migration Library and through the native Platform Services interface
// (paper Figure 3).
func Fig3(cfg Config) ([]Row, error) {
	w, err := newWorld(cfg.Scale)
	if err != nil {
		return nil, err
	}
	app, err := w.src.LaunchApp(appImage("fig3-lib"), core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		return nil, err
	}
	baseEnclave, err := w.src.HW.Load(appImage("fig3-base"))
	if err != nil {
		return nil, err
	}

	ops := []string{"create", "increment", "read", "destroy"}
	libSamples := make(map[string][]float64, len(ops))
	baseSamples := make(map[string][]float64, len(ops))

	for i := 0; i < cfg.N; i++ {
		// Library path: one full lifecycle per iteration.
		if err := measureInto(libSamples, "create", func() error {
			_, _, err := app.Library.CreateCounter()
			return err
		}); err != nil {
			return nil, err
		}
		// The freshly created counter always lands in slot 0 because the
		// previous iteration destroyed it.
		if err := measureInto(libSamples, "increment", func() error {
			_, err := app.Library.IncrementCounter(0)
			return err
		}); err != nil {
			return nil, err
		}
		if err := measureInto(libSamples, "read", func() error {
			_, err := app.Library.ReadCounter(0)
			return err
		}); err != nil {
			return nil, err
		}
		if err := measureInto(libSamples, "destroy", func() error {
			return app.Library.DestroyCounter(0)
		}); err != nil {
			return nil, err
		}

		// Baseline path: raw Platform Services counters.
		var uuid pse.UUID
		if err := measureInto(baseSamples, "create", func() error {
			u, _, err := w.src.Counters.Create(baseEnclave)
			uuid = u
			return err
		}); err != nil {
			return nil, err
		}
		if err := measureInto(baseSamples, "increment", func() error {
			_, err := w.src.Counters.Increment(baseEnclave, uuid)
			return err
		}); err != nil {
			return nil, err
		}
		if err := measureInto(baseSamples, "read", func() error {
			_, err := w.src.Counters.Read(baseEnclave, uuid)
			return err
		}); err != nil {
			return nil, err
		}
		if err := measureInto(baseSamples, "destroy", func() error {
			return w.src.Counters.Destroy(baseEnclave, uuid)
		}); err != nil {
			return nil, err
		}
	}

	rows := make([]Row, 0, len(ops))
	for _, op := range ops {
		row, err := compare("counter-"+op, libSamples[op], baseSamples[op], cfg.Confidence)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	cfg.record(obs.Fig3, "library", libSamples)
	cfg.record(obs.Fig3, "baseline", baseSamples)
	cfg.recordSimCounts(w.dc.Latency)
	return rows, nil
}

// measureInto appends one timed call to the named sample set.
func measureInto(samples map[string][]float64, name string, f func() error) error {
	start := time.Now()
	if err := f(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	samples[name] = append(samples[name], time.Since(start).Seconds())
	return nil
}
