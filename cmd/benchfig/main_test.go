package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFig3JSONSnapshot is the telemetry smoke CI runs: `benchfig -fig 3
// -json` must embed a metric snapshot whose every series the catalogue
// declares with that kind and those label keys, with the Fig. 3 sample
// sets as fig3{op,variant} histograms and the latency model's tallies
// as sim.op{op} gauges.
func TestFig3JSONSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.json")
	const n = 100
	if err := run([]string{"-fig", "3", "-n", "100", "-scale", "0", "-json", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	snap := rep.Metrics
	for _, sr := range snap.Series {
		d := obs.Lookup(sr.Name)
		if d == nil {
			t.Errorf("series %s is not in the catalogue", sr.Name)
			continue
		}
		if sr.Kind != d.Kind || len(sr.Labels) != len(d.Labels) {
			t.Errorf("series %s: kind %s labels %v, catalogue says %s %v", sr.Name, sr.Kind, sr.Labels, d.Kind, d.Labels)
		}
		for _, k := range d.Labels {
			if sr.Labels[k] == "" {
				t.Errorf("series %s lacks a value for label %q: %v", sr.Name, k, sr.Labels)
			}
		}
	}
	for _, child := range [][2]string{
		{"increment", "library"}, {"increment", "baseline"}, {"read", "library"}, {"create", "library"},
	} {
		h, ok := snap.Histogram(obs.Fig3, child[0], child[1])
		if !ok || h.Count != n {
			t.Errorf("fig3{op=%q,variant=%q}: count %d (present %v), want %d", child[0], child[1], h.Count, ok, n)
		}
		if !(0 < h.P50 && h.P50 <= h.P99 && h.P99 <= h.P999) {
			t.Errorf("fig3{op=%q,variant=%q}: quantiles out of order: %+v", child[0], child[1], h)
		}
	}
	ops := 0
	snap.Each(obs.SimOp, func([]string, obs.Series) { ops++ })
	if ops == 0 {
		t.Error("no sim.op gauges in the snapshot")
	}
}

// TestTCBGroupsCoverCore: every non-test file of the TCB report's package
// is in exactly one group, and every grouped file exists.
func TestTCBGroupsCoverCore(t *testing.T) {
	placed := map[string]int{}
	for _, g := range tcbGroups {
		for _, f := range g.files {
			placed[f]++
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", tcbDir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no files under %s: %v", tcbDir, err)
	}
	for _, path := range files {
		f := filepath.Base(path)
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if placed[f] != 1 {
			t.Errorf("%s is in %d TCB groups, want exactly 1", f, placed[f])
		}
		delete(placed, f)
	}
	for f := range placed {
		t.Errorf("TCB group names %s, which is not a file of %s", f, tcbDir)
	}
}
