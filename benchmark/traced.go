package main

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"time"
)

// runTraced is the per-layer pass of one workload: every phase at
// reference size with the benchmark's own spans around each call into a
// layer, the workload-independent probes, and the focus phase once more
// untraced so the tracing overhead itself is a reported number. Every
// per-layer metric is reported; a metric that several phases produce
// (wire and cost-model counts per migration, CPU utilisation) is taken
// from the focus workload when it produces it.
func runTraced(focus string, seed int64, seconds int, quick bool, outDir string) (*runResult, error) {
	w, _ := workloadByName(focus)
	sz := sizesFor("", seconds, quick)
	in := newPlan(seed, sz, 0)
	begin := time.Now()
	out := &runResult{Workload: focus, SimScale: w.Scale, Counters: make(map[string]events), Metrics: make(map[string]measurement)}

	untraced, err := env{}.runPhase(focus, sz, in)
	if err != nil {
		return nil, fmt.Errorf("untraced %s phase: %w", focus, err)
	}

	layer := make(map[string]float64)
	var spans []span
	var focusRes *phaseResult
	// The focus phase runs last, so its values win where several phases
	// produce one name.
	var phases []string
	for _, phase := range phasesFor(focus, true) {
		if phase != focus {
			phases = append(phases, phase)
		}
	}
	for _, phase := range append(phases, focus) {
		tr := newTracer()
		res, err := env{tr: tr}.runPhase(phase, sz, in)
		if err != nil {
			return nil, fmt.Errorf("traced %s phase: %w", phase, err)
		}
		out.add(phase, res)
		for name, v := range res.Layer {
			layer[name] = v
		}
		if phase == focus {
			focusRes, spans = res, tr.snapshot()
			out.Counters = res.Counters
		}
	}

	// Tracing overhead: how much worse the focus workload's headline
	// figure reads with spans on than off, same inputs, same size.
	if untraced.Headline != 0 {
		worse := (focusRes.Headline - untraced.Headline) / untraced.Headline
		if focusRes.HigherBetter {
			worse = -worse
		}
		layer["trace.overhead_pct"] = 100 * worse
	}
	byLayer, rootTotal, unattributed := selfTimes(spans)
	if rootTotal > 0 {
		layer["trace.unattributed_pct"] = 100 * float64(unattributed) / float64(rootTotal)
	}

	probes, err := runProbes(quick)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		layer[name] = v
	}

	for _, m := range perLayer {
		v, ok := layer[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = single(v, m.Unit)
	}
	out.WallS = time.Since(begin).Seconds()

	fmt.Printf("\n# %s: self time per layer over %d spans (root spans %.3fs, unattributed %.3fs)\n",
		focus, len(spans), rootTotal.Seconds(), unattributed.Seconds())
	for _, name := range slices.Sorted(maps.Keys(byLayer)) {
		fmt.Printf("#   %-16s %10.3f ms  %5.1f%%\n", name, float64(byLayer[name])/float64(time.Millisecond),
			100*float64(byLayer[name])/float64(max(rootTotal, 1)))
	}
	if outDir != "" {
		path := filepath.Join(outDir, "trace-"+focus+".json")
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	return out, nil
}
