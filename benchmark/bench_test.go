package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// None of these tests asserts a timing: they check the benchmark's
// arithmetic, its determinism, its catalogue, and that every workload and
// probe runs clean at -quick size.

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

func TestSeries(t *testing.T) {
	// Batch means: the value is the median over rounds of the round mean.
	batch := &series{}
	batch.add(10)
	batch.add(30)
	batch.add(20, 40) // mean 30
	if got := batch.value(); got != 30 {
		t.Errorf("batch series value = %g, want 30", got)
	}
	// Pooled percentile: rounds only group the samples.
	lat := &series{Q: 0.5}
	lat.add(1, 2, 3)
	lat.add(4, 5)
	lat.add() // an empty round adds nothing
	if got := lat.value(); got != 3 {
		t.Errorf("pooled p50 = %g, want 3", got)
	}
	m := lat.measure("ms")
	if m.N != 5 || m.Rounds != 2 || m.Q1 != 2.625 || m.Q3 != 3.875 {
		t.Errorf("measure = %+v", m)
	}
	// By round: the median of the rounds' own quantiles shrugs off the
	// round a stall hit.
	tail := &series{Q: 0.5, ByRound: true}
	tail.add(1, 2, 3)
	tail.add(2, 3, 4)
	tail.add(70, 80, 90)
	if got := tail.value(); got != 3 {
		t.Errorf("by-round p50 = %g, want 3", got)
	}
	if got := spread(9, 11, 10); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %g, want 0.2", got)
	}
}

// encode serialises an input plan so two can be compared byte for byte.
func (p *inputPlan) encode() []byte {
	var b bytes.Buffer
	put := func(x []byte) {
		_ = binary.Write(&b, binary.LittleEndian, uint32(len(x)))
		b.Write(x)
	}
	_ = binary.Write(&b, binary.LittleEndian, p.Seed)
	put(p.Small)
	put(p.Large)
	put(p.AAD)
	for _, m := range p.Migrate {
		put(m)
	}
	for _, rounds := range [][][][]uint8{p.Drain, p.DrainRTT} {
		for _, round := range rounds {
			for _, e := range round {
				put(e)
			}
		}
	}
	put(p.Rack)
	return b.Bytes()
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	sz := sizesFor(wDrain, 3, false)
	a, b, c := newPlan(42, sz, 0).encode(), newPlan(42, sz, 0).encode(), newPlan(43, sz, 0).encode()
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different input plans")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same input plan")
	}
	if bytes.Equal(a, newPlan(42, sz, 1).encode()) {
		t.Error("two slices of one run got the same input plan")
	}
	// Resizing one phase must not shift another phase's inputs.
	bigger := sz
	bigger.MigIters *= 2
	if !reflect.DeepEqual(newPlan(42, sz, 0).Drain, newPlan(42, bigger, 0).Drain) {
		t.Error("resizing migrate changed the drain inputs")
	}
	// The mix of counters per enclave does not depend on the seed.
	mix := func(p *inputPlan) map[int]int {
		m := map[int]int{}
		for _, e := range p.Drain[0] {
			m[len(e)]++
		}
		return m
	}
	if !reflect.DeepEqual(mix(newPlan(1, sz, 0)), mix(newPlan(2, sz, 0))) {
		t.Error("drain counter mix differs between seeds")
	}
}

func TestSizesAreFixedByTheArguments(t *testing.T) {
	if !reflect.DeepEqual(sizesFor(wRack, 10, false), sizesFor(wRack, 10, false)) {
		t.Error("sizes are not a pure function of their arguments")
	}
	focus, ref := sizesFor(wMigrate, 10, false), sizesFor(wRack, 10, false)
	if focus.MigIters <= ref.MigIters || focus.RackRounds >= ref.RackRounds {
		t.Errorf("focus workload is not the larger one: %+v vs %+v", focus, ref)
	}
	if focus.MigIters%migrateChunk != 0 || ref.RackRounds%recycleRounds != 0 {
		t.Errorf("rounds are not whole chunks: %+v, %+v", focus, ref)
	}
}

// A run executes its own workload plus the first home of every metric it
// does not produce; only drain-rtt ever runs the drain-rtt phase.
func TestPhasesFor(t *testing.T) {
	for focus, want := range map[string][]string{
		wLibops:   {wLibops, wMigrate, wRack, wDrain},
		wMigrate:  {wLibops, wMigrate, wRack, wDrain},
		wDrain:    {wLibops, wRack, wDrain},
		wDrainRTT: {wLibops, wMigrate, wRack, wDrainRTT},
		wRack:     {wLibops, wMigrate, wRack, wDrain},
	} {
		if got := phasesFor(focus, false); !reflect.DeepEqual(got, want) {
			t.Errorf("phasesFor(%s) = %v, want %v", focus, got, want)
		}
	}
	if got, want := phasesFor(wDrain, true), []string{wLibops, wMigrate, wRack, wDrain}; !reflect.DeepEqual(got, want) {
		t.Errorf("traced drain phases = %v, want %v", got, want)
	}
}

// The sliced reference phases come first, last and in between; the
// run's own workload runs once, whole.
func TestSchedule(t *testing.T) {
	sz := sizesFor(wRack, 10, false)
	var got []string
	rounds := map[string]int{}
	for _, st := range schedule(wRack, sz) {
		got = append(got, st.phase)
		switch st.phase {
		case wLibops:
			rounds[wLibops] += st.sz.LibRounds
		case wMigrate:
			rounds[wMigrate] += st.sz.MigIters
			if st.sz.MigIters%migrateChunk != 0 {
				t.Errorf("migrate slice of %d is not whole chunks", st.sz.MigIters)
			}
		case wRack:
			rounds[wRack] += st.sz.RackRounds
		}
	}
	want := []string{wLibops, wMigrate, wDrain, wLibops, wMigrate, wRack, wLibops, wMigrate}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule(rack) = %v, want %v", got, want)
	}
	if rounds[wLibops] < sz.LibRounds || rounds[wMigrate] < sz.MigIters || rounds[wRack] != sz.RackRounds {
		t.Errorf("slices add up to %v, sizes are %+v", rounds, sz)
	}
}

func TestMerge(t *testing.T) {
	a, b := newPhaseResult(), newPhaseResult()
	a.series("x_p50", 0.5).add(1, 2)
	a.Series["x_p95"] = &series{Q: 0.95, rounds: a.Series["x_p50"].rounds}
	b.series("x_p50", 0.5).add(3, 4)
	b.Series["x_p95"] = &series{Q: 0.95, rounds: b.Series["x_p50"].rounds}
	a.Setup, b.Setup = []float64{1}, []float64{2}
	a.ok(true, "")
	b.ok(false, "merge test: a failed op")
	b.count(cQuorumRetries, 2, 10)
	a.merge(b)
	if a.Attempted != 2 || a.Failed != 1 || a.Counters[cQuorumRetries] != (events{2, 10}) || len(a.Setup) != 2 {
		t.Errorf("merged counts: %+v", a)
	}
	for _, name := range []string{"x_p50", "x_p95"} {
		if got := a.Series[name].pooled(); !reflect.DeepEqual(got, []float64{1, 2, 3, 4}) {
			t.Errorf("merged %s = %v", name, got)
		}
	}
}

func TestSetupOf(t *testing.T) {
	a := &phaseResult{Setup: []float64{1, 1, 1, 9}} // one slow round, IQR 2
	b := &phaseResult{Setup: []float64{2, 4, 2, 4}} // IQR 2
	m := setupOf([]*phaseResult{a, b}, "s")
	if m.Value != 4*1+4*3 || m.Rounds != 8 || m.Q1 != 16-4 || m.Q3 != 16+4 {
		t.Errorf("setupOf = %+v", m)
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	// The command names a program and a file under paths, which exists.
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", doc.Command)
	} else if _, err := os.Stat("run.sh"); err != nil {
		t.Error(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s does not fit the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name, "")
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %+v in the program", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		check(m.Name, m.Unit)
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > maxBound || m.boundOn(wDrainRTT) > m.Bound {
			t.Errorf("%s: bound %g outside (0, %g]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			// Every workload's own; the contract wants it the loosest.
			setup = m.Unit == "s" && m.Better == "lower" && m.Home == nil && m.Bound == maxBound
			continue
		}
		if len(m.Home) == 0 {
			t.Errorf("%s: no home workload", m.Name)
		}
		for _, h := range m.Home {
			if _, ok := workloadByName(h); !ok {
				t.Errorf("%s: unknown home workload %q", m.Name, h)
			}
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.Name, m.Unit)
		if d := doc.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, d, m)
		}
	}
}

// TestQuickPass runs every workload end to end at -quick size (tens of
// operations) and checks that every operation passed its correctness
// check and every end-to-end metric was emitted.
func TestQuickPass(t *testing.T) {
	for _, w := range workloads {
		r, err := runEndToEnd(w.Name, 7, defaultSeconds, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics emitted, want %d", w.Name, len(r.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v (emitted %v)", w.Name, m.Name, v, ok)
			}
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		raw, err := contractLine(r)
		if err != nil {
			t.Fatalf("%s: contract line: %v", w.Name, err)
		}
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("%s: contract line: %v", w.Name, err)
		}
		if !line.Correct || line.Attempted != r.Attempted || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: contract line %+v", w.Name, line)
		}
	}
}

// TestQuickTracedPass runs the per-layer pass at -quick size on the two
// drain workloads (between them they trace every phase) and checks that
// every per-layer metric, so every probe, reports.
func TestQuickTracedPass(t *testing.T) {
	for _, w := range []string{wDrain, wDrainRTT} {
		dir := t.TempDir()
		r, err := runTraced(w, 7, defaultSeconds, true, dir)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.Failed != 0 {
			t.Errorf("%s: %d operations failed", w, r.Failed)
		}
		if len(r.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics emitted, want %d", w, len(r.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if v, ok := r.Metrics[m.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (emitted %v)", w, m.Name, v, ok)
			}
		}
		raw, err := os.ReadFile(dir + "/trace-" + w + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file holds %d spans, err %v", w, len(spans), err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "migrate.iteration", Start: 0, End: 10 * ms, Root: true},
		{ID: 2, Parent: 1, Name: "core.StartMigration", Start: 1 * ms, End: 7 * ms},
		// Two overlapping sends under the call: their cover is a union.
		{ID: 3, Parent: 2, Name: "transport.Send:offer", Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 2, Name: "transport.Send:data", Start: 4 * ms, End: 6 * ms},
		{ID: 5, Parent: 3, Name: "handler:offer", Start: 3 * ms, End: 5 * ms},
		{ID: 6, Parent: 1, Name: "cloud.LaunchApp", Start: 7 * ms, End: 9 * ms},
	}
	by, root, unattributed := selfTimes(spans)
	if root != 10*time.Millisecond || unattributed != 2*time.Millisecond {
		t.Errorf("root %v unattributed %v, want 10ms and 2ms", root, unattributed)
	}
	want := map[string]time.Duration{
		"core":           2 * time.Millisecond, // 6 ms minus the 4 ms its sends cover
		"transport":      3 * time.Millisecond, // (3-2) + 2
		"remote-handler": 2 * time.Millisecond,
		"cloud":          2 * time.Millisecond,
	}
	if !reflect.DeepEqual(by, want) {
		t.Errorf("self times %v, want %v", by, want)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) measurement { return measurement{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	noisy := func(v float64) measurement { return measurement{Value: v, Q1: v * 0.9, Q3: v * 1.1} }
	for _, c := range []struct {
		better   string
		old, cur measurement
		want     string
	}{
		{"lower", steady(100), steady(95), verdictBetter},
		{"lower", steady(100), steady(105), verdictWithin},
		{"lower", steady(100), steady(115), verdictWorse},
		{"higher", steady(100), steady(115), verdictBetter},
		{"higher", steady(100), steady(85), verdictWorse},
		{"lower", noisy(100), steady(115), verdictUnresolved},
		{"lower", noisy(100), steady(90), verdictBetter},
	} {
		if _, got := judge(c.better, 0.10, c.old, c.cur); got != c.want {
			t.Errorf("%s %g -> %g: verdict %s, want %s", c.better, c.old.Value, c.cur.Value, got, c.want)
		}
	}
	// Slack 1 % of 1 000 occasions: ten events more than twice the old count.
	for _, c := range []struct {
		old, cur int
		want     string
	}{{0, 0, verdictWithin}, {0, 10, verdictWithin}, {0, 11, verdictWorse}, {40, 90, verdictWithin}, {40, 91, verdictWorse}, {40, 12, verdictBetter}} {
		if got := judgeCount(0.01, events{c.old, 1000}, events{c.cur, 1000}); got != c.want {
			t.Errorf("count %d -> %d: verdict %s, want %s", c.old, c.cur, got, c.want)
		}
	}
}

// The gate must not pass what it cannot see: a workload or a metric that
// one file lacks is WORSE, and only a metric's home workloads gate it.
func TestComparisonGates(t *testing.T) {
	full := func() *resultFile {
		f := &resultFile{}
		for _, w := range workloads {
			r := runResult{Workload: w.Name, Counters: map[string]events{}, Metrics: map[string]measurement{}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = measurement{Value: 100, Q1: 99, Q3: 101}
			}
			f.Results = append(f.Results, r)
		}
		return f
	}
	if worse := printComparison(full(), full()); worse != 0 {
		t.Errorf("identical files: %d rows WORSE", worse)
	}
	lacksWorkload := full()
	lacksWorkload.Results = lacksWorkload.Results[1:]
	if worse := printComparison(full(), lacksWorkload); worse != 1 {
		t.Errorf("missing workload: %d rows WORSE, want 1", worse)
	}
	lacksMetric := full()
	delete(lacksMetric.Results[0].Metrics, "lib_init_us") // libops is its home
	if worse := printComparison(full(), lacksMetric); worse != 1 {
		t.Errorf("missing metric: %d rows WORSE, want 1", worse)
	}
	slower := func(workload, metric string) *resultFile {
		f := full()
		for i := range f.Results {
			if f.Results[i].Workload == workload {
				f.Results[i].Metrics[metric] = measurement{Value: 150, Q1: 149, Q3: 151}
			}
		}
		return f
	}
	if worse := printComparison(full(), slower(wRack, "recover_p05_ms")); worse != 1 {
		t.Errorf("home row: %d rows WORSE, want 1", worse)
	}
	if worse := printComparison(full(), slower(wLibops, "recover_p05_ms")); worse != 0 {
		t.Errorf("reference row gated: %d rows WORSE, want 0", worse)
	}
	// drain-rtt's throughput is held to 0.05, drain's to 0.10.
	dip := func(workload string) *resultFile {
		f := full()
		for i := range f.Results {
			if f.Results[i].Workload == workload {
				f.Results[i].Metrics["drain_migps"] = measurement{Value: 93, Q1: 92.9, Q3: 93.1}
			}
		}
		return f
	}
	if printComparison(full(), dip(wDrain)) != 0 || printComparison(full(), dip(wDrainRTT)) != 1 {
		t.Error("drain_migps: 7% down should pass on drain and fail on drain-rtt")
	}
	failing := full()
	failing.Results[2].Failed = 1
	failing.Results[4].Counters[cOverAdvances] = events{11, 100000} // slack: 10
	if worse := printComparison(full(), failing); worse != 2 {
		t.Errorf("failed op and counter: %d rows WORSE, want 2", worse)
	}
}

func TestCompareRefusesDifferentWork(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h header) string {
		raw, _ := json.Marshal(resultFile{Header: h})
		path := dir + "/" + name
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", header{Seed: 1, Seconds: 10})
	if err := compareFiles(base, base); err != nil {
		t.Errorf("same work: %v", err)
	}
	for _, h := range []header{{Seed: 2, Seconds: 10}, {Seed: 1, Seconds: 5}, {Seed: 1, Seconds: 10, Quick: true}} {
		if err := compareFiles(base, write("b.json", h)); err == nil {
			t.Errorf("compared runs that did different work: %+v", h)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "rack", "--seed", "3", "--seconds", "10", "--trace", "0"})
	want := []string{"--workload", "rack", "--seed", "3", "--seconds", "10", "--trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("driver form: %v, want %v", got, want)
	}
	got = normalizeArgs([]string{"-trace", "-workload", "drain"})
	if want := []string{"-trace", "-workload", "drain"}; !reflect.DeepEqual(got, want) {
		t.Errorf("bare flag: %v, want %v", got, want)
	}
}
