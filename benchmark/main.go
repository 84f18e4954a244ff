// Command benchmark is the repository's gated benchmark: five named
// workloads, fourteen end-to-end metrics with regression bounds, and a
// traced pass that decomposes them layer by layer. See README.md.
//
//	go run ./benchmark                               every workload, end-to-end metrics
//	go run ./benchmark -workload migrate -seed 7     one workload
//	go run ./benchmark -trace [-workload W]          the per-layer pass
//	go run ./benchmark -json A.json                  also write the results to a file
//	go run ./benchmark -compare A.json B.json        gate B against A
//	go run ./benchmark -agree                        run the set twice, apply the same rule
//
// It measures every layer from outside: it imports only exported
// functions of internal/* (never internal/bench) and wraps the public
// transport.Messenger. All loops are closed, one client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// ballast pins the garbage collector's heap goal. The workloads keep a
// few megabytes live, and at that size when a collection starts — and
// whether the scavenger has handed the last round's pages back to the
// kernel — is decided by details as small as the size of the binary's
// globals: the same 65 ns counter increment read 66, 72 or 77 ns in three
// builds that differed only in unrelated code. With 64 MiB live (never
// touched, so it costs no resident memory) collections happen where the
// benchmark asks for them, between rounds, in every build.
var ballast = make([]byte, 64<<20)

// header records the conditions of a run.
type header struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg1   string `json:"loadavg_1min"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	Traced     bool   `json:"traced"`
}

// runResult is one workload's report.
type runResult struct {
	Workload string `json:"workload"`
	// SimScale is the sim.Latency scale of the workload's timed section.
	SimScale  float64 `json:"sim_scale"`
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	WallS     float64 `json:"wall_s"`
	// Counters are the event counts of the workload's own phase (see
	// counters in spec.go).
	Counters map[string]events      `json:"counters"`
	Metrics  map[string]measurement `json:"metrics"`
	// Phases lists, in execution order, where the run's wall time went.
	Phases []phaseTime `json:"phases"`
}

// phaseTime is one phase's wall time and the part of it inside timed
// operations; the rest is set-up and warm-up.
type phaseTime struct {
	Phase  string  `json:"phase"`
	WallS  float64 `json:"wall_s"`
	TimedS float64 `json:"timed_s"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Header  header      `json:"header"`
	Results []runResult `json:"results"`
}

func loadAvg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	if f := strings.Fields(string(raw)); len(f) > 0 {
		return f[0]
	}
	return "unknown"
}

func (e env) runPhase(phase string, sz sizes, in *inputPlan) (*phaseResult, error) {
	switch phase {
	case wLibops:
		return e.runLibops(sz, in)
	case wMigrate:
		return e.runMigrate(sz, in)
	case wDrain:
		return e.runDrain(in)
	case wDrainRTT:
		return e.runDrainRTT(in)
	case wRack:
		return e.runRack(sz, in)
	}
	return nil, fmt.Errorf("unknown phase %q", phase)
}

// setupOf is the run's set-up time: per phase, the median set-up time of
// a measured round times the number of measured rounds, summed over the
// phases. A run sets up dozens of times; the median keeps one slow round
// (the process's first second, a collection that ran long) out of the sum.
// Q1 and Q3 bracket the estimate, not the rounds: the median of n rounds
// is uncertain by about their interquartile range over sqrt(n), so a
// phase's n medians by that range times sqrt(n).
func setupOf(phases []*phaseResult, unit string) measurement {
	m := measurement{Unit: unit}
	var noise float64
	for _, res := range phases {
		if len(res.Setup) == 0 {
			continue
		}
		n := float64(len(res.Setup))
		m.Value += n * percentile(res.Setup, 0.5)
		noise += math.Sqrt(n) * (percentile(res.Setup, 0.75) - percentile(res.Setup, 0.25))
		m.N += len(res.Setup)
	}
	m.Rounds, m.Q1, m.Q3 = m.N, m.Value-noise/2, m.Value+noise/2
	return m
}

// step is one phase invocation of a run's schedule.
type step struct {
	phase string
	sz    sizes
	slice int
}

// schedule orders a run. The reference phases of libops, migrate and rack
// run in refSlices slices (see there) dealt around the rest: the drain
// reference phase, whose warm-up round is too dear to repeat, after the
// first deal, the run's own workload, whole, after the second.
func schedule(focus string, sz sizes) []step {
	var sliced, whole []string
	for _, p := range phasesFor(focus, false) {
		switch {
		case p == focus:
		case p == wDrain:
			whole = append(whole, p)
		default:
			sliced = append(sliced, p)
		}
	}
	var steps []step
	for slice := 0; slice < refSlices; slice++ {
		for _, p := range sliced {
			steps = append(steps, step{p, sz.slice(refSlices), slice})
		}
		switch slice {
		case 0:
			for _, p := range whole {
				steps = append(steps, step{p, sz, 0})
			}
		case 1:
			steps = append(steps, step{focus, sz, 0})
		}
	}
	return steps
}

// runEndToEnd executes one untraced run of the focus workload and
// reports every end-to-end metric.
func runEndToEnd(focus string, seed int64, seconds int, quick bool) (*runResult, error) {
	w, _ := workloadByName(focus)
	begin := time.Now()
	out := &runResult{Workload: focus, SimScale: w.Scale, Counters: make(map[string]events), Metrics: make(map[string]measurement)}
	results := make(map[string]*phaseResult)
	for _, st := range schedule(focus, sizesFor(focus, seconds, quick)) {
		res, err := env{}.runPhase(st.phase, st.sz, newPlan(seed, st.sz, st.slice))
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", st.phase, err)
		}
		if first, ok := results[st.phase]; ok {
			first.merge(res)
		} else {
			results[st.phase] = res
		}
	}
	var all []*phaseResult
	for _, phase := range phasesFor(focus, false) {
		res := results[phase]
		all = append(all, res)
		out.add(phase, res)
		if phase == focus {
			out.Counters = res.Counters
		}
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			out.Metrics[m.Name] = setupOf(all, m.Unit)
			continue
		}
		// The focus workload's own operations supply a metric when they
		// produce it; otherwise the reference phase of its home does.
		phase := focus
		if !m.homeOf(focus) {
			phase = m.Home[0]
		}
		s := results[phase].Series[m.Name]
		if s == nil || len(s.rounds) == 0 {
			return nil, fmt.Errorf("metric %s: no samples from the %s phase", m.Name, phase)
		}
		out.Metrics[m.Name] = s.measure(m.Unit)
	}
	out.WallS = time.Since(begin).Seconds()
	return out, nil
}

// add folds one phase into the run's totals.
func (r *runResult) add(phase string, res *phaseResult) {
	r.Attempted += res.Attempted
	r.Failed += res.Failed
	r.Phases = append(r.Phases, phaseTime{phase, res.Wall.Seconds(), res.Timed.Seconds()})
}

func printHeader(h header) {
	fmt.Printf("# benchmark: nproc=%d GOMAXPROCS=%d %s loadavg1=%s seed=%d seconds=%d quick=%v traced=%v\n",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.LoadAvg1, h.Seed, h.Seconds, h.Quick, h.Traced)
	fmt.Println("# closed loop, one client; a run executes its workload at full size, and at reference size (ref) the phases that supply the metrics it does not produce")
}

func printResult(r *runResult, traced bool) {
	fmt.Printf("\n## workload %s (sim scale %g): ops_attempted=%d ops_failed=%d wall=%.1fs\n",
		r.Workload, r.SimScale, r.Attempted, r.Failed, r.WallS)
	for _, p := range r.Phases {
		fmt.Printf("#   phase %-9s wall %6.2fs of which timed %6.2fs\n", p.Phase, p.WallS, p.TimedS)
	}
	for _, c := range counters {
		if ev := r.Counters[c.Name]; ev.Of > 0 {
			fmt.Printf("#   counter %-22s %d of %d\n", c.Name, ev.N, ev.Of)
		}
	}
	if traced {
		fmt.Printf("%-40s %14s %-6s %s\n", "per-layer metric", "value", "unit", "better")
		for _, m := range perLayer {
			v := r.Metrics[m.Name]
			fmt.Printf("%-40s %14.4f %-6s %s\n", m.Name, v.Value, m.Unit, m.Better)
		}
		return
	}
	fmt.Printf("%-26s %14s %-5s %-6s %5s %-4s %7s %6s %12s %12s\n",
		"end-to-end metric", "value", "unit", "better", "bound", "from", "samples", "rounds", "q1(rounds)", "q3(rounds)")
	for _, m := range endToEnd {
		v := r.Metrics[m.Name]
		from := "own"
		if !m.homeOf(r.Workload) {
			from = "ref"
		}
		fmt.Printf("%-26s %14.4f %-5s %-6s %5.2f %-4s %7d %6d %12.4f %12.4f\n",
			m.Name, v.Value, m.Unit, m.Better, m.boundOn(r.Workload), from, v.N, v.Rounds, v.Q1, v.Q3)
	}
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
func contractLine(r *runResult) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = mv{m.Value, m.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(raw), err
}

// runSet runs the named workloads once each.
func runSet(names []string, h header, traceOut string) (*resultFile, error) {
	file := &resultFile{Header: h}
	for _, name := range names {
		var r *runResult
		var err error
		if h.Traced {
			r, err = runTraced(name, h.Seed, h.Seconds, h.Quick, traceOut)
		} else {
			r, err = runEndToEnd(name, h.Seed, h.Seconds, h.Quick)
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		printResult(r, h.Traced)
		file.Results = append(file.Results, *r)
	}
	return file, nil
}

// normalizeArgs lets the boolean -trace flag also take the driver's
// separate-value form ("--trace 1"), which package flag would otherwise
// read as a bare flag followed by a positional argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1":
				out = append(out, args[i]+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), " | ")+" (default: all)")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Int("seconds", defaultSeconds, "length of the measured section; fixes the op counts")
		traced   = fs.Bool("trace", false, "run the per-layer pass (probes plus a traced run at reference size)")
		quick    = fs.Bool("quick", false, "tens of operations per workload: a smoke test, not a measurement")
		jsonOut  = fs.String("json", "", "also write the results to this file")
		compare  = fs.Bool("compare", false, "compare two -json files given as arguments: OLD NEW")
		agree    = fs.Bool("agree", false, "run the set twice in this process and compare the two")
		traceOut = fs.String("trace-out", filepath.Join("benchmark", ".out"), "directory the traced pass writes its spans to")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two files: OLD NEW")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	names := workloadNames()
	if *workload != "" {
		if _, ok := workloadByName(*workload); !ok {
			return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
		}
		names = []string{*workload}
	}

	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	h := header{
		NProc: runtime.NumCPU(), GoMaxProcs: procs, GoVersion: runtime.Version(),
		LoadAvg1: loadAvg(), Seed: *seed, Seconds: *seconds, Quick: *quick, Traced: *traced,
	}
	printHeader(h)

	file, err := runSet(names, h, *traceOut)
	if err != nil {
		return err
	}
	if *agree {
		fmt.Println("\n# -agree: second pass")
		second, err := runSet(names, h, *traceOut)
		if err != nil {
			return err
		}
		if worse := printComparison(file, second); worse > 0 {
			return fmt.Errorf("%d metric(s) WORSE between two runs of the same code", worse)
		}
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(*jsonOut), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	failed := 0
	for i := range file.Results {
		failed += file.Results[i].Failed
	}
	// The last line of standard output is the driver's: one JSON object
	// for the (last) workload run.
	line, err := contractLine(&file.Results[len(file.Results)-1])
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Println()
	fmt.Println(line)
	if failed > 0 {
		return fmt.Errorf("%d operation(s) failed their correctness check", failed)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
