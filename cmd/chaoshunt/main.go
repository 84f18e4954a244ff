// Command chaoshunt runs the chaos fleet's adversarial search over the
// paper's R1–R4 guarantees: seeded fault schedules (kills, restarts,
// rack cold-restarts, WAN partitions, mirror lag, forced failovers,
// fleet plans) against a two-datacenter federation, with every run's
// history replayed through the invariant checker. A failing schedule is
// automatically shrunk to a minimal repro (seed + step list) and
// printed; the process exits 2 so CI can collect the artifact.
//
//	chaoshunt                          24 seeded schedules, smoke scale
//	chaoshunt -seed 42 -seeds 1 -v     one schedule, verbose verdict
//	chaoshunt -budget 10m -loss 0.2    nightly soak: hunt until the budget
//	chaoshunt -replay repro.json       re-run a shrunken repro file
//	chaoshunt -flight flight-seed7.json summarize a flight-recorder bundle
//	chaoshunt -json                    machine-readable verdicts
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs/flight"
)

// errViolated reports that a hunt or a replay found an invariant
// violation; main exits 2 on it so CI can collect the artifact.
var errViolated = errors.New("invariant violated")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errViolated) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaoshunt:", err)
		os.Exit(1)
	}
}

// verdict is the per-seed JSON record.
type verdict struct {
	Seed       int64             `json:"seed"`
	Ops        int               `json:"ops"`
	Events     int               `json:"events"`
	Violations []chaos.Violation `json:"violations,omitempty"`
	Coverage   chaos.Coverage    `json:"coverage"`
	Repro      *chaos.Repro      `json:"repro,omitempty"`
	// FlightFile names the JSON black-box bundle written beside the
	// repro (flight.DecodeBundle reads it; fleetd serves the same
	// encoding at /flight).
	FlightFile string `json:"flight_file,omitempty"`
}

// writeFlight persists a failing run's flight-recorder bundle next to
// the repro. It prefers a bundle captured from the shrunken schedule —
// the minimal history an investigator will actually replay — and falls
// back to the original run's bundle when the re-run cannot reproduce
// one. Returns the file name, or "" when nothing could be written.
func writeFlight(seed int64, repro *chaos.Repro, res *chaos.Result) string {
	raw := res.Flight
	if repro != nil {
		cfg := repro.Config
		cfg.Replay = repro.Steps
		if rr, err := chaos.Run(cfg); err == nil && len(rr.Flight) > 0 {
			raw = rr.Flight
		}
	}
	if len(raw) == 0 {
		return ""
	}
	name := fmt.Sprintf("flight-seed%d.json", seed)
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "chaoshunt: write %s: %v\n", name, err)
		return ""
	}
	return name
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaoshunt", flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 0, "first schedule seed")
		seeds    = fs.Int("seeds", 24, "number of consecutive seeds to run (ignored with -budget)")
		steps    = fs.Int("steps", 30, "schedule length per seed")
		machines = fs.Int("machines", 3, "machines per datacenter")
		apps     = fs.Int("apps", 4, "enclave identities")
		counters = fs.Int("counters", 2, "counters per identity")
		loss     = fs.Float64("loss", 0.1, "WAN loss probability [0,1)")
		budget   = fs.Duration("budget", 0, "time budget: run consecutive seeds until it expires (soak mode)")
		shrinkN  = fs.Int("shrink", 200, "max re-runs when shrinking a failing schedule")
		replay   = fs.String("replay", "", "JSON repro file to re-run instead of hunting")
		flightIn = fs.String("flight", "", "flight-recorder bundle file to summarize instead of hunting")
		bias     = fs.Bool("bias", true, "bias schedule generation toward under-covered transitions")
		asJSON   = fs.Bool("json", false, "emit JSON verdicts")
		verbose  = fs.Bool("v", false, "per-seed progress")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag

	if *flightIn != "" {
		return dumpFlight(out, *flightIn, *asJSON)
	}
	if *replay != "" {
		return replayFile(out, *replay, *asJSON)
	}

	base := chaos.Config{
		Steps:    *steps,
		Machines: *machines,
		Apps:     *apps,
		Counters: *counters,
		WANLoss:  *loss,
	}
	// One shared accumulator across the hunt: each run's transition
	// coverage is absorbed, and later seeds' generation leans toward
	// whatever the search has visited least. Repros stay replayable —
	// a failing schedule is reported as a concrete step list, which
	// replay executes without consulting the bias.
	if *bias {
		base.Bias = chaos.NewBias()
	}
	total := chaos.NewCoverage()

	deadline := time.Time{}
	if *budget > 0 {
		deadline = time.Now().Add(*budget)
	}
	ran := 0
	start := time.Now()
	for s := *seed; ; s++ {
		if deadline.IsZero() {
			if ran >= *seeds {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		cfg := base
		cfg.Seed = s
		res, err := chaos.Run(cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		ran++
		total.Merge(res.Coverage)
		if *verbose && !*asJSON {
			fmt.Fprintf(out, "seed %-6d %4d ops %4d events  %s\n", s, res.Ops, res.Events, passFail(res))
		}
		if !res.Failed() {
			continue
		}

		// Found one: shrink to the minimal repro and report.
		repro, err := chaos.Shrink(cfg, res.Steps, *shrinkN)
		if err != nil {
			return fmt.Errorf("seed %d: shrink: %w", s, err)
		}
		flightFile := writeFlight(s, repro, res)
		v := verdict{Seed: s, Ops: res.Ops, Events: res.Events, Violations: res.Violations, Coverage: res.Coverage, Repro: repro, FlightFile: flightFile}
		if *asJSON {
			if err := writeJSON(out, v); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(out, "seed %d VIOLATED %d invariant(s); minimal repro:\n%s", s, len(res.Violations), repro)
			if flightFile != "" {
				fmt.Fprintf(out, "flight-recorder bundle written to %s\n", flightFile)
			}
			fmt.Fprintf(out, "re-run: chaoshunt -replay <file> after saving the JSON below\n")
			_ = writeJSON(out, repro)
		}
		return errViolated
	}

	if *asJSON {
		return writeJSON(out, map[string]any{
			"seeds_run":  ran,
			"first_seed": *seed,
			"violations": 0,
			"coverage":   total,
			"elapsed":    time.Since(start).String(),
		})
	}
	fmt.Fprintf(out, "%d schedules, 0 invariant violations (%s)\n", ran, time.Since(start).Round(time.Millisecond))
	fmt.Fprintln(out, "invariant coverage (evaluations across all seeds):")
	for _, inv := range chaos.InvariantNames() {
		fmt.Fprintf(out, "  %-26s %d\n", inv, total.Invariants[inv])
	}
	if *verbose {
		fmt.Fprintln(out, "transition coverage (executed steps):")
		for _, k := range chaos.SortedKeys(total.Transitions) {
			fmt.Fprintf(out, "  %-26s %d\n", k, total.Transitions[k])
		}
	}
	return nil
}

func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func passFail(res *chaos.Result) string {
	if res.Failed() {
		return "FAIL"
	}
	return "ok"
}

// dumpFlight reads a flight-recorder bundle from disk: a summary of
// what the black box holds by default, the full bundle (indented) with
// -json.
func dumpFlight(out io.Writer, path string, asJSON bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b, err := flight.DecodeBundle(raw)
	if err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	if asJSON {
		return writeJSON(out, b)
	}
	fmt.Fprintf(out, "trigger:  %s (actor %q) %s\n", b.Trigger.Kind, b.Trigger.Actor, b.Trigger.Detail)
	fmt.Fprintf(out, "captured: %s\n", time.Unix(0, b.CreatedUnixNs).UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(out, "contents: %d spans, %d open spans, %d events, %d metric series, %d journal bytes\n",
		len(b.Spans), len(b.Open), len(b.Events), len(b.Metrics.Series), len(b.Journal))
	if b.Note != "" {
		fmt.Fprintf(out, "note:     %s\n", b.Note)
	}
	for _, h := range b.Health {
		fmt.Fprintf(out, "health:   %s/%s %s  %s\n", h.Kind, h.Name, h.State, h.Reason)
	}
	for _, v := range b.SLO {
		if v.Violated() {
			fmt.Fprintf(out, "slo:      %s VIOLATED (%s: %v > %v)\n", v.Rule, v.Reason, v.Actual, v.Bound)
		}
	}
	for _, sp := range b.Open {
		fmt.Fprintf(out, "open:     %s since %s (trace %x)\n", sp.Name, sp.Start.UTC().Format(time.RFC3339), sp.TraceID)
	}
	fmt.Fprintln(out, "use -flight FILE -json for the full bundle")
	return nil
}

// replayFile re-runs a shrunken repro (the JSON chaoshunt printed when
// it found a violation) and reports whether it still fails.
func replayFile(out io.Writer, path string, asJSON bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var repro chaos.Repro
	if err := json.Unmarshal(data, &repro); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	cfg := repro.Config
	cfg.Replay = repro.Steps
	res, err := chaos.Run(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		if err := writeJSON(out, verdict{Seed: res.Seed, Ops: res.Ops, Events: res.Events, Violations: res.Violations, Coverage: res.Coverage}); err != nil {
			return err
		}
	} else {
		for _, v := range res.Violations {
			fmt.Fprintln(out, v)
		}
		fmt.Fprintf(out, "replayed %d steps: %d violation(s)\n", len(repro.Steps), len(res.Violations))
	}
	if res.Failed() {
		return errViolated
	}
	return nil
}
