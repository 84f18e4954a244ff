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
//	chaoshunt -flight flight-seed7.bin decode a flight-recorder bundle
//	chaoshunt -json                    machine-readable verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs/flight"
)

func main() {
	if err := run(); err != nil {
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
	// FlightFile names the black-box bundle written beside the repro
	// (flight.DecodeBundle or `fleetd`'s /flight.json shape reads it).
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
	name := fmt.Sprintf("flight-seed%d.bin", seed)
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "chaoshunt: write %s: %v\n", name, err)
		return ""
	}
	return name
}

func run() error {
	var (
		seed     = flag.Int64("seed", 0, "first schedule seed")
		seeds    = flag.Int("seeds", 24, "number of consecutive seeds to run (ignored with -budget)")
		steps    = flag.Int("steps", 30, "schedule length per seed")
		machines = flag.Int("machines", 3, "machines per datacenter")
		apps     = flag.Int("apps", 4, "enclave identities")
		counters = flag.Int("counters", 2, "counters per identity")
		loss     = flag.Float64("loss", 0.1, "WAN loss probability [0,1)")
		budget   = flag.Duration("budget", 0, "time budget: run consecutive seeds until it expires (soak mode)")
		shrinkN  = flag.Int("shrink", 200, "max re-runs when shrinking a failing schedule")
		replay   = flag.String("replay", "", "JSON repro file to re-run instead of hunting")
		flightIn = flag.String("flight", "", "flight-recorder .bin bundle to decode and print instead of hunting")
		bias     = flag.Bool("bias", true, "bias schedule generation toward under-covered transitions")
		asJSON   = flag.Bool("json", false, "emit JSON verdicts")
		verbose  = flag.Bool("v", false, "per-seed progress")
	)
	flag.Parse()

	if *flightIn != "" {
		return dumpFlight(*flightIn, *asJSON)
	}
	if *replay != "" {
		return replayFile(*replay, *asJSON)
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
			fmt.Printf("seed %-6d %4d ops %4d events  %s\n", s, res.Ops, res.Events, passFail(res))
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
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				return err
			}
		} else {
			fmt.Printf("seed %d VIOLATED %d invariant(s); minimal repro:\n%s", s, len(res.Violations), repro)
			if flightFile != "" {
				fmt.Printf("flight-recorder bundle written to %s\n", flightFile)
			}
			fmt.Printf("re-run: chaoshunt -replay <file> after saving the JSON below\n")
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(repro)
		}
		os.Exit(2)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"seeds_run":  ran,
			"first_seed": *seed,
			"violations": 0,
			"coverage":   total,
			"elapsed":    time.Since(start).String(),
		})
	}
	fmt.Printf("%d schedules, 0 invariant violations (%s)\n", ran, time.Since(start).Round(time.Millisecond))
	fmt.Println("invariant coverage (evaluations across all seeds):")
	for _, inv := range chaos.InvariantNames() {
		fmt.Printf("  %-26s %d\n", inv, total.Invariants[inv])
	}
	if *verbose {
		fmt.Println("transition coverage (executed steps):")
		for _, k := range chaos.SortedKeys(total.Transitions) {
			fmt.Printf("  %-26s %d\n", k, total.Transitions[k])
		}
	}
	return nil
}

func passFail(res *chaos.Result) string {
	if res.Failed() {
		return "FAIL"
	}
	return "ok"
}

// dumpFlight decodes a flight-recorder bundle from disk: a summary of
// what the black box holds by default, the full bundle as JSON with
// -json (the same shape fleetd serves at /flight.json).
func dumpFlight(path string, asJSON bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b, err := flight.DecodeBundle(raw)
	if err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(b)
	}
	fmt.Printf("trigger:  %s (actor %q) %s\n", b.Trigger.Kind, b.Trigger.Actor, b.Trigger.Detail)
	fmt.Printf("captured: %s\n", time.Unix(0, b.CreatedUnixNs).UTC().Format(time.RFC3339Nano))
	fmt.Printf("contents: %d spans, %d open spans, %d events, %d metric series, %d journal bytes\n",
		len(b.Spans), len(b.Open), len(b.Events), len(b.Metrics.Series), len(b.Journal))
	if b.Note != "" {
		fmt.Printf("note:     %s\n", b.Note)
	}
	for _, h := range b.Health {
		fmt.Printf("health:   %s/%s %s  %s\n", h.Kind, h.Name, h.State, h.Reason)
	}
	for _, v := range b.SLO {
		if v.Violated() {
			fmt.Printf("slo:      %s VIOLATED (%s: %v > %v)\n", v.Rule, v.Reason, v.Actual, v.Bound)
		}
	}
	for _, sp := range b.Open {
		fmt.Printf("open:     %s since %s (trace %x)\n", sp.Name, sp.Start.UTC().Format(time.RFC3339), sp.TraceID)
	}
	fmt.Println("use -flight FILE -json for the full bundle")
	return nil
}

// replayFile re-runs a shrunken repro (the JSON chaoshunt printed when
// it found a violation) and reports whether it still fails.
func replayFile(path string, asJSON bool) error {
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(verdict{Seed: res.Seed, Ops: res.Ops, Events: res.Events, Violations: res.Violations, Coverage: res.Coverage}); err != nil {
			return err
		}
	} else {
		for _, v := range res.Violations {
			fmt.Println(v)
		}
		fmt.Printf("replayed %d steps: %d violation(s)\n", len(repro.Steps), len(res.Violations))
	}
	if res.Failed() {
		os.Exit(2)
	}
	return nil
}
