// Command fleetd drives the fleet migration orchestrator: it provisions
// a simulated data center, populates it with migratable enclaves, then
// executes a policy-driven plan — drain a machine, rebalance the fleet,
// or evacuate onto explicit targets — through the concurrent executor,
// and prints the journal's latency summary and throughput.
//
//	fleetd                                   drain machine-0 of 100 enclaves, 3 machines
//	fleetd -plan rebalance -machines 4       level the fleet across 4 machines
//	fleetd -plan evacuate -targets machine-2 evacuate onto one machine
//	fleetd -workers 32 -apps 500             scale the worker pool and fleet
//	fleetd -policy round-robin -v            alternate policy, per-migration log
//	fleetd -chaos -chaos-seeds 8             chaos self-test: seeded fault schedules
//	                                         against a two-DC federation; exits
//	                                         non-zero with a minimal repro on any
//	                                         R1–R4 invariant violation
package main

import (
	"context"
	"crypto/ed25519"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/flight"
	"repro/internal/obs/health"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
}

// printJournalFailures writes the journal's non-completed entries to
// stderr (the error-path summary).
func printJournalFailures(report *fleet.Report) {
	for _, e := range report.Journal.Entries() {
		if e.Status == fleet.StatusCompleted {
			continue
		}
		dest := e.Dest
		if dest == "" {
			dest = e.PlannedDest
		}
		via := ""
		if e.Link != "" {
			via = " via " + e.Link
		}
		fmt.Fprintf(os.Stderr, "  %-9s %-12s %s -> %s%s (attempts %d): %s\n",
			e.Status, e.App, e.Source, dest, via, e.Attempts, e.Err)
	}
}

// printTelemetry summarizes the plan's traces, latency histograms, and
// wire traffic: how many spans each migration generated, the tail of the
// migration-latency distribution, and which message kinds moved the
// bytes — the at-a-glance health readout next to the journal numbers.
func printTelemetry(out io.Writer, o *obs.Observer, report *fleet.Report) {
	fmt.Fprintln(out, "telemetry:")
	if report.Completed > 0 {
		fmt.Fprintf(out, "  traces: %d spans across %d traces (%.1f spans/migration)\n",
			o.Tracer.Len(), len(o.Tracer.ByTrace()), float64(o.Tracer.Len())/float64(report.Completed))
	} else {
		fmt.Fprintf(out, "  traces: %d spans across %d traces\n", o.Tracer.Len(), len(o.Tracer.ByTrace()))
	}
	snap := o.Metrics.Snapshot()
	if h, ok := snap.Histogram(obs.FleetMigrationLatency); ok {
		fmt.Fprintf(out, "  migration latency: n=%d p50=%s p99=%s p999=%s\n",
			h.Count, h.P50.Round(time.Microsecond), h.P99.Round(time.Microsecond), h.P999.Round(time.Microsecond))
	}
	if h, ok := snap.Histogram(obs.FleetRecoveryLatency); ok {
		fmt.Fprintf(out, "  recovery latency:  n=%d p50=%s p99=%s p999=%s\n",
			h.Count, h.P50.Round(time.Microsecond), h.P99.Round(time.Microsecond), h.P999.Round(time.Microsecond))
	}
	type kindRow struct {
		kind        string
		bytes, msgs int64
	}
	var kinds []kindRow
	snap.Each(obs.WireBytesKind, func(lv []string, sr obs.Series) {
		msgs, _ := snap.Counter(obs.WireMsgsKind, lv[0])
		kinds = append(kinds, kindRow{lv[0], sr.Value, msgs})
	})
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].bytes > kinds[j].bytes })
	msgs, _ := snap.Counter(obs.WireMsgs)
	bytes, _ := snap.Counter(obs.WireBytes)
	fmt.Fprintf(out, "  wire: %d msgs, %d bytes by kind:\n", msgs, bytes)
	for _, k := range kinds {
		fmt.Fprintf(out, "    %-16s %9d B (%d msgs)\n", k.kind, k.bytes, k.msgs)
	}
	fmt.Fprintf(out, "  audit events: %d\n", o.Events.Len())
}

// printAnalysis runs the trace analytics over the finished plan: the
// per-phase critical-path breakdown of every migration/recovery trace
// (where did the microseconds go), derived unavailability windows, SLO
// verdicts, and how much telemetry the bounded rings shed. The phase
// durations are a partition of each trace's root window, so the summary
// mean tracks the measured fleet.migration.latency mean.
func printAnalysis(out io.Writer, plane *analyze.Plane, o *obs.Observer) {
	pass := plane.Refresh()
	spans := o.Tracer.Spans()
	for _, root := range []*obs.SpanDesc{obs.SpanFleetMigrate, obs.SpanFleetRecover} {
		sum := analyze.Summarize(spans, root.Name)
		if sum.Count == 0 {
			continue
		}
		fmt.Fprintf(out, "critical path (%s, %d traces, mean %s):\n",
			root.Name, sum.Count, sum.Mean.Round(time.Microsecond))
		for _, p := range sum.Phases {
			mean := p.Total / time.Duration(sum.Count)
			fmt.Fprintf(out, "    %-12s %10s/trace  %5.1f%%\n",
				p.Phase, mean.Round(time.Nanosecond), 100*p.Fraction)
		}
	}
	snap := o.Metrics.Snapshot()
	if h, ok := snap.Histogram(obs.UnavailFreezeWindow); ok {
		fmt.Fprintf(out, "unavailability (freeze): n=%d p50=%s p99=%s max<=%s\n",
			h.Count, h.P50.Round(time.Microsecond), h.P99.Round(time.Microsecond), h.Max)
	}
	if h, ok := snap.Histogram(obs.UnavailRecoveryWindow); ok {
		fmt.Fprintf(out, "unavailability (recovery): n=%d p50=%s p99=%s max<=%s\n",
			h.Count, h.P50.Round(time.Microsecond), h.P99.Round(time.Microsecond), h.Max)
	}
	for _, v := range pass.Objectives {
		fmt.Fprintln(out, " ", v)
	}
	// Always printed, even at zero: a reader checking whether the rings
	// clipped this plan's telemetry should not have to infer it from an
	// absent line.
	fmt.Fprintf(out, "  rings dropped: %d spans, %d events\n", o.Tracer.Dropped(), o.Events.Dropped())
	fmt.Fprintf(out, "health: %s", plane.Health.Overall())
	unhealthy := 0
	for _, e := range pass.States {
		if e.State == health.Healthy {
			continue
		}
		unhealthy++
		fmt.Fprintf(out, "\n  %-8s %s/%s: %s", e.State, e.Kind, e.Name, e.Reason)
	}
	if unhealthy == 0 {
		fmt.Fprintf(out, " (%d entities)", len(pass.States))
	}
	fmt.Fprintln(out)
	if n := plane.Flight.Trips(); n > 0 {
		fmt.Fprintf(out, "flight recorder: %d bundle(s) captured (latest served at /flight)\n", n)
	}
}

// runChaos is fleetd's self-test mode: seeded chaos schedules drive
// the full fault palette (kills, rack restarts, WAN partitions, forced
// failovers, concurrent plans) against a two-DC federation while the
// invariant checker watches the R1–R4 guarantees. Any violation is
// shrunk to a minimal repro, printed, and the process exits non-zero —
// wire it into a deploy gate to refuse rollouts that fork enclaves.
func runChaos(seed int64, seeds, steps, apps, counters int, verbose bool) error {
	if apps > 16 {
		apps = 16 // chaos worlds are small; the default -apps 100 is for plans
	}
	for s := seed; s < seed+int64(seeds); s++ {
		cfg := chaos.Config{Seed: s, Steps: steps, Apps: apps, Counters: counters, WANLoss: 0.1}
		res, err := chaos.Run(cfg)
		if err != nil {
			return fmt.Errorf("chaos seed %d: %w", s, err)
		}
		if verbose {
			fmt.Printf("chaos seed %-6d %4d ops, %d violations\n", s, res.Ops, len(res.Violations))
		}
		if !res.Failed() {
			continue
		}
		repro, err := chaos.Shrink(cfg, res.Steps, 200)
		if err != nil {
			return fmt.Errorf("chaos seed %d: shrink: %w", s, err)
		}
		fmt.Fprintf(os.Stderr, "chaos seed %d violated %d invariant(s); minimal repro:\n%s",
			s, len(res.Violations), repro)
		os.Exit(2)
	}
	fmt.Printf("chaos: %d schedules, 0 invariant violations\n", seeds)
	return nil
}

// run is main without the process: args is the command line, out
// receives the report, and closing stop ends a -linger early (tests).
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("fleetd", flag.ExitOnError)
	var (
		machines    = fs.Int("machines", 3, "number of SGX machines in the data center")
		apps        = fs.Int("apps", 100, "number of migratable enclaves to launch")
		workers     = fs.Int("workers", 8, "concurrent migration workers")
		planName    = fs.String("plan", "drain", "plan: drain | rebalance | evacuate")
		source      = fs.String("source", "machine-0", "comma-separated machines to drain/evacuate")
		targets     = fs.String("targets", "", "comma-separated destination machines (evacuate)")
		policy      = fs.String("policy", "least-loaded", "placement policy: least-loaded | round-robin")
		counters    = fs.Int("counters", 2, "monotonic counters per enclave")
		scale       = fs.Float64("scale", 0, "latency scale (1 = paper-magnitude latencies)")
		verbose     = fs.Bool("v", false, "log each migration outcome")
		metricsAddr = fs.String("metrics-addr", "", "serve the observability plane on this address (e.g. 127.0.0.1:9090): OpenMetrics at /metrics, JSON at /metrics.json, /traces, /events, /slo, /health, /flight")
		flightDir   = fs.String("flight-dir", "", "persist flight-recorder bundles into this directory (latest 16 kept)")
		linger      = fs.Duration("linger", 0, "keep serving -metrics-addr for this long after the plan finishes or fails (for scrapers; a failed plan's black box is at /flight)")
		chaosMode   = fs.Bool("chaos", false, "run seeded chaos schedules against a two-DC federation instead of a single plan; exits non-zero with a minimal repro on any invariant violation")
		chaosSeed   = fs.Int64("chaos-seed", 0, "first chaos schedule seed")
		chaosSeeds  = fs.Int("chaos-seeds", 8, "number of chaos schedules to run")
		chaosSteps  = fs.Int("chaos-steps", 30, "steps per chaos schedule")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag
	if *chaosMode {
		return runChaos(*chaosSeed, *chaosSeeds, *chaosSteps, *apps, *counters, *verbose)
	}
	if *machines < 2 {
		return fmt.Errorf("need at least 2 machines, got %d", *machines)
	}
	if *apps < 1 {
		return fmt.Errorf("need at least 1 app, got %d", *apps)
	}
	if *counters < 1 || *counters > core.NumCounters {
		return fmt.Errorf("counters must be in [1, %d]", core.NumCounters)
	}

	var pol fleet.Policy
	switch *policy {
	case "least-loaded":
		pol = fleet.LeastLoaded{}
	case "round-robin":
		pol = &fleet.RoundRobin{}
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	var plan fleet.Plan
	sources := strings.Split(*source, ",")
	switch *planName {
	case "drain":
		plan = fleet.Drain(sources...)
	case "rebalance":
		plan = fleet.Rebalance()
	case "evacuate":
		if *targets == "" {
			return fmt.Errorf("evacuate needs -targets")
		}
		plan = fleet.Evacuate(sources, strings.Split(*targets, ","))
	default:
		return fmt.Errorf("unknown plan %q", *planName)
	}
	plan.Policy = pol

	lat := sim.NewLatency(*scale)
	network := transport.NewNetwork(lat)
	observer := obs.NewObserver()
	meter := fleet.NewMeterWithMetrics(network, observer.Metrics)
	dc, err := cloud.NewDataCenterWithNetwork("fleetd-dc", lat, meter)
	if err != nil {
		return err
	}
	dc.SetObserver(observer)
	plane := analyze.NewPlane(observer)
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return fmt.Errorf("flight dir: %w", err)
		}
		plane.Flight.SetDir(*flightDir, 16)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, plane.Handler()) }()
		fmt.Fprintf(out, "serving observability plane at http://%s/metrics (.json, /traces, /events, /slo)\n", ln.Addr())
	}
	for i := 0; i < *machines; i++ {
		if _, err := dc.AddMachine(fmt.Sprintf("machine-%d", i)); err != nil {
			return err
		}
	}
	cfg := fleet.Config{Workers: *workers, Meter: meter, Obs: observer}
	if *verbose {
		cfg.OnEvent = func(e fleet.Event) {
			switch e.Type {
			case fleet.EventCompleted:
				fmt.Fprintf(out, "  %-12s %s -> %s (attempt %d)\n", e.App, e.Source, e.Dest, e.Attempt)
			case fleet.EventRedirect:
				fmt.Fprintf(out, "  %-12s redirected to %s\n", e.App, e.Dest)
			case fleet.EventFailed:
				fmt.Fprintf(out, "  %-12s FAILED: %v\n", e.App, e.Err)
			}
		}
	}
	err = drive(out, dc, plane, cfg, plan, *apps, *counters)
	if *metricsAddr != "" && *linger > 0 {
		fmt.Fprintf(out, "lingering %s for scrapers on %s\n", linger, *metricsAddr)
		select {
		case <-time.After(*linger):
		case <-stop:
		}
	}
	return err
}

// drive populates the data center, executes the plan, prints the report
// and verifies the fleet afterwards.
func drive(out io.Writer, dc *cloud.DataCenter, plane *analyze.Plane, cfg fleet.Config, plan fleet.Plan, apps, counters int) error {
	first, _ := dc.Machine("machine-0")

	signer := xcrypto.DeriveKey([]byte("fleetd"), "signer")
	expected := make(map[string]uint32, apps)
	ctrIDs := make(map[string][]int, apps)
	fmt.Fprintf(out, "provisioned %d machines; launching %d enclaves on %s\n", len(dc.Machines()), apps, first.ID())
	for i := 0; i < apps; i++ {
		name := fmt.Sprintf("tenant-%04d", i)
		img := &sgx.Image{
			Name:            name,
			Version:         1,
			Code:            []byte(name),
			SignerPublicKey: ed25519.PublicKey(signer[:]),
		}
		app, err := first.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			return fmt.Errorf("launch %s: %w", name, err)
		}
		incs := uint32(i%7 + 1)
		for c := 0; c < counters; c++ {
			id, _, err := app.Library.CreateCounter()
			if err != nil {
				return err
			}
			ctrIDs[name] = append(ctrIDs[name], id)
			for j := uint32(0); j < incs; j++ {
				if _, err := app.Library.IncrementCounter(id); err != nil {
					return err
				}
			}
		}
		expected[name] = incs
	}

	fmt.Fprintf(out, "executing %s plan (%s policy, %d workers)\n\n", plan.Intent, plan.Policy.Name(), cfg.Workers)
	orch := fleet.New(dc, cfg)
	report, err := orch.Execute(context.Background(), plan)
	if report != nil && report.Journal != nil {
		// The black box ships the journal tail of the latest plan.
		j := report.Journal
		plane.Flight.SetJournalProvider(func() []byte {
			raw, err := j.Encode()
			if err != nil {
				return nil
			}
			return raw
		})
	}
	if err != nil {
		if report != nil {
			printJournalFailures(report)
		}
		_, _ = plane.Flight.Trip(flight.Trigger{
			Kind: flight.TriggerPlanFailure, Actor: "fleetd", Detail: err.Error(),
		})
		return err
	}
	fmt.Fprintln(out, report)
	printTelemetry(out, cfg.Obs, report)
	printAnalysis(out, plane, cfg.Obs)
	// A plan with failed or canceled migrations is a failed operation:
	// surface every non-completed journal entry and exit non-zero, so
	// scripts and CI catch it instead of parsing logs.
	if report.Failed > 0 || report.Canceled > 0 {
		printJournalFailures(report)
		ferr := fmt.Errorf("plan finished with %d failed and %d canceled migrations",
			report.Failed, report.Canceled)
		_, _ = plane.Flight.Trip(flight.Trigger{
			Kind: flight.TriggerPlanFailure, Actor: "fleetd", Detail: ferr.Error(),
		})
		return ferr
	}

	// Verify the fleet invariants the paper's design promises: every
	// counter continued exactly where it left off, on exactly one machine.
	live := 0
	for _, m := range dc.Machines() {
		n := m.AppCount()
		live += n
		fmt.Fprintf(out, "%-12s %3d enclaves\n", m.ID(), n)
	}
	if live != apps {
		return fmt.Errorf("enclaves lost: %d live, want %d", live, apps)
	}
	verified := 0
	for _, m := range dc.Machines() {
		for _, app := range m.Apps() {
			want, ok := expected[app.Image().Name]
			if !ok {
				continue
			}
			for _, id := range ctrIDs[app.Image().Name] {
				v, err := app.Library.ReadCounter(id)
				if err != nil {
					return fmt.Errorf("%s: %w", app.Image().Name, err)
				}
				if v != want {
					return fmt.Errorf("%s: counter %d = %d, want %d (rollback!)", app.Image().Name, id, v, want)
				}
			}
			verified++
		}
	}
	fmt.Fprintf(out, "\nverified %d enclaves: all counters intact, no rollback, no forks\n", verified)
	return nil
}
