// Command benchfig regenerates every table and figure of the paper's
// evaluation (§VII):
//
//	benchfig -fig 3              Figure 3: counter operations
//	benchfig -fig 4              Figure 4: init + sealing operations
//	benchfig -migration          §VII-B: enclave migration overhead
//	benchfig -repl               replicated counters: increment vs. f
//	benchfig -recover            restart-anywhere recovery: kill→recovered vs. f + escrow blob size
//	benchfig -wan                cross-DC federation: drain throughput + recovery latency vs. WAN RTT
//	benchfig -drain100k          100k-enclave drain: batched evacuation over a 200ms WAN link
//	benchfig -table 1            Table I: migration data structure
//	benchfig -table 2            Table II: library internal structure
//	benchfig -tcb                §VII-A: software TCB size
//	benchfig -all                everything
//
// Use -n to set the iteration count (paper: 1000) and -scale to set the
// Platform Services latency scale (0 = instant, 1 = paper magnitude;
// see EXPERIMENTS.md for the calibration discussion). -json FILE records
// every result that ran as a machine-readable baseline (the BENCH_PR*.json
// files at the repository root track the perf trajectory across PRs);
// -openmetrics FILE writes the same metric snapshot as OpenMetrics text
// for diffing against a live fleetd -metrics-addr scrape.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// report is the -json output: every experiment that ran, with config.
type report struct {
	Config      bench.Config           `json:"config"`
	Fig3        []bench.Row            `json:"fig3,omitempty"`
	Fig4        []bench.Row            `json:"fig4,omitempty"`
	Migration   *bench.MigrationResult `json:"migration,omitempty"`
	Replication []bench.Row            `json:"replication,omitempty"`
	Recovery    []bench.Row            `json:"recovery,omitempty"`
	WAN         []bench.Row            `json:"wan,omitempty"`
	Drain100k   *bench.Drain100kResult `json:"drain100k,omitempty"`
	// Metrics is the run's telemetry snapshot: per-operation latency
	// histograms (p50/p99/p999) and the simulated-cost op tallies.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchfig", flag.ExitOnError)
	var (
		fig       = fs.Int("fig", 0, "regenerate figure 3 or 4")
		table     = fs.Int("table", 0, "report table 1 or 2 structure size")
		migration = fs.Bool("migration", false, "measure enclave migration overhead")
		repl      = fs.Bool("repl", false, "measure replicated-counter increment latency vs. replication factor")
		recov     = fs.Bool("recover", false, "measure kill-to-recovered latency vs. replication factor and escrow blob size")
		wan       = fs.Bool("wan", false, "measure cross-DC drain throughput and recovery latency vs. WAN RTT")
		wanBatch  = fs.Int("wan-batch", 0, "stream width N for WAN drain scenarios: each (source, destination) pair migrates in streams of N (0 = default 64, 1 = stream of one, the Fig. 2 exchange)")
		drain100k = fs.Bool("drain100k", false, "drain a 100k-enclave machine across a 200ms WAN link with the batched pipeline")
		drainN    = fs.Int("drain-n", 100_000, "enclave count for -drain100k (reduce for CI smoke)")
		drainSc   = fs.Float64("drain-scale", 1, "latency scale for -drain100k (1 = wall time is simulated time)")
		tcb       = fs.Bool("tcb", false, "report software TCB size")
		all       = fs.Bool("all", false, "run every experiment")
		n         = fs.Int("n", 200, "iterations per operation (paper: 1000)")
		scale     = fs.Float64("scale", 0.01, "latency scale (1 = paper-magnitude ME latencies)")
		conf      = fs.Float64("conf", 0.99, "confidence level")
		jsonPath  = fs.String("json", "", "write results that ran to this file as JSON")
		omPath    = fs.String("openmetrics", "", "write the run's metric snapshot to this file as OpenMetrics text")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag

	metrics := obs.NewMetrics()
	cfg := bench.Config{N: *n, Scale: *scale, Confidence: *conf, BatchSize: *wanBatch, Metrics: metrics}
	fmt.Printf("config: N=%d scale=%v confidence=%v\n\n", cfg.N, cfg.Scale, cfg.Confidence)

	rep := report{Config: cfg}
	ran := false
	if *all || *fig == 3 {
		ran = true
		rows, err := runFig3(cfg)
		if err != nil {
			return err
		}
		rep.Fig3 = rows
	}
	if *all || *fig == 4 {
		ran = true
		rows, err := runFig4(cfg)
		if err != nil {
			return err
		}
		rep.Fig4 = rows
	}
	if *all || *migration {
		ran = true
		res, err := runMigration(cfg)
		if err != nil {
			return err
		}
		rep.Migration = res
	}
	if *all || *repl {
		ran = true
		rows, err := runReplication(cfg)
		if err != nil {
			return err
		}
		rep.Replication = rows
	}
	if *all || *recov {
		ran = true
		rows, err := runRecovery(cfg)
		if err != nil {
			return err
		}
		rep.Recovery = rows
	}
	if *all || *wan {
		ran = true
		rows, err := runWAN(cfg)
		if err != nil {
			return err
		}
		rep.WAN = rows
	}
	if *drain100k {
		ran = true
		dcfg := cfg
		dcfg.Scale = *drainSc
		res, err := runDrain100k(dcfg, *drainN)
		if err != nil {
			return err
		}
		rep.Drain100k = res
	}
	if *all || *table == 1 || *table == 2 {
		ran = true
		if err := runTables(); err != nil {
			return err
		}
	}
	if *all || *tcb {
		ran = true
		if err := runTCB(); err != nil {
			return err
		}
	}
	if !ran {
		fs.Usage()
		return nil
	}
	if *jsonPath != "" {
		snap := metrics.Snapshot()
		rep.Metrics = &snap
		out, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *omPath != "" {
		var buf bytes.Buffer
		if err := analyze.WriteOpenMetrics(&buf, metrics.Snapshot()); err != nil {
			return fmt.Errorf("render openmetrics: %w", err)
		}
		if err := os.WriteFile(*omPath, buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write openmetrics: %w", err)
		}
		fmt.Printf("wrote %s\n", *omPath)
	}
	return nil
}

func runFig3(cfg bench.Config) ([]bench.Row, error) {
	fmt.Println("=== Figure 3: average duration of counter operations ===")
	fmt.Println("(paper: library overhead at most 12.3%, on increment; read not significant)")
	start := time.Now()
	rows, err := bench.Fig3(cfg)
	if err != nil {
		return nil, fmt.Errorf("fig 3: %w", err)
	}
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	fmt.Printf("  [%s]\n\n", time.Since(start).Round(time.Millisecond))
	return rows, nil
}

func runFig4(cfg bench.Config) ([]bench.Row, error) {
	fmt.Println("=== Figure 4: init and sealing operations ===")
	fmt.Println("(paper: migratable sealing slightly FASTER than native; init negligible)")
	start := time.Now()
	rows, err := bench.Fig4(cfg)
	if err != nil {
		return nil, fmt.Errorf("fig 4: %w", err)
	}
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	fmt.Printf("  [%s]\n\n", time.Since(start).Round(time.Millisecond))
	return rows, nil
}

func runMigration(cfg bench.Config) (*bench.MigrationResult, error) {
	fmt.Println("=== §VII-B: enclave migration overhead ===")
	fmt.Println("(paper: 0.47 ± 0.035 s per migration at hardware latencies; VM migration: seconds)")
	res, err := bench.MigrationOverhead(cfg)
	if err != nil {
		return nil, fmt.Errorf("migration: %w", err)
	}
	fmt.Printf("  enclave migration: %s\n", res.Enclave)
	fmt.Printf("  VM memory copy (virtual, %d MiB guest): %s\n",
		res.VMMemoryBytes>>20, res.VMCopyVirtual.Round(time.Millisecond))
	ratio := res.Enclave.Mean / res.VMCopyVirtual.Seconds()
	fmt.Printf("  enclave overhead / VM copy: %.3f\n\n", ratio)
	return res, nil
}

func runReplication(cfg bench.Config) ([]bench.Row, error) {
	fmt.Println("=== Replicated counters: increment latency vs. replication factor ===")
	fmt.Println("(quorum of 2f+1 replicas; commit on majority; overhead vs. the f=0 local service)")
	start := time.Now()
	rows, err := bench.ReplicationSweep(cfg)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	fmt.Printf("  [%s]\n\n", time.Since(start).Round(time.Millisecond))
	return rows, nil
}

func runRecovery(cfg bench.Config) ([]bench.Row, error) {
	fmt.Println("=== Restart-anywhere recovery: kill→recovered latency ===")
	fmt.Println("(escrowed Table II blob resurrected on a rack peer; binding counter won at the sealed value)")
	start := time.Now()
	rows, err := bench.RecoverySweep(cfg)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	fmt.Printf("  [%s]\n\n", time.Since(start).Round(time.Millisecond))
	return rows, nil
}

func runWAN(cfg bench.Config) ([]bench.Row, error) {
	fmt.Println("=== Cross-DC federation: drain throughput and recovery latency vs. WAN RTT ===")
	fmt.Println("(two federated DCs; drain rows are migrations/s, recover rows seconds per kill→recovered)")
	start := time.Now()
	rows, err := bench.WANSweep(cfg)
	if err != nil {
		return nil, fmt.Errorf("wan: %w", err)
	}
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	fmt.Printf("  [%s]\n\n", time.Since(start).Round(time.Millisecond))
	return rows, nil
}

func runDrain100k(cfg bench.Config, apps int) (*bench.Drain100kResult, error) {
	fmt.Println("=== 100k-enclave drain: batched machine evacuation over a 200ms WAN link ===")
	fmt.Println("(at -drain-scale 1 the wall clock IS the simulated time; the claim is minutes, not hours)")
	start := time.Now()
	res, err := bench.Drain100k(cfg, apps)
	if err != nil {
		return nil, fmt.Errorf("drain100k: %w", err)
	}
	fmt.Println("  " + res.String())
	fmt.Printf("  [%s]\n\n", time.Since(start).Round(time.Millisecond))
	return res, nil
}

func runTables() error {
	fmt.Println("=== Tables I and II: data structure sizes ===")
	mig, blob, err := bench.TableSizes()
	if err != nil {
		return fmt.Errorf("tables: %w", err)
	}
	fmt.Printf("  Table I  (migration data: active[256], values[256], 128-bit MSK): %d bytes on the wire\n", mig)
	fmt.Printf("  Table II (library state: + frozen flag, UUIDs, offsets), sealed blob: %d bytes\n\n", blob)
	return nil
}

// tcbGroups places every non-test file of tcbDir on one side of the
// paper's §VII-A split, or in the last group: code that runs in neither
// enclave. A new core file must be placed here before the report counts
// it (TestTCBGroupsCoverCore).
var tcbGroups = []struct {
	name  string
	files []string
}{
	{"Migration Library", []string{"library.go", "bringup.go", "escrow.go", "chaosfault.go"}},
	{"Migration Enclave", []string{"enclave.go", "remote.go", "batch.go", "batchwire.go", "session.go"}},
	{"Shared protocol", []string{"protocol.go", "data.go", "wire.go"}},
	// storage.go: the untrusted host's blob store; counters.go: the
	// platform counter interface; escrowadmin.go: the operator's escrow
	// agents; chaosfault_mut.go: the mutation-test build only.
	{"Not enclave code", []string{"storage.go", "counters.go", "escrowadmin.go", "chaosfault_mut.go"}},
}

// tcbDir is the package the TCB report counts, relative to the
// repository root.
const tcbDir = "internal/core"

// runTCB counts the lines of our Migration Enclave and Migration Library
// implementations, the analogue of the paper's 217 / 940 LoC TCB report.
func runTCB() error {
	fmt.Println("=== §VII-A: software TCB size ===")
	fmt.Println("(paper: Migration Enclave 217 LoC, Migration Library 940 LoC)")
	for _, g := range tcbGroups {
		total := 0
		for _, f := range g.files {
			n, err := countCodeLines(filepath.Join(tcbDir, f))
			if err != nil {
				fmt.Printf("  unavailable (%v); run from the repository root\n\n", err)
				return nil
			}
			total += n
		}
		fmt.Printf("  %-18s %4d lines of code\n", g.name, total)
	}
	fmt.Println()
	return nil
}

// countCodeLines counts non-blank, non-comment lines in a Go file.
func countCodeLines(path string) (int, error) {
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		n++
	}
	return n, sc.Err()
}
