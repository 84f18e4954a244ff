package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// Drain100kResult is the outcome of the 100k-enclave drain scenario:
// one source machine evacuated across a 200 ms WAN link through the
// batched migration pipeline. Run at Scale 1 the Wall clock is the
// simulated time itself — the scenario's claim is that a hundred
// thousand enclaves cross a continent in minutes, not hours, because
// session resume, chunked streams, and compression amortize the
// per-migration exchanges that streams of one pay at full price.
type Drain100kResult struct {
	Apps       int           `json:"apps"`
	Completed  int           `json:"completed"`
	BatchSize  int           `json:"batch_size"`
	RTTMS      int           `json:"rtt_ms"`
	Scale      float64       `json:"scale"`
	Wall       time.Duration `json:"wall_ns"`
	Minutes    float64       `json:"minutes"`
	Throughput float64       `json:"throughput_migps"`
	WireMB     float64       `json:"wire_mb"`
}

func (r *Drain100kResult) String() string {
	return fmt.Sprintf("drain %d enclaves @%dms RTT batch=%d scale=%v: %.2f min (%.1f mig/s, %.1f MiB on the wire)",
		r.Apps, r.RTTMS, r.BatchSize, r.Scale, r.Minutes, r.Throughput, r.WireMB)
}

// Drain100k evacuates `apps` enclaves (default 100 000) from one
// machine over a 200 ms WAN link with the batched pipeline and reports
// how long the drain took. The world is provisioned at scale 0 — the
// launches are setup, not the measurement — and the configured scale is
// switched on only for the drain itself.
func Drain100k(cfg Config, apps int) (*Drain100kResult, error) {
	if apps <= 0 {
		apps = 100_000
	}
	const rttMS = 200
	batch := wanBatch(cfg)
	fed, dcA, dcB, _, err := wanWorld("drain100k", rttMS, 0, false)
	if err != nil {
		return nil, err
	}
	defer fed.Close()
	a1, _ := dcA.Machine("a1")
	for i := 0; i < apps; i++ {
		// Distinct images per enclave: a real fleet drains many
		// applications, not one replicated binary.
		if _, err := a1.LaunchApp(appImage(fmt.Sprintf("d100k-%06d", i)), core.NewMemoryStorage(), core.InitNew); err != nil {
			return nil, err
		}
	}
	link, _ := fed.Link(dcA.Name(), dcB.Name())
	var remotes []fleet.RemoteTarget
	for _, id := range []string{"b1", "b2", "b3"} {
		m, _ := dcB.Machine(id)
		remotes = append(remotes, fleet.RemoteTarget{Machine: m, Link: link.Name()})
	}
	dcA.Latency.SetScale(cfg.Scale)
	dcB.Latency.SetScale(cfg.Scale)
	link.Latency().SetScale(cfg.Scale)

	plan := fleet.Plan{Intent: fleet.IntentEvacuate, Sources: []string{"a1"}, RemoteTargets: remotes}
	// Eight batched sessions in flight on the link: wider than the sweep's
	// cap of 4 because a machine-scale evacuation is exactly when an
	// operator would provision extra WAN concurrency.
	orch := fleet.New(dcA, fleet.Config{
		Workers:   32,
		BatchSize: batch,
		LinkCap:   map[string]int{link.Name(): 8},
	})
	_, wire0 := link.Stats()
	report, err := orch.Execute(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	if report.Completed != apps {
		return nil, fmt.Errorf("drain100k completed %d of %d (failed %d)", report.Completed, apps, report.Failed)
	}
	_, wire1 := link.Stats()
	return &Drain100kResult{
		Apps:       apps,
		Completed:  report.Completed,
		BatchSize:  batch,
		RTTMS:      rttMS,
		Scale:      cfg.Scale,
		Wall:       report.Wall,
		Minutes:    report.Wall.Minutes(),
		Throughput: report.Throughput,
		WireMB:     float64(wire1-wire0) / (1 << 20),
	}, nil
}
