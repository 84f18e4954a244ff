package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// WANRTTsMS are the link round-trip times the sweep measures at, in
// milliseconds: metro, regional, continental, cross-continental, and
// intercontinental distances (the repo's Fig. 4-style x-axis for the
// federation).
var WANRTTsMS = []int{1, 5, 25, 50, 100, 200}

// WANSweep measures the federation across the RTT axis, the ROADMAP's
// cross-datacenter item: cross-DC drain throughput (migrations/s of
// evacuating a machine over the WAN link, fleet orchestrator with
// remote targets) and cross-DC kill-to-recovered latency (mirrored
// escrow + origin-binding arbitration + partner-side resurrection),
// each at every RTT point. Drain rows report migrations per second;
// recovery rows report seconds per recovery, like RecoverySweep.
func WANSweep(cfg Config) ([]Row, error) {
	var rows []Row
	for _, rtt := range WANRTTsMS {
		drain, err := wanDrainSamples(cfg, rtt)
		if err != nil {
			return nil, fmt.Errorf("wan drain %dms: %w", rtt, err)
		}
		row, err := compare(fmt.Sprintf("wan-drain-%dms-migps", rtt), drain, nil, cfg.Confidence)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, rtt := range WANRTTsMS {
		rec, err := wanRecoverySamples(cfg, rtt)
		if err != nil {
			return nil, fmt.Errorf("wan recover %dms: %w", rtt, err)
		}
		row, err := compare(fmt.Sprintf("wan-recover-%dms", rtt), rec, nil, cfg.Confidence)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// wanWorld builds a two-site federation: dc-a/dc-b with three machines
// each, optionally one f=1 rack per site with an escrow mirror a->b.
func wanWorld(name string, rttMS int, scale float64, racks bool) (fed *federation.Federation, dcA, dcB *cloud.DataCenter, mirror *federation.Mirror, err error) {
	fed = federation.New(name)
	dcs := make([]*cloud.DataCenter, 0, 2)
	for _, dcName := range []string{name + "-a", name + "-b"} {
		dc, err := cloud.NewDataCenter(dcName, sim.NewLatency(scale))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		prefix := dcName[len(dcName)-1:]
		ids := make([]string, 0, 3)
		for i := 1; i <= 3; i++ {
			id := fmt.Sprintf("%s%d", prefix, i)
			if _, err := dc.AddMachine(id); err != nil {
				return nil, nil, nil, nil, err
			}
			ids = append(ids, id)
		}
		if racks {
			if _, err := dc.NewReplicaGroup("rack-"+prefix, 1, ids...); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		if err := fed.Admit(dc); err != nil {
			return nil, nil, nil, nil, err
		}
		dcs = append(dcs, dc)
	}
	cfg := transport.WANConfig{
		RTT:       time.Duration(rttMS) * time.Millisecond,
		Bandwidth: 1 << 30, // 1 GiB/s
		Scale:     scale,
	}
	if _, err := fed.Connect(dcs[0].Name(), dcs[1].Name(), cfg); err != nil {
		return nil, nil, nil, nil, err
	}
	if racks {
		m, err := fed.PartnerGroups(dcs[0].Name(), "rack-a", dcs[1].Name(), "rack-b")
		if err != nil {
			return nil, nil, nil, nil, err
		}
		mirror = m
	}
	return fed, dcs[0], dcs[1], mirror, nil
}

// wanBatch resolves the stream width the drain rows run at:
// Config.BatchSize, defaulting to 64. 1 runs every migration as a stream
// of one — what the CI smoke compares the wide stream against, to assert
// that sharing a stream actually pays for itself.
func wanBatch(cfg Config) int {
	if cfg.BatchSize <= 0 {
		return 64
	}
	return cfg.BatchSize
}

// wanDrainSamples runs R cross-DC evacuations of K enclaves each and
// reports per-run throughput (migrations per second of wall time).
// Batched runs drain a larger fleet: the pipeline's whole point is
// amortizing the session handshake and the per-exchange RTTs across
// many members, so it needs enough members per (source, dest) stream
// for the amortization to show.
func wanDrainSamples(cfg Config, rttMS int) ([]float64, error) {
	batch := wanBatch(cfg)
	apps, workers := 12, 8
	if batch > 1 {
		apps, workers = 96, 32
	}
	runs := cfg.N / 25
	if runs < 2 {
		runs = 2
	}
	if runs > 8 {
		runs = 8
	}
	out := make([]float64, 0, runs)
	for r := 0; r < runs; r++ {
		fed, dcA, dcB, _, err := wanWorld(fmt.Sprintf("wandrain-%d-%d", rttMS, r), rttMS, cfg.Scale, false)
		if err != nil {
			return nil, err
		}
		a1, _ := dcA.Machine("a1")
		for i := 0; i < apps; i++ {
			app, err := a1.LaunchApp(appImage(fmt.Sprintf("wan-%02d", i)), core.NewMemoryStorage(), core.InitNew)
			if err != nil {
				return nil, err
			}
			if _, _, err := app.Library.CreateCounter(); err != nil {
				return nil, err
			}
		}
		link, _ := fed.Link(dcA.Name(), dcB.Name())
		var remotes []fleet.RemoteTarget
		for _, id := range []string{"b1", "b2", "b3"} {
			m, _ := dcB.Machine(id)
			remotes = append(remotes, fleet.RemoteTarget{Machine: m, Link: link.Name()})
		}
		plan := fleet.Plan{Intent: fleet.IntentEvacuate, Sources: []string{"a1"}, RemoteTargets: remotes}
		// Four concurrent deliveries per link: the per-link cap a real
		// constrained WAN would demand, and the knob that makes the
		// throughput-vs-RTT tradeoff visible. A batched session counts as
		// one delivery against the cap — amortization inside the slot is
		// exactly the win being measured.
		orch := fleet.New(dcA, fleet.Config{Workers: workers, BatchSize: batch, LinkCap: map[string]int{link.Name(): 4}})
		report, err := orch.Execute(context.Background(), plan)
		if err != nil {
			return nil, err
		}
		if report.Completed != apps {
			return nil, fmt.Errorf("drain completed %d of %d", report.Completed, apps)
		}
		out = append(out, report.Throughput)
		fed.Close()
	}
	return out, nil
}

// wanRecoverySamples times cross-DC kill→recovered per round: launch in
// dc-a, mirror, kill the host, resurrect on the partner rack in dc-b.
// Each round consumes counter budget in both racks (binding + shadow
// sets outlive the round), so worlds are recycled every chunk.
const wanRecoverChunk = 24

func wanRecoverySamples(cfg Config, rttMS int) ([]float64, error) {
	n := cfg.N
	if n > 40 {
		n = 40 // recovery rounds are expensive; the curve needs shape, not volume
	}
	if n < 4 {
		n = 4
	}
	out := make([]float64, 0, n)
	chunk := 0
	for len(out) < n {
		rounds := n - len(out)
		if rounds > wanRecoverChunk {
			rounds = wanRecoverChunk
		}
		samples, err := wanRecoveryChunk(cfg, rttMS, chunk, rounds, len(out) == 0)
		if err != nil {
			return nil, err
		}
		out = append(out, samples...)
		chunk++
	}
	return out, nil
}

func wanRecoveryChunk(cfg Config, rttMS, chunk, rounds int, warmup bool) ([]float64, error) {
	fed, dcA, dcB, mirror, err := wanWorld(fmt.Sprintf("wanrec-%d-%d", rttMS, chunk), rttMS, cfg.Scale, true)
	if err != nil {
		return nil, err
	}
	defer fed.Close()
	a1, _ := dcA.Machine("a1")
	_ = dcB
	out := make([]float64, 0, rounds)
	start := 0
	if warmup {
		start = -1
	}
	for i := start; i < rounds; i++ {
		app, err := a1.LaunchApp(appImage(fmt.Sprintf("wanrec-%d-%d-%d", rttMS, chunk, i)), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			return nil, err
		}
		ctr, _, err := app.Library.CreateCounter()
		if err != nil {
			return nil, err
		}
		if _, err := app.Library.IncrementCounter(ctr); err != nil {
			return nil, err
		}
		if err := mirror.Flush(); err != nil {
			return nil, err
		}
		a1.Kill()
		t0 := time.Now()
		recovered, err := fed.RecoverMachine(dcA.Name(), "a1", dcB.Name(), "b1", false)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		if len(recovered) != 1 {
			return nil, fmt.Errorf("recovered %d apps, want 1", len(recovered))
		}
		if i >= 0 {
			out = append(out, dt)
		}
		recovered[0].Terminate()
		if err := a1.Restart(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
