package fleet

import (
	"context"
	"crypto/ed25519"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/xcrypto"
)

func costImage(name string) *sgx.Image {
	key := xcrypto.DeriveKey([]byte("costaware-test"), "signer")
	return &sgx.Image{
		Name:            name,
		Version:         1,
		Code:            []byte("cost:" + name),
		SignerPublicKey: ed25519.PublicKey(key[:]),
	}
}

// TestCostAwarePacksByMigrationCost: with history showing one app is
// vastly more expensive to move (big state, many counters), a drain
// isolates it while the cheap apps share the other destination —
// where least-loaded would split purely by count.
func TestCostAwarePacksByMigrationCost(t *testing.T) {
	dc, err := cloud.NewDataCenter("cost-dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"m0", "m1", "m2"} {
		if _, err := dc.AddMachine(id); err != nil {
			t.Fatal(err)
		}
	}
	m0, _ := dc.Machine("m0")
	for _, name := range []string{"big", "small-a", "small-b", "small-c"} {
		app, err := m0.LaunchApp(costImage(name), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := app.Library.CreateCounter(); err != nil {
			t.Fatal(err)
		}
	}

	// History from earlier plans: "big" moves 200 kB and 50 counters,
	// the smalls are trivial.
	hist := NewJournal()
	hist.Record(Entry{App: "big", Status: StatusCompleted, StateBytes: 200_000, Counters: 50})
	for _, name := range []string{"small-a", "small-b", "small-c"} {
		hist.Record(Entry{App: name, Status: StatusCompleted, StateBytes: 100, Counters: 1})
	}

	policy := NewCostAware(hist)
	plan := Drain("m0")
	plan.Policy = policy
	orch := New(dc, Config{Workers: 1})
	report, err := orch.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 4 || report.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 4/0", report.Completed, report.Failed)
	}

	m1, _ := dc.Machine("m1")
	m2, _ := dc.Machine("m2")
	var bigHost, smallHost *cloud.Machine
	for _, m := range []*cloud.Machine{m1, m2} {
		for _, app := range m.Apps() {
			if app.Image().Name == "big" {
				bigHost = m
			} else {
				smallHost = m
			}
		}
	}
	if bigHost == nil || smallHost == nil {
		t.Fatal("apps not placed")
	}
	if bigHost == smallHost {
		t.Fatalf("big app shares %s with small apps; cost-aware should isolate it", bigHost.ID())
	}
	if bigHost.AppCount() != 1 || smallHost.AppCount() != 3 {
		t.Fatalf("placement %s=%d %s=%d, want 1 and 3",
			bigHost.ID(), bigHost.AppCount(), smallHost.ID(), smallHost.AppCount())
	}
}

// TestCostAwareEmptyHistoryBalances: without history the policy
// degrades to least-loaded behavior (no machine ends up more than one
// enclave above another).
func TestCostAwareEmptyHistoryBalances(t *testing.T) {
	dc, err := cloud.NewDataCenter("cost-dc2", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"m0", "m1", "m2"} {
		if _, err := dc.AddMachine(id); err != nil {
			t.Fatal(err)
		}
	}
	m0, _ := dc.Machine("m0")
	for i := 0; i < 6; i++ {
		if _, err := m0.LaunchApp(costImage("app-"+string(rune('a'+i))), core.NewMemoryStorage(), core.InitNew); err != nil {
			t.Fatal(err)
		}
	}
	plan := Drain("m0")
	plan.Policy = NewCostAware(nil)
	report, err := New(dc, Config{Workers: 2}).Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 6 {
		t.Fatalf("completed=%d, want 6", report.Completed)
	}
	m1, _ := dc.Machine("m1")
	m2, _ := dc.Machine("m2")
	if d := m1.AppCount() - m2.AppCount(); d < -1 || d > 1 {
		t.Fatalf("unbalanced placement: m1=%d m2=%d", m1.AppCount(), m2.AppCount())
	}
}

// TestCostAwareHealthRouting: the health plane's link verdicts steer
// picks — critical links are excluded (unless every candidate is
// critical), degraded links pay an 8× penalty, and healing restores the
// even split.
func TestCostAwareHealthRouting(t *testing.T) {
	dc, err := cloud.NewDataCenter("cost-dc4", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := dc.AddMachine("ok")
	bad, _ := dc.AddMachine("bad")
	candidates := []*cloud.Machine{ok, bad}

	run := func(policy *CostAware, picks int) (okN, badN int) {
		load := map[string]int{}
		for i := 0; i < picks; i++ {
			m, err := policy.Pick(nil, candidates, load)
			if err != nil {
				t.Fatal(err)
			}
			load[m.ID()]++
			if m == ok {
				okN++
			} else {
				badN++
			}
		}
		return okN, badN
	}

	// Critical excludes the candidate outright.
	policy := NewCostAware(nil)
	policy.NoteLinkState("bad", health.Critical)
	okN, badN := run(policy, 10)
	if badN != 0 {
		t.Fatalf("critical-link candidate got %d of %d picks, want 0", badN, okN+badN)
	}

	// All candidates critical: health cannot discriminate, the drain
	// still proceeds (even split, never ErrNoDestination).
	policy = NewCostAware(nil)
	policy.NoteLinkState("ok", health.Critical)
	policy.NoteLinkState("bad", health.Critical)
	okN, badN = run(policy, 10)
	if okN+badN != 10 || okN == 0 || badN == 0 {
		t.Fatalf("all-critical picks %d/%d, want an even split of 10", okN, badN)
	}

	// Degraded pays the 8× penalty: the healthy candidate absorbs most
	// picks, but the degraded one still wins once it is 8× cheaper.
	policy = NewCostAware(nil)
	policy.NoteLinkState("bad", health.Degraded)
	okN, badN = run(policy, 18)
	if okN < 14 || badN == 0 {
		t.Fatalf("degraded split %d/%d, want heavy skew to the healthy link with some spillover", okN, badN)
	}

	// Healing back to healthy clears the penalty entirely.
	policy = NewCostAware(nil)
	policy.NoteLinkState("bad", health.Degraded)
	policy.NoteLinkState("bad", health.Healthy)
	okN, badN = run(policy, 10)
	if d := okN - badN; d < -1 || d > 1 {
		t.Fatalf("post-heal split %d/%d, want even", okN, badN)
	}
}

// TestCostAwareWatchLinks: WatchLinks seeds link states from the monitor
// and tracks later transitions via the change hook — a link going down
// mid-plan redirects the remaining picks without any fleet-side polling.
func TestCostAwareWatchLinks(t *testing.T) {
	dc, err := cloud.NewDataCenter("cost-dc5", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := dc.AddMachine("ok")
	bad, _ := dc.AddMachine("bad")
	candidates := []*cloud.Machine{ok, bad}

	o := obs.NewObserver()
	mon := health.New(o, health.Config{TripAfter: 1, ClearAfter: 1}, health.LinkRule())

	// The bad machine sits behind wan-x, already down at subscribe time.
	o.M().Gauge(obs.WANLinkDown, "wan-x").Set(1)
	o.M().Counter(obs.WANLinkMsgs, "wan-x").Add(1)
	mon.Evaluate(time.Now())

	policy := NewCostAware(nil)
	policy.WatchLinks(mon, map[string]string{"bad": "wan-x"})

	load := map[string]int{}
	for i := 0; i < 6; i++ {
		m, err := policy.Pick(nil, candidates, load)
		if err != nil {
			t.Fatal(err)
		}
		load[m.ID()]++
		if m == bad {
			t.Fatalf("pick %d chose the machine behind the down link", i)
		}
	}

	// The link heals; the change hook must clear the exclusion.
	o.M().Gauge(obs.WANLinkDown, "wan-x").Set(0)
	mon.Evaluate(time.Now())
	load = map[string]int{}
	okN, badN := 0, 0
	for i := 0; i < 10; i++ {
		m, err := policy.Pick(nil, candidates, load)
		if err != nil {
			t.Fatal(err)
		}
		load[m.ID()]++
		if m == bad {
			badN++
		} else {
			okN++
		}
	}
	if badN == 0 {
		t.Fatalf("healed link never picked again: %d/%d", okN, badN)
	}
}

// TestCostAwareLinkRTTWeighting: two destinations with identical load
// but links at very different RTTs — the policy must route nearly all
// picks to the fast link (bytes × RTT pricing), while with no recorded
// RTTs the same sequence splits evenly (exact pre-RTT behavior).
func TestCostAwareLinkRTTWeighting(t *testing.T) {
	dc, err := cloud.NewDataCenter("cost-dc3", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	near, _ := dc.AddMachine("near")
	far, _ := dc.AddMachine("far")
	candidates := []*cloud.Machine{near, far}

	// Simulate the planner's pick loop: each pick adds one planned
	// arrival to the chosen machine's load.
	run := func(policy *CostAware) (nearN, farN int) {
		load := map[string]int{}
		for i := 0; i < 20; i++ {
			m, err := policy.Pick(nil, candidates, load)
			if err != nil {
				t.Fatal(err)
			}
			load[m.ID()]++
			if m == near {
				nearN++
			} else {
				farN++
			}
		}
		return nearN, farN
	}

	weighted := NewCostAware(nil)
	weighted.SetLink("near", 1*time.Millisecond)  // metro link
	weighted.SetLink("far", 100*time.Millisecond) // intercontinental
	nearN, farN := run(weighted)
	if nearN < 18 {
		t.Fatalf("fast link got %d of 20 picks (slow got %d); RTT not priced in", nearN, farN)
	}

	// Unset RTTs: factor 1 everywhere, even split as before.
	nearN, farN = run(NewCostAware(nil))
	if d := nearN - farN; d < -1 || d > 1 {
		t.Fatalf("RTT-free split %d/%d, want even", nearN, farN)
	}
}
