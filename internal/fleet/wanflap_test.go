package fleet_test

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestBatchDrainWANFlapParksAndResumes kills the WAN link in the middle
// of a batched cross-DC drain: members whose delivery was never
// acknowledged must park (frozen at the source, data held by the source
// ME, resumable by token), a later ResumeParked must land every one of
// them exactly once, and no enclave may ever run twice.
func TestBatchDrainWANFlapParksAndResumes(t *testing.T) {
	const n = 16
	var states map[string]*appState
	wanFlapParksAndResumes(t, n,
		func(a1 *cloud.Machine) { states = launchApps(t, a1, n) },
		func(b1 *cloud.Machine) { verifySurvival(t, states, []*cloud.Machine{b1}) })
}

// TestSameImageWANFlapParksAndResumes is the same flap with sixteen
// replicas of one image sharing the stream: the members no ack covered
// park, and the resume lands each one's own counter value exactly once.
func TestSameImageWANFlapParksAndResumes(t *testing.T) {
	const n = 16
	img := testImage("replica")
	wanFlapParksAndResumes(t, n,
		func(a1 *cloud.Machine) { launchTwins(t, a1, img, n, 1) },
		func(b1 *cloud.Machine) {
			if got := twinValues(t, b1, img); !slices.Equal(got, oneToN(n)) {
				t.Fatalf("counter multiset on b1 = %v, want %v", got, oneToN(n))
			}
		})
}

// wanPair is two data centers joined by one WAN link: a1 (plus a2, the
// local candidate ResumeParked needs to plan with) and b1 across the link.
type wanPair struct {
	dcA, dcB *cloud.DataCenter
	a1, b1   *cloud.Machine
	link     *transport.WANLink
}

func newWANPair(t *testing.T, name string) *wanPair {
	t.Helper()
	fed := federation.New(name)
	t.Cleanup(fed.Close)
	w := &wanPair{}
	var err error
	if w.dcA, err = cloud.NewDataCenter(name+"-a", sim.NewInstantLatency()); err != nil {
		t.Fatal(err)
	}
	if w.dcB, err = cloud.NewDataCenter(name+"-b", sim.NewInstantLatency()); err != nil {
		t.Fatal(err)
	}
	w.a1, _ = w.dcA.AddMachine("a1")
	w.dcA.AddMachine("a2")
	w.b1, _ = w.dcB.AddMachine("b1")
	if err := fed.Admit(w.dcA); err != nil {
		t.Fatal(err)
	}
	if err := fed.Admit(w.dcB); err != nil {
		t.Fatal(err)
	}
	w.link, err = fed.Connect(name+"-a", name+"-b", transport.WANConfig{
		RTT:       10 * time.Millisecond,
		Bandwidth: 1 << 30,
		Scale:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// evacuate is the plan that moves everything on a1 across the link to b1.
func (w *wanPair) evacuate() fleet.Plan {
	return fleet.Plan{
		Intent:        fleet.IntentEvacuate,
		Sources:       []string{"a1"},
		RemoteTargets: []fleet.RemoteTarget{{Machine: w.b1, Link: w.link.Name()}},
	}
}

// wanFlapParksAndResumes launches n enclaves on a1, cuts the WAN link in
// the middle of their one-stream drain to b1, resumes, and hands b1 to
// verify.
func wanFlapParksAndResumes(t *testing.T, n int, launch, verify func(*cloud.Machine)) {
	w := newWANPair(t, "flap")
	dcA, a1, b1, link := w.dcA, w.a1, w.b1, w.link

	launch(a1)

	// One stream. The link carries its offer and first data frame — the
	// first member to freeze, cut into a frame of its own because the
	// window is idle — and goes down as the second frame leaves a1, so
	// every later member is deterministically stranded un-acknowledged.
	var frames atomic.Int32
	dcA.Network.SetAdversary(&transport.Interceptor{Request: func(msg *transport.Message) error {
		if msg.Kind == "migrate-data" && frames.Add(1) == 2 {
			link.SetDown(true)
		}
		return nil
	}})
	orch := fleet.New(dcA, fleet.Config{Workers: 2, BatchSize: n, MaxAttempts: 1})
	var report *fleet.Report
	var err error
	noGoroutineGrowth(t, func() { report, err = orch.Execute(context.Background(), w.evacuate()) })
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed+report.Failed != n {
		t.Fatalf("report does not account for every member: %+v", report)
	}
	if report.Failed == 0 {
		t.Fatal("WAN flap stranded no members; flap landed too late to test parking")
	}
	// Every stranded member must be parked, not lost: frozen at the
	// source with a resume token the source ME still honors.
	parked := 0
	for _, app := range a1.Apps() {
		if app.Library.Frozen() && app.Library.MigrationToken() != nil {
			parked++
		}
	}
	if parked != report.Failed {
		t.Fatalf("parked %d apps, want %d (every failed member)", parked, report.Failed)
	}

	// Link restored: the same orchestrator resumes every parked member.
	// The held data re-streams to the originally targeted machine.
	dcA.Network.SetAdversary(nil)
	link.SetDown(false)
	var resume *fleet.Report
	noGoroutineGrowth(t, func() { resume, err = orch.ResumeParked(context.Background()) })
	if err != nil {
		t.Fatal(err)
	}
	if resume.Completed != report.Failed || resume.Failed != 0 {
		t.Fatalf("resume: %+v, want %d completed", resume, report.Failed)
	}

	// No double-resume: a second pass finds nothing parked.
	again, err := orch.ResumeParked(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Completed+again.Failed != 0 {
		t.Fatalf("second ResumeParked found work: %+v", again)
	}

	// Exactly one live copy of every enclave, all on the WAN target.
	if got := a1.AppCount(); got != 0 {
		t.Fatalf("a1 still hosts %d apps", got)
	}
	if got := b1.AppCount(); got != n {
		t.Fatalf("b1 hosts %d apps, want %d", got, n)
	}
	verify(b1)
}
