package transport

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestWANLinkMetrics drives one link through delivery, loss, and an
// administrative partition, asserting the per-link wan.link.* families
// the health detectors consume.
func TestWANLinkMetrics(t *testing.T) {
	a := NewNetwork(sim.NewInstantLatency())
	b := NewNetwork(sim.NewInstantLatency())
	o := obs.NewObserver()
	link := NewWANLink("ab", a, b, WANConfig{Loss: 0.5, Seed: 7})
	link.SetObserver(o)

	if err := b.Register("svc", func(Message) ([]byte, error) { return []byte("ok"), nil }); err != nil {
		t.Fatal(err)
	}
	if err := link.Export(SideB, "svc"); err != nil {
		t.Fatal(err)
	}

	const attempts = 40
	delivered, lost := 0, 0
	for i := 0; i < attempts; i++ {
		if _, err := a.Send("c", "svc", "k", nil); err != nil {
			lost++
		} else {
			delivered++
		}
	}
	if delivered == 0 || lost == 0 {
		t.Fatalf("loss 0.5 over %d sends: %d delivered %d lost", attempts, delivered, lost)
	}
	snap := o.M().Snapshot()
	if got, _ := snap.Counter(obs.WANLinkMsgs, "ab"); got != int64(delivered) {
		t.Errorf("wan.link.msgs.ab = %d, want %d", got, delivered)
	}
	if got, _ := snap.Counter(obs.WANLinkLost, "ab"); got != int64(lost) {
		t.Errorf("wan.link.lost.ab = %d, want %d", got, lost)
	}
	if got, _ := snap.Gauge(obs.WANLinkDown, "ab"); got != 0 {
		t.Errorf("wan.link.down.ab = %d while up", got)
	}

	// Partition: sends are refused (not lost) and the gauge flips.
	link.SetDown(true)
	for i := 0; i < 3; i++ {
		if _, err := a.Send("c", "svc", "k", nil); err == nil {
			t.Fatal("send succeeded across a down link")
		}
	}
	snap = o.M().Snapshot()
	if got, _ := snap.Gauge(obs.WANLinkDown, "ab"); got != 1 {
		t.Errorf("wan.link.down.ab = %d while down, want 1", got)
	}
	if got, _ := snap.Counter(obs.WANLinkRefused, "ab"); got != 3 {
		t.Errorf("wan.link.refused.ab = %d, want 3", got)
	}
	if got, _ := snap.Counter(obs.WANLinkMsgs, "ab"); got != int64(delivered) {
		t.Errorf("refused sends counted as delivered: %d", got)
	}

	link.SetDown(false)
	snap = o.M().Snapshot()
	if got, _ := snap.Gauge(obs.WANLinkDown, "ab"); got != 0 {
		t.Errorf("wan.link.down.ab = %d after heal, want 0", got)
	}
}
