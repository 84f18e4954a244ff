package federation

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// appImage builds a deterministic test enclave image.
func appImage(name string) *sgx.Image {
	key := xcrypto.DeriveKey([]byte("federation-test"), "signer")
	return &sgx.Image{
		Name:            name,
		Version:         1,
		Code:            []byte("fed-test:" + name),
		SignerPublicKey: ed25519.PublicKey(key[:]),
	}
}

// twoSites builds the canonical federated world: DC "dc-a" and "dc-b",
// three machines each (a1..a3 / b1..b3), one f=1 replica group per
// site, connected with the given WAN config and escrow-partnered
// rack-a -> rack-b.
func twoSites(t *testing.T, cfg transport.WANConfig) (*Federation, *cloud.DataCenter, *cloud.DataCenter, *Mirror) {
	t.Helper()
	f := New("fed")
	dcs := make([]*cloud.DataCenter, 0, 2)
	for _, name := range []string{"dc-a", "dc-b"} {
		dc, err := cloud.NewDataCenter(name, sim.NewInstantLatency())
		if err != nil {
			t.Fatal(err)
		}
		prefix := name[len(name)-1:]
		ids := make([]string, 0, 3)
		for i := 1; i <= 3; i++ {
			id := fmt.Sprintf("%s%d", prefix, i)
			if _, err := dc.AddMachine(id); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if _, err := dc.NewReplicaGroup("rack-"+prefix, 1, ids...); err != nil {
			t.Fatal(err)
		}
		if err := f.Admit(dc); err != nil {
			t.Fatal(err)
		}
		dcs = append(dcs, dc)
	}
	if _, err := f.Connect("dc-a", "dc-b", cfg); err != nil {
		t.Fatal(err)
	}
	mirror, err := f.PartnerGroups("dc-a", "rack-a", "dc-b", "rack-b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, dcs[0], dcs[1], mirror
}

// launchLedger starts the canonical test app on a machine: one counter
// incremented to 7 and a sealed application blob.
func launchLedger(t *testing.T, m *cloud.Machine, name string) (*cloud.App, int, []byte) {
	t.Helper()
	app, err := m.LaunchApp(appImage(name), core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		t.Fatal(err)
	}
	ctr, _, err := app.Library.CreateCounter()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := app.Library.IncrementCounter(ctr); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := app.Library.SealMigratable([]byte("ledger"), []byte("balance=1337"))
	if err != nil {
		t.Fatal(err)
	}
	return app, ctr, sealed
}

// TestCrossDCRecovery is the both-sites-alive path: a machine dies in
// dc-a, its enclave is resurrected in dc-b from the mirrored escrow,
// counters and app state intact, and the zombie original fails closed.
func TestCrossDCRecovery(t *testing.T) {
	fed, dcA, _, mirror := twoSites(t, transport.WANConfig{})
	a1, _ := dcA.Machine("a1")
	app, ctr, sealed := launchLedger(t, a1, "ledger")
	storage := app.Storage
	if err := mirror.Flush(); err != nil {
		t.Fatalf("mirror flush: %v", err)
	}

	a1.Kill()
	recovered, err := fed.RecoverMachine("dc-a", "a1", "dc-b", "b1", false)
	if err != nil {
		t.Fatalf("cross-DC recovery: %v", err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d apps, want 1", len(recovered))
	}
	lib := recovered[0].Library
	if v, err := lib.ReadCounter(ctr); err != nil || v != 7 {
		t.Fatalf("recovered counter = %d, %v; want 7", v, err)
	}
	if pt, _, err := lib.UnsealMigratable(sealed); err != nil || string(pt) != "balance=1337" {
		t.Fatalf("recovered app state = %q, %v", pt, err)
	}
	if v, err := lib.IncrementCounter(ctr); err != nil || v != 8 {
		t.Fatalf("increment after recovery = %d, %v; want 8", v, err)
	}

	// The zombie original fails closed: its origin binding was consumed
	// by the arbitration step.
	if err := a1.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.LaunchApp(appImage("ledger"), storage, core.InitRestore); !errors.Is(err, core.ErrRecoveredAway) {
		t.Fatalf("zombie restore not refused with ErrRecoveredAway: %v", err)
	}

	// A second resurrection of the same instance is refused: the
	// management plane sees it alive in dc-b, and even past that guard
	// the shadow binding was consumed by the first win.
	b2, _ := dcBOf(t, fed).Machine("b2")
	if _, err := b2.RecoverApp(appImage("ledger"), mustEscrowID(t, lib)); !errors.Is(err, cloud.ErrInstanceAlive) {
		t.Fatalf("double resurrection: got %v, want ErrInstanceAlive", err)
	}
}

// dcBOf fetches dc-b from the federation.
func dcBOf(t *testing.T, fed *Federation) *cloud.DataCenter {
	t.Helper()
	dc, ok := fed.DataCenter("dc-b")
	if !ok {
		t.Fatal("dc-b not admitted")
	}
	return dc
}

// mustEscrowID reads a library's escrow instance ID.
// TestCrossDCRecoveryReportsConsumedBinding: when the origin binding
// was destroyed before the cross-DC arbitration reached it (a local
// recovery or a migration freeze won the instance first), the unforced
// recovery fails with core's own sentinel, so callers and the chaos
// history classify it as escrow-consumed.
func TestCrossDCRecoveryReportsConsumedBinding(t *testing.T) {
	fed, dcA, _, mirror := twoSites(t, transport.WANConfig{})
	a1, _ := dcA.Machine("a1")
	app, _, _ := launchLedger(t, a1, "consumed")
	if err := mirror.Flush(); err != nil {
		t.Fatalf("mirror flush: %v", err)
	}
	a1.Kill()

	owner := app.Image().Measure()
	info, ok := mirror.originBinding(instanceKey{owner: owner, id: mustEscrowID(t, app.Library)})
	if !ok {
		t.Fatal("mirror registered no origin binding")
	}
	gA, _ := dcA.ReplicaGroup("rack-a")
	if _, err := gA.AdminDestroy(owner, info.bind); err != nil {
		t.Fatalf("destroy origin binding: %v", err)
	}

	_, err := fed.RecoverMachine("dc-a", "a1", "dc-b", "b1", false)
	if !errors.Is(err, core.ErrEscrowConsumed) {
		t.Fatalf("recovery over a consumed origin binding: err = %v, want core.ErrEscrowConsumed", err)
	}
}

func mustEscrowID(t *testing.T, lib *core.Library) [16]byte {
	t.Helper()
	id, ok := lib.EscrowID()
	if !ok {
		t.Fatal("library has no escrow ID")
	}
	return id
}

// TestSiteLossRecovery is the acceptance-criteria e2e: the whole origin
// rack dies (quorum lost), a FORCED recovery resurrects the enclave in
// the peer DC with counters and app state intact, and when the origin
// site comes back, Reconcile retires the queued revocation so the
// zombie original fails closed with ErrRecoveredAway.
func TestSiteLossRecovery(t *testing.T) {
	fed, dcA, dcB, mirror := twoSites(t, transport.WANConfig{})
	a1, _ := dcA.Machine("a1")
	app, ctr, sealed := launchLedger(t, a1, "ledger")
	storage := app.Storage
	if err := mirror.Flush(); err != nil {
		t.Fatalf("mirror flush: %v", err)
	}

	// Site loss: every machine of the origin rack dies at once.
	for _, id := range []string{"a1", "a2", "a3"} {
		m, _ := dcA.Machine(id)
		m.Kill()
	}

	// Unforced recovery refuses: the origin binding cannot be arbitrated.
	if _, err := fed.RecoverMachine("dc-a", "a1", "dc-b", "b1", false); !errors.Is(err, ErrOriginUnreachable) {
		t.Fatalf("unforced site-loss recovery: got %v, want ErrOriginUnreachable", err)
	}

	// Forced recovery: the operator declares the site lost.
	recovered, err := fed.RecoverMachine("dc-a", "a1", "dc-b", "b1", true)
	if err != nil {
		t.Fatalf("forced recovery: %v", err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d apps, want 1", len(recovered))
	}
	lib := recovered[0].Library
	if v, err := lib.ReadCounter(ctr); err != nil || v != 7 {
		t.Fatalf("recovered counter = %d, %v; want 7", v, err)
	}
	if pt, _, err := lib.UnsealMigratable(sealed); err != nil || string(pt) != "balance=1337" {
		t.Fatalf("recovered app state = %q, %v", pt, err)
	}
	if _, err := lib.IncrementCounter(ctr); err != nil {
		t.Fatalf("increment after forced recovery: %v", err)
	}
	if n := fed.PendingRevocations(); n != 1 {
		t.Fatalf("pending revocations = %d, want 1", n)
	}

	// The origin site heals: machines restart (reseeds fail until
	// enough agents are back — a full-rack cold restart), then the rack
	// re-seeds itself from the union of its durable replica states.
	gA, _ := dcA.ReplicaGroup("rack-a")
	for _, id := range []string{"a1", "a2", "a3"} {
		m, _ := dcA.Machine(id)
		_ = m.Restart() // reseed may fail while peers are still down
	}
	for _, id := range []string{"a1", "a2", "a3"} {
		if err := gA.Reseed(id); err != nil {
			t.Fatalf("cold-restart reseed %s: %v", id, err)
		}
	}

	// Reconcile destroys the origin binding; the zombie then fails
	// closed exactly like a local recovery's zombie.
	if err := fed.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if n := fed.PendingRevocations(); n != 0 {
		t.Fatalf("pending revocations after reconcile = %d, want 0", n)
	}
	if _, err := a1.LaunchApp(appImage("ledger"), storage, core.InitRestore); !errors.Is(err, core.ErrRecoveredAway) {
		t.Fatalf("zombie restore not refused with ErrRecoveredAway: %v", err)
	}

	// The recovered instance in dc-b keeps running: one winner, ever.
	if v, err := lib.ReadCounter(ctr); err != nil || v != 8 {
		t.Fatalf("survivor counter = %d, %v; want 8", v, err)
	}
	_ = dcB
}

// TestDecommissionPropagatesToPartner: an operator decommission at the
// origin rack reaches the partner site through the mirror — the shadow
// counters are reclaimed and the mirrored record tombstoned, so the
// instance cannot be resurrected in either data center.
func TestDecommissionPropagatesToPartner(t *testing.T) {
	fed, dcA, dcB, mirror := twoSites(t, transport.WANConfig{})
	a1, _ := dcA.Machine("a1")
	app, _, _ := launchLedger(t, a1, "doomed")
	escrowID, ok := app.Library.EscrowID()
	if !ok {
		t.Fatal("no escrow ID")
	}
	if err := mirror.Flush(); err != nil {
		t.Fatal(err)
	}
	gB, _ := dcB.ReplicaGroup("rack-b")
	if n := gB.TotalLive(); n != 2 {
		t.Fatalf("partner shadows before decommission = %d, want 2", n)
	}

	app.Terminate()
	if err := dcA.DecommissionApp("rack-a", appImage("doomed"), escrowID); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	if err := mirror.Flush(); err != nil {
		t.Fatalf("mirror flush after decommission: %v", err)
	}
	if n := gB.TotalLive(); n != 0 {
		t.Fatalf("partner shadows after decommission = %d, want 0", n)
	}
	b1, _ := dcB.Machine("b1")
	if _, err := b1.RecoverApp(appImage("doomed"), escrowID); err == nil {
		t.Fatal("decommissioned instance resurrected at the partner")
	}
	_ = fed
}

// TestFederatedAttestationMatrix is the rejection matrix: cross-DC ME
// handshakes succeed exactly when a valid, unrevoked, correctly-scoped
// grant is installed.
func TestFederatedAttestationMatrix(t *testing.T) {
	newDC := func(name string) *cloud.DataCenter {
		dc, err := cloud.NewDataCenter(name, sim.NewInstantLatency())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.AddMachine(name + "-m1"); err != nil {
			t.Fatal(err)
		}
		return dc
	}
	transcript := []byte("handshake transcript")

	t.Run("unfederated peer", func(t *testing.T) {
		a, b := newDC("ua"), newDC("ub")
		ma, _ := a.Machine("ua-m1")
		credB, err := b.Provider.ProvisionME("ub-m1")
		if err != nil {
			t.Fatal(err)
		}
		credA, err := a.Provider.ProvisionME("probe")
		if err != nil {
			t.Fatal(err)
		}
		sig := credB.Sign(transcript)
		if err := credA.VerifyPeer(credB.Certificate(), transcript, sig); !errors.Is(err, attest.ErrNotFederated) {
			t.Fatalf("unfederated peer: got %v, want ErrNotFederated", err)
		}
		_ = ma
	})

	t.Run("valid grant accepts, revocation cuts off", func(t *testing.T) {
		a, b := newDC("va"), newDC("vb")
		grant, err := a.Provider.GrantFederation(b.Provider.Name(), b.Provider.Authority().PublicKey(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		framed, err := EncodeGrant(grant)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeGrant(framed)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Provider.AcceptGrant(decoded, b.Provider.Authority().IsRevoked); err != nil {
			t.Fatal(err)
		}
		credA, _ := a.Provider.ProvisionME("probe")
		credB, _ := b.Provider.ProvisionME("vb-m1")
		sig := credB.Sign(transcript)
		if err := credA.VerifyPeer(credB.Certificate(), transcript, sig); err != nil {
			t.Fatalf("federated peer rejected: %v", err)
		}
		// Revocation is immediate and per peer.
		a.Provider.RevokeFederation(b.Provider.Name())
		if err := credA.VerifyPeer(credB.Certificate(), transcript, sig); !errors.Is(err, attest.ErrNotFederated) {
			t.Fatalf("revoked federation still accepted: %v", err)
		}
	})

	t.Run("peer machine revocation honored", func(t *testing.T) {
		// The peer operator revoking ONE of its machines must cut that
		// machine off across the federation too — the grant carries the
		// peer authority's online revocation feed.
		a, b := newDC("ra"), newDC("rb")
		grant, err := a.Provider.GrantFederation(b.Provider.Name(), b.Provider.Authority().PublicKey(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Provider.AcceptGrant(grant, b.Provider.Authority().IsRevoked); err != nil {
			t.Fatal(err)
		}
		credA, _ := a.Provider.ProvisionME("probe")
		credB, _ := b.Provider.ProvisionME("rb-m1")
		sig := credB.Sign(transcript)
		if err := credA.VerifyPeer(credB.Certificate(), transcript, sig); err != nil {
			t.Fatalf("federated peer rejected: %v", err)
		}
		b.Provider.Revoke("rb-m1")
		if err := credA.VerifyPeer(credB.Certificate(), transcript, sig); !errors.Is(err, attest.ErrProviderAuth) {
			t.Fatalf("peer-revoked ME still accepted across the federation: %v", err)
		}
	})

	t.Run("expired grant", func(t *testing.T) {
		a, b := newDC("ea"), newDC("eb")
		grant, err := a.Provider.GrantFederation(b.Provider.Name(), b.Provider.Authority().PublicKey(), -time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Provider.AcceptGrant(grant, nil); !errors.Is(err, attest.ErrBadGrant) {
			t.Fatalf("expired grant installed: %v", err)
		}
	})

	t.Run("wrong-scope grant", func(t *testing.T) {
		a, b := newDC("wa"), newDC("wb")
		// A certificate with the right key but the ME role instead of the
		// federation scope must not work as a grant.
		wrong, err := a.Provider.Authority().Issue(
			b.Provider.Name(), "migration-enclave", b.Provider.Authority().PublicKey(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Provider.AcceptGrant(wrong, nil); !errors.Is(err, attest.ErrBadGrant) {
			t.Fatalf("wrong-scope grant installed: %v", err)
		}
	})

	t.Run("forged grant", func(t *testing.T) {
		a, b := newDC("fa"), newDC("fb")
		mallory, err := attest.NewProvider("mallory")
		if err != nil {
			t.Fatal(err)
		}
		forged, err := mallory.GrantFederation(b.Provider.Name(), b.Provider.Authority().PublicKey(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Provider.AcceptGrant(forged, nil); !errors.Is(err, attest.ErrBadGrant) {
			t.Fatalf("forged grant installed: %v", err)
		}
	})
}

// TestCrossDCMigration runs a real ME-to-ME migration across the WAN
// link: the full Fig. 2 protocol between two provider domains that
// trust each other only through the scoped grants.
func TestCrossDCMigration(t *testing.T) {
	fed, dcA, dcB, _ := twoSites(t, transport.WANConfig{RTT: time.Millisecond})
	a1, _ := dcA.Machine("a1")
	b1, _ := dcB.Machine("b1")
	app, ctr, _ := launchLedger(t, a1, "roamer")

	if err := app.Library.StartMigration(b1.MEAddress()); err != nil {
		t.Fatalf("cross-DC StartMigration: %v", err)
	}
	moved, err := b1.LaunchApp(appImage("roamer"), core.NewMemoryStorage(), core.InitMigrated)
	if err != nil {
		t.Fatalf("cross-DC restore: %v", err)
	}
	if v, err := moved.Library.ReadCounter(ctr); err != nil || v != 7 {
		t.Fatalf("migrated counter = %d, %v; want 7", v, err)
	}
	if done, err := app.Library.MigrationComplete(); err != nil || !done {
		t.Fatalf("migration not confirmed done: %v %v", done, err)
	}
	if !app.Library.Frozen() {
		t.Fatal("source library not frozen after cross-DC migration")
	}
	link, _ := fed.Link("dc-a", "dc-b")
	if msgs, bytes := link.Stats(); msgs == 0 || bytes == 0 {
		t.Fatalf("no traffic crossed the WAN link (msgs=%d bytes=%d)", msgs, bytes)
	}
	if hops := link.Latency().Counts()[sim.OpWANHop]; hops == 0 {
		t.Fatal("no OpWANHop charged for cross-DC migration")
	}
}

// TestDisconnectStopsMigration: after Disconnect, cross-DC transfers
// fail — the grants are revoked and the link is down.
func TestDisconnectStopsMigration(t *testing.T) {
	fed, dcA, dcB, _ := twoSites(t, transport.WANConfig{})
	a1, _ := dcA.Machine("a1")
	b1, _ := dcB.Machine("b1")
	app, _, _ := launchLedger(t, a1, "stuck")

	if err := fed.Disconnect("dc-a", "dc-b"); err != nil {
		t.Fatal(err)
	}
	err := app.Library.StartMigration(b1.MEAddress())
	if err == nil {
		t.Fatal("migration across disconnected federation succeeded")
	}
	if !errors.Is(err, core.ErrMigrationPending) {
		t.Fatalf("expected data parked at source ME (ErrMigrationPending), got %v", err)
	}
}
