package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transport"
)

// --- R2: controlled migration ------------------------------------------

// An attacker running a Migration Enclave provisioned by a DIFFERENT
// provider must not receive migrations, even with valid SGX attestation.
func TestMigrationToForeignProviderRejected(t *testing.T) {
	lat := sim.NewInstantLatency()
	ours, err := cloud.NewDataCenter("dc-ours", lat)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ours.AddMachine("machine-src")
	if err != nil {
		t.Fatal(err)
	}

	// The attacker's machine shares the network and EVEN the same EPID
	// group and IAS (so SGX attestation succeeds), but its ME credential
	// comes from a different provider.
	theirs, err := cloud.NewDataCenterWithNetwork("dc-theirs", lat, ours.Network)
	if err != nil {
		t.Fatal(err)
	}
	theirs.Issuer = ours.Issuer
	theirs.IAS = ours.IAS
	foreign, err := theirs.AddMachine("machine-foreign")
	if err != nil {
		t.Fatal(err)
	}

	img := testAppImage(t, "app")
	app, _ := src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	_, _, _ = app.Library.CreateCounter()

	err = app.Library.StartMigration(foreign.MEAddress())
	if !errors.Is(err, core.ErrMigrationPending) {
		t.Fatalf("migration to foreign provider: got %v, want pending (rejected)", err)
	}
	if !strings.Contains(err.Error(), "authenticate destination") &&
		!strings.Contains(err.Error(), "provider") {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
	// Nothing was stored on the attacker machine.
	if foreign.ME.PendingIncoming() != 0 {
		t.Fatal("foreign ME received migration data")
	}
}

// An adversary who redirects the migration traffic to their own machine
// gains nothing: the protocol authenticates the endpoint, not the address.
func TestRedirectedMigrationRejected(t *testing.T) {
	e := newEnv(t)
	// Attacker-controlled endpoint that records whatever it receives.
	var received [][]byte
	if err := e.dc.Network.Register("attacker", func(msg transport.Message) ([]byte, error) {
		received = append(received, msg.Payload)
		return []byte("ok"), nil
	}); err != nil {
		t.Fatal(err)
	}
	e.dc.Network.SetAdversary(transport.RedirectTo("attacker"))
	defer e.dc.Network.SetAdversary(nil)

	img := testAppImage(t, "app")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	_, _, _ = app.Library.CreateCounter()

	err := app.Library.StartMigration(e.dst.MEAddress())
	if !errors.Is(err, core.ErrMigrationPending) {
		t.Fatalf("redirected migration: got %v", err)
	}
	// The attacker saw only the offer (quote + public DH key) — never the
	// migration data, which is sent only after mutual attestation.
	for _, p := range received {
		if strings.Contains(string(p), "msk") || strings.Contains(string(p), "counterValues") {
			t.Fatal("migration data leaked to attacker endpoint")
		}
	}
}

// A man-in-the-middle who tampers with protocol messages cannot make the
// protocol complete; the failure is detected cryptographically.
func TestTamperedProtocolMessagesRejected(t *testing.T) {
	for _, kind := range []string{"migrate-offer", "migrate-data"} {
		t.Run(kind, func(t *testing.T) {
			e := newEnv(t)
			e.dc.Network.SetAdversary(transport.FlipPayloadBit(kind))
			img := testAppImage(t, "app")
			app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
			_, _, _ = app.Library.CreateCounter()
			if err := app.Library.StartMigration(e.dst.MEAddress()); !errors.Is(err, core.ErrMigrationPending) {
				t.Fatalf("tampered %s accepted: %v", kind, err)
			}
			// No data may have landed at the destination.
			if e.dst.ME.PendingIncoming() != 0 {
				t.Fatal("tampered migration stored at destination")
			}
		})
	}
}

// Dropped DONE confirmations must not lose data: the source keeps its
// copy (safe failure), and the destination still restores correctly.
func TestDroppedDoneIsSafe(t *testing.T) {
	e := newEnv(t)
	e.dc.Network.SetAdversary(transport.DropKind("migrate-done"))
	img := testAppImage(t, "app")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	id, _, _ := app.Library.CreateCounter()
	if _, err := app.Library.IncrementCounter(id); err != nil {
		t.Fatal(err)
	}
	if err := app.Library.StartMigration(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	dstApp, err := e.dst.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated)
	if err != nil {
		t.Fatalf("restore with dropped DONE: %v", err)
	}
	if v, _ := dstApp.Library.ReadCounter(id); v != 1 {
		t.Fatalf("counter = %d", v)
	}
	// Source never learns of completion — data retained, not deleted.
	if e.src.ME.PendingOutgoing() != 1 {
		t.Fatal("source deleted data without DONE")
	}
	// The destination kept the confirmation queued; once the network lets
	// it through, the source releases its copy.
	if n := e.dst.ME.QueuedDones(e.src.MEAddress()); n != 1 {
		t.Fatalf("destination queues %d confirmations after the dropped DONE, want 1", n)
	}
	e.dc.Network.SetAdversary(nil)
	if err := e.dst.ME.FlushDones(e.src.MEAddress()); err != nil {
		t.Fatalf("re-flush of the dropped DONE: %v", err)
	}
	if e.src.ME.PendingOutgoing() != 0 {
		t.Fatal("source kept its copy after the DONE finally arrived")
	}
}

// A forged DONE must be rejected: a well-formed one naming a token the
// source never issued, and plain garbage, alike.
func TestForgedDoneRejected(t *testing.T) {
	e := newEnv(t)
	adv := &transport.Interceptor{}
	e.dc.Network.SetAdversary(adv)
	// A completed migration shows the adversary what a genuine DONE is.
	first, _ := e.src.LaunchApp(testAppImage(t, "first"), core.NewMemoryStorage(), core.InitNew)
	migrateApp(t, e, first, e.dst)
	var genuine []byte
	for _, m := range adv.Captured() {
		if m.Kind == "migrate-done" {
			genuine = m.Payload
		}
	}
	if genuine == nil {
		t.Fatal("no migrate-done captured")
	}

	img := testAppImage(t, "app")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	_, _, _ = app.Library.CreateCounter()
	if err := app.Library.StartMigration(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	// Same shape, one bit of the (trailing) token changed.
	guessed := append([]byte(nil), genuine...)
	guessed[len(guessed)-1] ^= 1
	for name, forged := range map[string][]byte{
		"unknown token": guessed,
		"garbage":       []byte(`{"token":"YWJjZGVmZ2hpamtsbW5vcA=="}`),
	} {
		if _, err := e.dc.Network.Send("attacker", e.src.MEAddress(), "migrate-done", forged); err == nil {
			t.Fatalf("forged DONE (%s) accepted", name)
		}
	}
	if e.src.ME.PendingOutgoing() != 1 {
		t.Fatal("forged DONE deleted source data")
	}
}

// Replaying a captured migrate-data message must not re-install the
// migration at the destination (a stream's reassembly state is dropped
// once every member is acked, and the fetched envelope is tombstoned).
func TestReplayedDataMessageRejected(t *testing.T) {
	e := newEnv(t)
	adv := &transport.Interceptor{}
	e.dc.Network.SetAdversary(adv)
	img := testAppImage(t, "app")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	_, _, _ = app.Library.CreateCounter()
	if err := app.Library.StartMigration(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	// Legitimate delivery consumes the stored data.
	if _, err := e.dst.LaunchApp(img, core.NewMemoryStorage(), core.InitMigrated); err != nil {
		t.Fatal(err)
	}
	// Replay the captured migrate-data message.
	var replayed bool
	for _, m := range adv.Captured() {
		if m.Kind == "migrate-data" {
			replayed = true
			if _, err := e.dc.Network.Send(m.From, m.To, m.Kind, m.Payload); err == nil {
				t.Fatal("replayed migrate-data accepted")
			}
		}
	}
	if !replayed {
		t.Fatal("no migrate-data captured")
	}
	if e.dst.ME.PendingIncoming() != 0 {
		t.Fatal("replay re-installed migration data")
	}
}

// The network never carries the MSK or counter values in the clear.
func TestMigrationDataConfidentiality(t *testing.T) {
	e := newEnv(t)
	adv := &transport.Interceptor{}
	e.dc.Network.SetAdversary(adv)
	img := testAppImage(t, "app")
	app, _ := e.src.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	id, _, _ := app.Library.CreateCounter()
	for i := 0; i < 7; i++ {
		if _, err := app.Library.IncrementCounter(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Library.StartMigration(e.dst.MEAddress()); err != nil {
		t.Fatal(err)
	}
	for _, m := range adv.Captured() {
		body := string(m.Payload)
		// The envelope JSON field names must never appear in cleartext on
		// the wire; they exist only inside the channel-sealed payload.
		if strings.Contains(body, `"msk"`) || strings.Contains(body, `"counterValues"`) {
			t.Fatalf("migration data visible on the wire in %s", m.Kind)
		}
	}
}

// --- Local channel misuse ------------------------------------------------

func TestLocalCallUnknownSession(t *testing.T) {
	e := newEnv(t)
	if _, err := e.src.ME.LocalCall("no-such-session", []byte("junk")); !errors.Is(err, core.ErrUnknownSession) {
		t.Fatalf("got %v", err)
	}
}

func TestLocalCallGarbageWire(t *testing.T) {
	e := newEnv(t)
	app, err := e.src.HW.Load(testAppImage(t, "app"))
	if err != nil {
		t.Fatal(err)
	}
	_, sessionID, err := e.src.ME.ConnectLocal(app)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes not sealed by the app's channel must be rejected.
	if _, err := e.src.ME.LocalCall(sessionID, []byte("garbage-not-sealed")); err == nil {
		t.Fatal("unauthenticated local request accepted")
	}
}
