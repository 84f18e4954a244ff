package fleet

import (
	"crypto/ed25519"
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/xcrypto"
)

func groupTestImage(name string) *sgx.Image {
	key := xcrypto.DeriveKey([]byte("group-test"), "signer")
	return &sgx.Image{Name: name, Version: 1, Code: []byte(name), SignerPublicKey: ed25519.PublicKey(key[:])}
}

// TestGroupAssignments checks the grouper directly: grouping by (source,
// destination) in plan order, the stream-width cap, recoveries kept alone,
// token-resumed members and same-identity twins grouped like any other.
func TestGroupAssignments(t *testing.T) {
	dc, err := cloud.NewDataCenter("dc", sim.NewInstantLatency())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := dc.AddMachine("A")
	b, _ := dc.AddMachine("B")
	c, _ := dc.AddMachine("C")

	launch := func(m *cloud.Machine, name string) *cloud.App {
		app, err := m.LaunchApp(groupTestImage(name), core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
		return app
	}

	var as []Assignment
	// Four distinct apps A→B: should pack into groups of ≤3. One of them
	// already froze in an earlier plan (its library holds a done-token).
	for i := 0; i < 4; i++ {
		as = append(as, Assignment{App: launch(a, fmt.Sprintf("ab-%d", i)), Source: a, Dest: b})
	}
	parked := as[1].App
	if err := parked.Library.StartMigrationHeld(b.MEAddress()); err != nil {
		t.Fatal(err)
	}
	// Two apps A→C: separate group key.
	for i := 0; i < 2; i++ {
		as = append(as, Assignment{App: launch(a, fmt.Sprintf("ac-%d", i)), Source: a, Dest: c})
	}
	// A recovery must stay a singleton.
	as = append(as, Assignment{App: launch(a, "rec"), Source: a, Dest: b, Recover: true})
	// Two same-identity apps A→B share the open stream: it has room for both.
	twin1 := launch(a, "twin")
	twin2 := launch(a, "twin")
	as = append(as, Assignment{App: twin1, Source: a, Dest: b}, Assignment{App: twin2, Source: a, Dest: b})

	groups := groupAssignments(as, 3)

	total := 0
	groupOf := make(map[*cloud.App]int)
	for gi, g := range groups {
		total += len(g)
		if len(g) > 3 {
			t.Fatalf("group of %d exceeds batch size 3", len(g))
		}
		for _, m := range g {
			if m.Recover && len(g) != 1 {
				t.Fatal("recovery grouped with migrations")
			}
			groupOf[m.App] = gi
			if m.App == parked && len(g) != 3 {
				t.Fatalf("token-resumed member in a group of %d, want it packed with its neighbours (3)", len(g))
			}
			if m.Source != g[0].Source || m.Dest != g[0].Dest {
				t.Fatal("group mixes (source, dest) pairs")
			}
		}
	}
	if total != len(as) {
		t.Fatalf("grouper lost members: %d in, %d out", len(as), total)
	}
	if groupOf[twin1] != groupOf[twin2] {
		t.Fatal("same-identity twins were split across streams")
	}
	// A→B: 4 + 2 members at width 3 is two streams; A→C one; the recovery.
	if len(groups) != 4 {
		t.Fatalf("%d groups, want 4", len(groups))
	}

	// BatchSize 1 degenerates to all singletons.
	for _, g := range groupAssignments(as, 1) {
		if len(g) != 1 {
			t.Fatalf("batchSize 1 produced group of %d", len(g))
		}
	}
}
