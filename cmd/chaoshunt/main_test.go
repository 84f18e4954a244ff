package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// TestChaoshuntSmoke drives both entry points: a short clean hunt, and
// -flight summarizing (and, with -json, re-emitting) a bundle file.
func TestChaoshuntSmoke(t *testing.T) {
	o := obs.NewObserver()
	sp, tc := o.StartSpan(obs.SpanFleetMigrate, obs.TraceContext{})
	sp.End()
	o.Event(obs.EventZombieRefused, "lib:abc", "probe refused", tc)
	b := flight.Capture(o, flight.Trigger{Kind: flight.TriggerChaosViolation, Actor: "chaos", Detail: "smoke"},
		time.Unix(5000, 0), flight.CaptureOpts{Journal: []byte("journal"), Note: "smoke fixture"})
	bundle := filepath.Join(t.TempDir(), "flight-seed7.json")
	if err := os.WriteFile(bundle, b.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		args []string
		want []string
		// check, when set, inspects the whole output.
		check func(t *testing.T, out []byte)
	}{
		{name: "hunt", args: []string{"-seeds", "1", "-steps", "5"},
			want: []string{"1 schedules, 0 invariant violations", "invariant coverage"}},
		{name: "flight summary", args: []string{"-flight", bundle},
			want: []string{"trigger:  chaos-violation (actor \"chaos\") smoke", "1 spans", "1 events", "7 journal bytes", "note:     smoke fixture"}},
		{name: "flight json", args: []string{"-flight", bundle, "-json"},
			check: func(t *testing.T, out []byte) {
				got, err := flight.DecodeBundle(out)
				if err != nil {
					t.Fatalf("-json output does not decode as a bundle: %v", err)
				}
				if got.Trigger != b.Trigger || len(got.Spans) != 1 || len(got.Events) != 1 || string(got.Journal) != "journal" {
					t.Errorf("-json output differs from the bundle: %+v", got)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatalf("run %v: %v\n%s", c.args, err, out.String())
			}
			for _, w := range c.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, out.String())
				}
			}
			if c.check != nil {
				c.check(t, out.Bytes())
			}
		})
	}
}
