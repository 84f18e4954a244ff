package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun migrates the demo enclave in each transport and chain length
// the CLI offers and checks its verdicts: state verified after every hop,
// and the frozen source refusing to restart.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		hops int
	}{
		{"default", nil, 1},
		{"three machines", []string{"-machines", "3"}, 2},
		{"tcp loopback", []string{"-tcp"}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatalf("run %v: %v\n%s", c.args, err, out.String())
			}
			if got := strings.Count(out.String(), "4 counters intact, sealed data decrypts"); got != c.hops {
				t.Errorf("%d hops verified, want %d:\n%s", got, c.hops, out.String())
			}
			if !strings.Contains(out.String(), "source restart refused (frozen)") {
				t.Errorf("output lacks the frozen-source verdict:\n%s", out.String())
			}
		})
	}
}
