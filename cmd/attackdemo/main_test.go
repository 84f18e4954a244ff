package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunPrintsMatrix runs both §III attacks against both mechanisms and
// checks the four verdicts: each attack succeeds against the baseline and
// is prevented by the Migration Library.
func TestRunPrintsMatrix(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, row := range []string{"fork (III-B)", "roll-back (III-C)"} {
		want := fmt.Sprintf("  %-22s %-28s %-28s\n", row, "ATTACK SUCCEEDS", "attack prevented")
		if !strings.Contains(out.String(), want) {
			t.Errorf("matrix lacks row %q:\n%s", want, out.String())
		}
	}
}
