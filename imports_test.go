package repro_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// internalImports returns the repro/internal/... packages that the
// non-test files of internal/<pkg> import.
func internalImports(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files for internal/%s (%v)", pkg, err)
	}
	seen := map[string]bool{}
	var out []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if rest, ok := strings.CutPrefix(path, "repro/internal/"); ok && !seen[rest] {
				seen[rest] = true
				out = append(out, rest)
			}
		}
	}
	return out
}

// TestImportDAG pins the layering consolidation relies on: the protocol
// core never imports the management planes built on top of it, the leaf
// packages import nothing of ours at all, and obs imports only the wirec
// framing primitives.
func TestImportDAG(t *testing.T) {
	for _, imp := range internalImports(t, "core") {
		switch imp {
		case "cloud", "fleet", "federation", "chaos":
			t.Errorf("internal/core imports internal/%s (core must not import upward)", imp)
		}
	}
	for _, leaf := range []string{"sim", "wirec", "xcrypto", "stats"} {
		if imps := internalImports(t, leaf); len(imps) > 0 {
			t.Errorf("internal/%s is a leaf but imports internal/%v", leaf, imps)
		}
	}
	for _, imp := range internalImports(t, "obs") {
		if imp != "wirec" {
			t.Errorf("internal/obs imports internal/%s (it may import wirec and nothing else of ours)", imp)
		}
	}
}
