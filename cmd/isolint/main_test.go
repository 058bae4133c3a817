package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materialises a map of path -> source under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, src := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestScanFlagsPackageLevelVars pins what the lint is for: a top-level
// var is a finding, consts/types/funcs and locals are not, and test
// files are skipped.
func TestScanFlagsPackageLevelVars(t *testing.T) {
	root := writeTree(t, map[string]string{
		"shardy/state.go": `package shardy

const fine = 1

var counter int

var a, b = 1, 2

func ok() { var local int; _ = local }
`,
		"shardy/state_test.go": `package shardy

var testOnly = map[string]bool{}
`,
	})
	findings, _, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.name)
	}
	want := []string{"shardy.counter", "shardy.a", "shardy.b"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("scan found %v, want %v", names, want)
	}
}

// TestScanHonoursAllowlist checks both directions: an allowlisted var
// is not a finding, and an allowlist entry that matches nothing is
// reported stale by report().
func TestScanHonoursAllowlist(t *testing.T) {
	root := writeTree(t, map[string]string{
		"memsim/kind.go": `package memsim

var kindNames = 1
`,
	})
	findings, matched, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("allowlisted var flagged: %v", findings)
	}
	if !matched["memsim.kindNames"] {
		t.Error("allowlist match not recorded")
	}
	// Only one allowlist entry matched, so report must call the tree
	// dirty on staleness grounds.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if clean := report(devnull, findings, matched); clean {
		t.Error("report ignored stale allowlist entries")
	}
}

// TestRepoInternalIsClean is the live gate: the repository's own
// internal/ tree must scan clean, with every allowlist entry in use.
func TestRepoInternalIsClean(t *testing.T) {
	findings, matched, err := scan(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("package-level mutable state: %s at %s", f.name, f.pos)
	}
	if len(matched) != len(allowed) {
		for key := range allowed {
			if !matched[key] {
				t.Errorf("stale allowlist entry %q", key)
			}
		}
	}
}
