// Command isolint enforces the fleet-mode isolation audit: no new
// package-level mutable state under internal/. Concurrent simulations
// in one process (internal/fleet) are only byte-identical to standalone
// runs because every run's state hangs off its own Coordinator — a
// package-level var is shared by all of them and would either race or,
// worse, deterministically couple runs. The lint makes that audit a CI
// gate instead of a code-review hope.
//
// Top-level `var` declarations are flagged; `const` and type/func
// declarations are not. The few pre-existing vars that are provably
// safe are allowlisted with their justification; an allowlist entry
// that no longer matches anything is itself an error, so the list
// cannot rot.
//
// Usage:
//
//	go run ./cmd/isolint [dir]   # dir defaults to ./internal
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowed maps "package.var" to the reason it is safe to share across
// concurrent runs. Nothing mutable belongs here — only vars that are
// written once before main starts and read-only forever after.
var allowed = map[string]string{
	"scenario.libraryFS":                    "embed.FS of the spec library, read-only by construction",
	"memsim.kindNames":                      "region-kind name table, initialised once and only read",
	"coordinator.ErrRestartFault":           "errors.New sentinel, written once at init and only compared",
	"coordinator.ErrNoVerifiableGeneration": "errors.New sentinel, written once at init and only compared",
	"fleet.ErrRestartsExhausted":            "errors.New sentinel, written once at init and only compared",
	"storage.profiles":                      "built-in profile table, initialised once and only read (Profile deep-copies)",
	"storage.defaultRatios":                 "compressibility-default table, initialised once and only read",
}

// finding is one package-level var outside the allowlist.
type finding struct {
	pos  token.Position
	name string // "package.var"
}

// scan walks every non-test Go file under root and returns the
// package-level var declarations outside the allowlist, plus the set of
// allowlist keys that matched (so stale entries can be reported).
func scan(root string) (findings []finding, matched map[string]bool, err error) {
	fset := token.NewFileSet()
	matched = make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, ident := range vs.Names {
					if ident.Name == "_" {
						continue
					}
					key := file.Name.Name + "." + ident.Name
					if _, ok := allowed[key]; ok {
						matched[key] = true
						continue
					}
					findings = append(findings, finding{pos: fset.Position(ident.Pos()), name: key})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return findings, matched, nil
}

// report renders scan results as diagnostics and reports whether the
// tree is clean.
func report(w *os.File, findings []finding, matched map[string]bool) bool {
	clean := true
	for _, f := range findings {
		clean = false
		fmt.Fprintf(w, "isolint: %s: package-level var %s: "+
			"per-run state must hang off the Coordinator/Engine so concurrent fleet runs stay isolated "+
			"(if this is write-once read-only, allowlist it in cmd/isolint with a justification)\n",
			f.pos, f.name)
	}
	var stale []string
	for key := range allowed {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		clean = false
		fmt.Fprintf(w, "isolint: allowlist entry %q matches nothing — remove it from cmd/isolint\n", key)
	}
	return clean
}

func main() {
	root := "./internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, matched, err := scan(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "isolint: %v\n", err)
		os.Exit(2)
	}
	if !report(os.Stderr, findings, matched) {
		os.Exit(1)
	}
	fmt.Printf("isolint: %s clean — no package-level mutable state outside the allowlist\n", root)
}
