package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestBuildConfigRejectsSweepFlags pins the other direction: a sweep
// dimension flag without -sweep is rejected naming the flag instead of
// being silently ignored.
func TestBuildConfigRejectsSweepFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep-specs", "default,overlap"},
		{"-sweep-ranks", "4,8"},
		{"-sweep-ckpt", "1ms"},
		{"-sweep-virtid", "mutex"},
		{"-sweep-incremental", "true"},
		{"-sweep-workers", "4"},
	} {
		flagName := args[0]
		t.Run(flagName, func(t *testing.T) {
			_, _, _, err := buildArgs(args...)
			if err == nil {
				t.Fatalf("build accepted %s without -sweep", flagName)
			}
			if !strings.Contains(err.Error(), flagName) {
				t.Errorf("error %q does not name %s", err, flagName)
			}
		})
	}
}

// TestBuildSweepDefaultsToSingleRunFlags checks that `-sweep` alone is
// a 1-cell grid of exactly the single-run scenario: every dimension
// holds its single-run flag's value and the base is the single run's
// Job.
func TestBuildSweepDefaultsToSingleRunFlags(t *testing.T) {
	_, single := mustJob(t)
	_, _, sw, err := buildArgs("-sweep")
	if err != nil {
		t.Fatalf("build -sweep: %v", err)
	}
	if sw == nil {
		t.Fatal("build -sweep returned no grid")
	}
	if len(sw.Specs) != 1 || sw.Specs[0] != "default" {
		t.Errorf("Specs = %v, want [default]", sw.Specs)
	}
	if len(sw.Ranks) != 1 || sw.Ranks[0] != single.Ranks {
		t.Errorf("Ranks = %v, want [%d]", sw.Ranks, single.Ranks)
	}
	if len(sw.CkptAt) != 1 || sw.CkptAt[0] != time.Duration(single.CkptAt) {
		t.Errorf("CkptAt = %v, want [%v]", sw.CkptAt, single.CkptAt)
	}
	if len(sw.Virtids) != 1 || sw.Virtids[0] != "sharded" {
		t.Errorf("Virtids = %v, want [sharded]", sw.Virtids)
	}
	if len(sw.Incremental) != 1 || sw.Incremental[0] {
		t.Errorf("Incremental = %v, want [false]", sw.Incremental)
	}
	// The base is the single run's Job minus the spec, which each cell
	// sets from the grid.
	single.Spec = nil
	if !reflect.DeepEqual(sw.Base, single) {
		t.Errorf("Base = %+v, want the single run's Job %+v", sw.Base, single)
	}
}

// sweepDoc mirrors the JSON aggregate's shape for decoding in tests.
type sweepDoc struct {
	Cells []struct {
		Spec        string `json:"spec"`
		Ranks       int    `json:"ranks"`
		CkptAt      string `json:"ckpt_at"`
		Virtid      string `json:"virtid"`
		Incremental bool   `json:"incremental"`
		ReportFNV64 string `json:"report_fnv64"`
		ReportBytes int    `json:"report_bytes"`
	} `json:"cells"`
	Totals struct {
		Runs         int     `json:"runs"`
		RunsPerSec   float64 `json:"runs_per_sec"`
		SpecCompiles uint64  `json:"spec_compiles"`
	} `json:"totals"`
}

// sweepArgs builds and runs the -sweep args describe, returning the JSON
// aggregate it printed.
func sweepArgs(t *testing.T, args ...string) *bytes.Buffer {
	t.Helper()
	eng, _, sw, err := buildArgs(append([]string{"-sweep"}, args...)...)
	if err != nil {
		t.Fatalf("build -sweep %v: %v", args, err)
	}
	var out bytes.Buffer
	if err := runSweep(eng, *sw, &out); err != nil {
		t.Fatalf("runSweep %v: %v", args, err)
	}
	return &out
}

// reportHash is the FNV-64a a sweep cell records for a report.
func reportHash(report string) string {
	h := fnv.New64a()
	h.Write([]byte(report))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSweepCellsMatchStandaloneRuns is the CLI-level byte-identity
// statement for fleet mode: every cell hash in the -sweep aggregate
// must equal the FNV-64a of the bytes the equivalent standalone manasim
// invocation prints.
func TestSweepCellsMatchStandaloneRuns(t *testing.T) {
	out := sweepArgs(t, "-steps", "10", "-sweep-specs", "default,overlap", "-sweep-ranks", "4,8",
		"-sweep-ckpt", "1ms", "-sweep-virtid", "sharded,mutex", "-sweep-incremental", "false,true",
		"-sweep-workers", "4")
	var doc sweepDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("aggregate is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Totals.Runs != 16 || len(doc.Cells) != 16 {
		t.Fatalf("grid has %d cells / %d runs, want 16", len(doc.Cells), doc.Totals.Runs)
	}
	if doc.Totals.SpecCompiles != 4 {
		t.Errorf("SpecCompiles = %d, want 4 (2 specs x 2 rank counts)", doc.Totals.SpecCompiles)
	}
	for _, cell := range doc.Cells {
		report := runArgs(t, "-spec", cell.Spec, "-steps", "10", "-ranks", fmt.Sprint(cell.Ranks),
			"-virtid", cell.Virtid, fmt.Sprintf("-incremental=%v", cell.Incremental), "-ckpt-at", cell.CkptAt)
		if want := reportHash(report); cell.ReportFNV64 != want {
			t.Errorf("cell %s/ranks=%d/virtid=%s/incr=%v: aggregate hash %s, standalone bytes hash %s",
				cell.Spec, cell.Ranks, cell.Virtid, cell.Incremental, cell.ReportFNV64, want)
		}
		if cell.ReportBytes != len(report) {
			t.Errorf("cell %s/ranks=%d: aggregate says %d report bytes, standalone printed %d",
				cell.Spec, cell.Ranks, cell.ReportBytes, len(report))
		}
	}
}
