package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mana/internal/scenario"
)

// TestLibrarySpecReportGoldens pins a report golden for every library
// spec beyond the two classic ones, at the default 8-rank scenario with
// failure and restart. Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestLibrarySpecReportGoldens -update
func TestLibrarySpecReportGoldens(t *testing.T) {
	for _, name := range []string{"stencil", "master-worker", "bursty-alltoall", "pipeline"} {
		t.Run(name, func(t *testing.T) {
			got := runArgs(t, "-spec", name)
			if !strings.Contains(got, "injected failure") {
				t.Errorf("%s scenario did not exercise failure/restart:\n%s", name, got)
			}
			checkGolden(t, name+"_report.golden", got)
		})
	}
}

// TestSpecDeterminismAcrossGOMAXPROCS is the report half of the
// determinism property: the same spec and seed must render byte-
// identical reports whatever the parallelism of the host process.
func TestSpecDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var reports []string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		reports = append(reports, runArgs(t, "-spec", "bursty-alltoall", "-ranks", "12", "-steps", "16"))
	}
	if reports[0] != reports[1] {
		t.Errorf("report depends on GOMAXPROCS:\n--- 1\n%s\n--- 4\n%s", reports[0], reports[1])
	}
}

// TestRecordReplayRoundTrip pins the trace mode end to end: a job
// recorded with -record and replayed with -trace reproduces the
// original report byte for byte. The spec's checkpoint policy must be
// the default one, since a trace carries no policy.
func TestRecordReplayRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "stencil.trace")
	eng, job := mustJob(t, "-spec", "stencil", "-record", trace)
	var out bytes.Buffer
	if err := runJob(eng, job, trace, &out); err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	recorded := out.String()

	_, replay := mustJob(t, "-trace", trace)
	if len(replay.Programs) != job.Ranks {
		t.Fatalf("replay rank count %d, want %d from the trace header", len(replay.Programs), job.Ranks)
	}
	replayed := runArgs(t, "-trace", trace)
	if recorded != replayed {
		t.Errorf("record->replay altered the report:\n--- recorded\n%s\n--- replayed\n%s", recorded, replayed)
	}
}

// TestSpecFileEqualsLibrary: a spec loaded from a file on disk behaves
// exactly like its embedded library twin — the "add a workload without
// writing Go" path.
func TestSpecFileEqualsLibrary(t *testing.T) {
	src, err := scenario.Load("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	_ = src
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "scenario", "specs", "pipeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "my-pipeline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if runArgs(t, "-spec", "pipeline") != runArgs(t, "-spec", path) {
		t.Error("a file copy of the pipeline spec renders a different report than the library spec")
	}
}
