package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mana/internal/coordinator"
	"mana/internal/fleet"
	"mana/internal/storage"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// buildArgs parses args as a manasim command line and runs the builder
// on a fresh engine, returning the engine for the caller to run on.
func buildArgs(args ...string) (*fleet.Engine, fleet.Job, *fleet.Sweep, error) {
	fs := flag.NewFlagSet("manasim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		return nil, fleet.Job{}, nil, err
	}
	eng := fleet.NewEngine()
	job, sw, err := o.build(eng)
	return eng, job, sw, err
}

// mustJob builds a single run's Job from args, failing the test on a
// rejection.
func mustJob(t *testing.T, args ...string) (*fleet.Engine, fleet.Job) {
	t.Helper()
	eng, job, sw, err := buildArgs(args...)
	if err != nil {
		t.Fatalf("build %v: %v", args, err)
	}
	if sw != nil {
		t.Fatalf("build %v: got a sweep, want a single run", args)
	}
	return eng, job
}

// runArgs runs the single job args describe and returns everything it
// printed: restart notices followed by the report.
func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	eng, job := mustJob(t, args...)
	var buf bytes.Buffer
	if err := runJob(eng, job, "", &buf); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return buf.String()
}

// configArgs returns the coordinator configuration the engine translates
// args' Job into.
func configArgs(t *testing.T, args ...string) coordinator.Config {
	t.Helper()
	eng, job := mustJob(t, args...)
	cfg, err := eng.Config(job)
	if err != nil {
		t.Fatalf("config %v: %v", args, err)
	}
	return cfg
}

// checkGolden compares got with testdata/<name>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("report deviates from %s.\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}

// TestDefaultScenarioReportGolden pins the default scenario's report
// bytes: any change to the scheduler, the cost model or the report
// format shows up as a diff against testdata/default_report.golden.
// Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestDefaultScenarioReportGolden -update
func TestDefaultScenarioReportGolden(t *testing.T) {
	checkGolden(t, "default_report.golden", runArgs(t))
}

// TestIncrementalScenarioReportGolden pins the -incremental scenario the
// same way: the default workload checkpointed with delta images (full
// every 4th), failure and restart included. Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestIncrementalScenarioReportGolden -update
func TestIncrementalScenarioReportGolden(t *testing.T) {
	got := runArgs(t, "-incremental")
	if !strings.Contains(got, "incremental=true") {
		t.Errorf("incremental report does not surface its mode:\n%s", got)
	}
	checkGolden(t, "incremental_report.golden", got)
}

// TestOverlapScenarioReportGolden pins the -spec overlap scenario:
// staggered sub-communicator collectives, a checkpoint requested while
// at least two of them are in flight (so the topological-sort drain
// planner orders a real dependency graph), failure and restart.
// Regenerate deliberately with:
//
//	go test ./cmd/manasim -run TestOverlapScenarioReportGolden -update
func TestOverlapScenarioReportGolden(t *testing.T) {
	got := runArgs(t, "-spec", "overlap")
	// The acceptance bar for the drain planner: at least one checkpoint
	// drained >= 2 simultaneously in-flight collectives.
	if !regexpMustFind(t, got, `coll-drain: planned=([2-9]|\d\d+) overlap-width=([2-9]|\d\d+)`) {
		t.Errorf("no checkpoint drained >= 2 overlapping collectives:\n%s", got)
	}
	if !strings.Contains(got, "comm-splits executed=16") {
		t.Errorf("overlap report missing comm-split accounting:\n%s", got)
	}
	checkGolden(t, "overlap_report.golden", got)
}

// regexpMustFind reports whether the pattern matches, failing the test
// on a malformed pattern.
func regexpMustFind(t *testing.T, s, pattern string) bool {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatalf("bad pattern %q: %v", pattern, err)
	}
	return re.MatchString(s)
}

// TestScenarioByteIdenticalAcrossRuns is the CLI-level determinism
// check: the same scenario must render the same bytes every time.
func TestScenarioByteIdenticalAcrossRuns(t *testing.T) {
	r1 := runArgs(t, "-ranks", "4", "-steps", "10")
	r2 := runArgs(t, "-ranks", "4", "-steps", "10")
	if r1 != r2 {
		t.Errorf("reports differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", r1, r2)
	}
}

// TestKernelFlagChangesReport exercises the patched-kernel path through
// the CLI plumbing.
func TestKernelFlagChangesReport(t *testing.T) {
	unpatched := runArgs(t, "-ranks", "4", "-steps", "6", "-no-fail")
	patched := runArgs(t, "-ranks", "4", "-steps", "6", "-no-fail", "-kernel", "patched")
	if unpatched == patched {
		t.Error("kernel personality had no effect on the report")
	}
}

// TestVirtidFlagChangesReport exercises the -virtid plumbing: the mutex
// baseline charges a higher per-lookup cost, so the report must differ
// from the sharded default.
func TestVirtidFlagChangesReport(t *testing.T) {
	sharded := runArgs(t, "-ranks", "4", "-steps", "6", "-no-fail")
	mutex := runArgs(t, "-ranks", "4", "-steps", "6", "-no-fail", "-virtid", "mutex")
	if sharded == mutex {
		t.Error("virtid implementation had no effect on the report")
	}
	for report, want := range map[string]string{sharded: "impl=sharded", mutex: "impl=mutex"} {
		if !strings.Contains(report, want) {
			t.Errorf("report does not name its virtid implementation (%s)", want)
		}
	}
}

// TestBuildConfigValidation runs the single-run half of the builder's
// rejection table.
func TestBuildConfigValidation(t *testing.T) { checkRejections(t, false) }

// TestBuildSweepValidation runs the -sweep half of the same table.
func TestBuildSweepValidation(t *testing.T) { checkRejections(t, true) }

// checkRejections is the builder's one rejection table, single runs and
// -sweep alike: every invalid flag combination is refused with an error
// that names the offending flag. Arguments split on spaces; a case whose
// arguments start with -sweep belongs to the sweep half, so names are
// unique within each half.
func checkRejections(t *testing.T, sweep bool) {
	hugeTrace := filepath.Join(t.TempDir(), "huge.trace")
	if err := os.WriteFile(hugeTrace, []byte("manatrace v1 ranks=99999999999"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want string // substring the error must carry (the offending flag)
		args string
	}{
		{"zero ranks", "-ranks", "-ranks 0"},
		{"ranks above MaxRanks", "ranks must be in", "-ranks 65537"},
		{"negative steps", "-steps", "-steps -1"},
		{"unknown kernel", "-kernel", "-kernel plan9"},
		{"unknown virtid", "-virtid", "-virtid bogolock"},
		{"tiny overlap group", "-group", "-spec overlap -group 1"},
		{"negative full-every", "-full-every", "-full-every -1"},
		{"group without splits", "-group", "-group 4"},
		{"group on splitless spec", "-group", "-spec stencil -group 4"},
		{"unknown spec", "-spec", "-spec no-such-spec.json"},
		{"trace and spec", "-spec", "-trace x.trace -spec stencil"},
		{"trace and group", "-group", "-trace x.trace -group 4"},
		{"trace and ranks", "-ranks", "-trace x.trace -ranks 8"},
		{"trace and steps", "-steps", "-trace x.trace -steps 4"},
		{"missing trace file", "-trace", "-trace testdata/no-such.trace"},
		{"oversized trace header", "ranks", "-trace " + hugeTrace},
		{"negative islands", "-islands", "-islands -1"},
		{"zero workers", "-workers", "-workers 0"},
		{"workers without islands", "-workers", "-workers 4"},
		{"compress without incremental", "-compress", "-compress"},
		{"compress-cost without compress", "-compress-cost", "-compress-cost 0.5"},
		{"unknown storage profile", "-storage", "-storage quantum"},
		{"compressed profile without incremental", "-storage", "-storage staged-compressed"},
		{"sweep-storage without sweep", "-sweep-storage", "-sweep-storage direct,staged"},
		{"drain-hop plan without staging", "-storage", "-faults testdata/faults/staging/drain-torn-fallback.json"},
		{"record with sweep", "-record", "-sweep -record out.trace"},
		{"trace with sweep", "-trace", "-sweep -trace x.trace"},
		{"group with sweep", "-group", "-sweep -group 4"},
		{"bad ranks entry", "-sweep-ranks", "-sweep -sweep-ranks 8,zero"},
		{"zero ranks entry", "-sweep-ranks", "-sweep -sweep-ranks 0"},
		{"bad ckpt entry", "-sweep-ckpt", "-sweep -sweep-ckpt 5ms,eventually"},
		{"negative ckpt entry", "-sweep-ckpt", "-sweep -sweep-ckpt -1ms"},
		{"bad virtid entry", "-sweep-virtid", "-sweep -sweep-virtid sharded,bogolock"},
		{"bad incremental entry", "-sweep-incremental", "-sweep -sweep-incremental true,maybe"},
		{"unknown sweep spec", "-sweep-specs", "-sweep -sweep-specs default,no-such-spec.json"},
		{"zero sweep workers", "-sweep-workers", "-sweep -sweep-workers 0"},
		{"unknown kernel", "-kernel", "-sweep -kernel plan9"},
	}
	for _, tc := range cases {
		if strings.HasPrefix(tc.args, "-sweep ") != sweep {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := buildArgs(strings.Fields(tc.args)...)
			if err == nil {
				t.Fatalf("build accepted invalid flags %q", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestStorageFlagResolution covers the positive half of the storage flag
// surface: profiles resolve, individual flags overlay them, and a lone
// burst-buffer flag completes from the model defaults.
func TestStorageFlagResolution(t *testing.T) {
	cfg := configArgs(t, "-storage", "staged")
	if !cfg.Storage.Staging || cfg.Storage.BBCapacity != storage.DefaultBBCapacity {
		t.Errorf("-storage staged compiled wrong: %+v", cfg.Storage)
	}
	cfg = configArgs(t, "-storage", "staged", "-pfs-bandwidth", "2e9")
	if cfg.Storage.PFSBandwidth != 2e9 || !cfg.Storage.Staging {
		t.Errorf("-pfs-bandwidth did not overlay the profile: %+v", cfg.Storage)
	}
	cfg = configArgs(t, "-bb-capacity", "1048576")
	if !cfg.Storage.Staging || cfg.Storage.BBCapacity != 1<<20 || cfg.Storage.BBBandwidth != storage.DefaultBBBandwidth {
		t.Errorf("lone -bb-capacity did not complete a burst buffer from defaults: %+v", cfg.Storage)
	}
}

// TestSpecStorageBlock covers a spec-declared storage block: it
// resolves, individual flags may not silently reshape it, and -storage
// overrides it whole.
func TestSpecStorageBlock(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "st.json")
	body := `{
		"name": "st",
		"phases": [{"name": "main", "steps": 2, "ops": [{"op": "compute", "mean": "1ms"}]}],
		"storage": {"burst_buffer": {"bandwidth": 4e9, "capacity": 1048576}}
	}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := configArgs(t, "-spec", spec)
	if !cfg.Storage.Staging || cfg.Storage.BBBandwidth != 4e9 || cfg.Storage.BBCapacity != 1<<20 {
		t.Errorf("spec storage block not applied: %+v", cfg.Storage)
	}

	_, _, _, err := buildArgs("-spec", spec, "-bb-capacity", "2097152")
	if err == nil || !strings.Contains(err.Error(), "-bb-capacity has no effect on spec") {
		t.Errorf("flag alongside spec block: err = %v, want named rejection", err)
	}

	cfg = configArgs(t, "-spec", spec, "-storage", "direct")
	if cfg.Storage.Staging {
		t.Errorf("-storage direct did not override the spec block: %+v", cfg.Storage)
	}
}

// TestIslandFlagsAreReportNeutral is the CLI-level statement of the
// sharded scheduler's contract: -islands and -workers are pure
// performance knobs, so every setting must reproduce the serial
// report byte for byte.
func TestIslandFlagsAreReportNeutral(t *testing.T) {
	base := runArgs(t)
	for _, tc := range []struct {
		name             string
		islands, workers string
	}{
		{"islands only", "4", "1"},
		{"islands and workers", "8", "4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runArgs(t, "-islands", tc.islands, "-workers", tc.workers)
			if got != base {
				t.Errorf("-islands %s -workers %s changed the report.\n--- sharded\n%s\n--- serial\n%s",
					tc.islands, tc.workers, got, base)
			}
		})
	}
}

// TestSpecIslandsHint checks that a spec's islands field seeds the
// partition, also when -islands 0 is passed explicitly (the flag's
// "spec hint or serial" value), that a positive -islands overrides it,
// and that the hint leaves the report unchanged.
func TestSpecIslandsHint(t *testing.T) {
	dir := t.TempDir()
	phases := `"phases": [{"name": "main", "steps": 2, "ops": [{"op": "compute", "mean": "1ms"}]}]`
	spec := filepath.Join(dir, "hint.json")
	if err := os.WriteFile(spec, []byte(`{"name": "hint", "islands": 4, `+phases+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 4},
		{[]string{"-islands", "0"}, 4},
		{[]string{"-islands", "2"}, 2},
	} {
		args := append([]string{"-spec", spec}, tc.args...)
		if got := configArgs(t, args...).Islands; got != tc.want {
			t.Errorf("%v: cfg.Islands = %d, want %d", args, got, tc.want)
		}
	}
	// The hint is a performance knob: a hint-free twin of the spec prints
	// the same report.
	serial := filepath.Join(dir, "serial.json")
	if err := os.WriteFile(serial, []byte(`{"name": "hint", `+phases+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if hinted, plain := runArgs(t, "-spec", spec, "-islands", "0"), runArgs(t, "-spec", serial); hinted != plain {
		t.Errorf("the islands hint changed the report.\n--- hinted\n%s\n--- serial\n%s", hinted, plain)
	}
}
