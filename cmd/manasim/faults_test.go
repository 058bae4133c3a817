package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestFailFlagValidation covers the failure-flag surface's error paths:
// legacy flags that would be silently ignored — by each other, by a
// -faults plan, or by a spec-declared plan — are rejected naming the
// offending flag, and malformed values are refused.
func TestFailFlagValidation(t *testing.T) {
	specWithFaults := filepath.Join(t.TempDir(), "faulty.json")
	body := `{
		"name": "faulty",
		"phases": [{"name": "main", "steps": 2, "ops": [{"op": "compute", "mean": "1ms"}]}],
		"faults": {"faults": [{"at": "checkpoint-commit", "n": 1, "kind": "rank-crash"}]}
	}`
	if err := os.WriteFile(specWithFaults, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"faults":[{"at":"checkpoint-commit","n":1,"kind":"meteor"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	const plan = "testdata/faults/multi-failure.json"
	cases := []struct {
		name string
		want string // substring the error must carry (the offending flag)
		args []string
	}{
		{"negative fail-after", "-fail-after", []string{"-fail-after", "-1"}},
		{"fail-delay with no-fail", "-fail-delay has no effect with -no-fail", []string{"-fail-delay", "250us", "-no-fail"}},
		{"fail-delay without fail-after", "-fail-delay has no effect without -fail-after", []string{"-fail-delay", "250us"}},
		{"non-positive fail-delay", "-fail-delay must be positive", []string{"-fail-after", "2", "-fail-delay", "0"}},
		{"fail-after with no-fail", "-fail-after has no effect with -no-fail", []string{"-fail-after", "2", "-no-fail"}},
		{"fail-after with faults", "-fail-after cannot be combined with -faults", []string{"-faults", plan, "-fail-after", "2"}},
		{"fail-delay with faults", "-fail-delay cannot be combined with -faults", []string{"-faults", plan, "-fail-delay", "250us"}},
		{"no-fail with faults", "-no-fail cannot be combined with -faults", []string{"-faults", plan, "-no-fail"}},
		{"missing faults file", "-faults", []string{"-faults", "testdata/faults/no-such-plan.json"}},
		{"invalid faults file", "faults[0].kind", []string{"-faults", bad}},
		{"fail-after with spec plan", "declares its own fault plan", []string{"-spec", specWithFaults, "-fail-after", "2"}},
		{"no-fail with spec plan", "declares its own fault plan", []string{"-spec", specWithFaults, "-no-fail"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The sweep builder shares the failure-flag surface, spec
			// plans included: each sweep spec is checked like -spec.
			for _, args := range [][]string{tc.args, append([]string{"-sweep"}, tc.args...)} {
				_, _, _, err := buildArgs(args...)
				if err == nil {
					t.Fatalf("build accepted invalid flags %v", args)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%v: error %q does not carry %q", args, err, tc.want)
				}
			}
		})
	}
}

// TestFaultPlanOverridesSpecPlan pins the precedence contract: -faults
// replaces a spec-declared plan outright rather than layering onto it.
func TestFaultPlanOverridesSpecPlan(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "faulty.json")
	body := `{
		"name": "faulty",
		"phases": [{"name": "main", "steps": 2, "ops": [{"op": "compute", "mean": "1ms"}]}],
		"faults": {"faults": [{"at": "virtual-time", "time": "1us", "kind": "rank-crash"}]}
	}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := configArgs(t, "-spec", spec, "-faults", "testdata/faults/virtual-time-crash.json")
	if len(cfg.Faults) != 1 {
		t.Fatalf("compiled faults = %d, want 1 (the CLI plan, not the spec's)", len(cfg.Faults))
	}
	if got, want := cfg.Faults[0].Time, 6*time.Millisecond; time.Duration(got) != want {
		t.Errorf("fault time = %v, want %v from the CLI plan", got, want)
	}
}

// TestMultiFailurePlanAcceptance is the PR's headline scenario: one plan
// injecting a mid-drain crash, a torn image write and a restart-time
// double fault. The job must recover by falling back past the torn and
// poisoned links, report the fallback depth and lost work, render
// byte-identical output across repeated runs at -islands 8 -workers 4,
// and land on the fault-free final fingerprint.
func TestMultiFailurePlanAcceptance(t *testing.T) {
	args := []string{"-faults", filepath.Join("testdata", "faults", "multi-failure.json"), "-islands", "8", "-workers", "4"}
	first, second := runArgs(t, args...), runArgs(t, args...)
	if first != second {
		t.Errorf("multi-failure output differs between identical runs at -islands 8 -workers 4:\n--- run 1\n%s\n--- run 2\n%s",
			first, second)
	}
	for _, want := range []string{
		"injected failure after checkpoint #2; restarting from last image",
		"injected failure after checkpoint #3; restarting from last image",
		"restart failed (injected restart fault); falling back to an older image",
		"faults: torn-images=1",
		"fallback-depth=2",
		"torn-links=2",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("multi-failure output missing %q:\n%s", want, first)
		}
	}
	if !regexpMustFind(t, first, `lost-work=[1-9]`) {
		t.Errorf("multi-failure output does not report non-zero lost work:\n%s", first)
	}

	// The recovery contract: the final application state matches the
	// fault-free run's bit for bit.
	cleanOut := runArgs(t, "-no-fail")
	fp := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "final fingerprint: ") {
				return strings.TrimPrefix(line, "final fingerprint: ")
			}
		}
		t.Fatalf("no final fingerprint line in:\n%s", out)
		return ""
	}
	if got, want := fp(first), fp(cleanOut); got != want {
		t.Errorf("final fingerprint %s differs from fault-free %s", got, want)
	}
}

// TestSweepWithFaultPlan pins fleet-mode fault support: a -sweep over a
// fault plan reports per-cell fallback depth and lost work, stays
// byte-identical across pool widths, and each cell's hash matches the
// standalone invocation's bytes.
func TestSweepWithFaultPlan(t *testing.T) {
	plan := filepath.Join("testdata", "faults", "multi-failure.json")
	narrow := sweepArgs(t, "-faults", plan, "-sweep-workers", "1")
	wide := sweepArgs(t, "-faults", plan, "-sweep-workers", "4")

	var doc struct {
		Cells []struct {
			FallbackDepth *int   `json:"fallback_depth"`
			LostWorkNs    *int64 `json:"lost_work_ns"`
			Restarts      int    `json:"restarts"`
			ReportFNV64   string `json:"report_fnv64"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(narrow.Bytes(), &doc); err != nil {
		t.Fatalf("aggregate is not valid JSON: %v\n%s", err, narrow.String())
	}
	if len(doc.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(doc.Cells))
	}
	cell := doc.Cells[0]
	switch {
	case cell.FallbackDepth == nil:
		t.Error("cell JSON has no fallback_depth field")
	case *cell.FallbackDepth != 2:
		t.Errorf("fallback_depth = %d, want 2", *cell.FallbackDepth)
	}
	switch {
	case cell.LostWorkNs == nil:
		t.Error("cell JSON has no lost_work_ns field")
	case *cell.LostWorkNs <= 0:
		t.Errorf("lost_work_ns = %d, want > 0", *cell.LostWorkNs)
	}

	// Pool width must not leak into the aggregate outside wall-clock
	// fields: compare after zeroing them.
	strip := func(b []byte) string {
		out := string(b)
		out = regexpReplaceAll(t, out, `"wall_ms": [0-9.e+-]+`, `"wall_ms": 0`)
		out = regexpReplaceAll(t, out, `"runs_per_sec": [0-9.e+-]+`, `"runs_per_sec": 0`)
		out = regexpReplaceAll(t, out, `"pool_workers": [0-9]+`, `"pool_workers": 0`)
		return out
	}
	if strip(narrow.Bytes()) != strip(wide.Bytes()) {
		t.Errorf("sweep aggregate differs between pool widths 1 and 4:\n--- pool 1\n%s\n--- pool 4\n%s",
			narrow.String(), wide.String())
	}

	// Cell hash matches the standalone run's bytes.
	if want := reportHash(runArgs(t, "-faults", plan)); cell.ReportFNV64 != want {
		t.Errorf("sweep cell hash %s, standalone bytes hash %s", cell.ReportFNV64, want)
	}
}

// regexpReplaceAll is a test helper wrapping regexp replacement with
// pattern-compile failure reporting.
func regexpReplaceAll(t *testing.T, s, pattern, repl string) string {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatalf("bad pattern %q: %v", pattern, err)
	}
	return re.ReplaceAllString(s, repl)
}
