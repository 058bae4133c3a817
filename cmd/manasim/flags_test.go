package main

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"mana/internal/fleet"
	"mana/internal/scenario"
)

// The CLI-only roles: flags that shape the invocation rather than the
// run description — how the Job is executed or multiplied, never the Job
// itself.
const (
	roleRecord    = "cli: record the job's op streams"
	roleSweep     = "cli: run a grid instead of one job"
	roleDimension = "cli: sweep dimension"
)

// TestFlagsMapToJobFields is the bidirectional completeness check
// between the flag surface and fleet.Job, in the style of a builtin ↔
// declaration table: every registered flag must map to exactly one Job
// field or a named CLI-only role, every Job field must be reached by
// some flag, and a table entry for a flag or field that no longer exists
// is an error. Each field-mapped flag is also exercised: passing it (in
// the context it needs) must change the field it claims.
func TestFlagsMapToJobFields(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "job.trace")
	if err := recordTrace(trace, scenario.MustPrograms("default", scenario.Params{Ranks: 2, Steps: 1, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	table := map[string]struct {
		role    string   // a fleet.Job field name or a CLI-only role
		value   string   // a non-default value for the flag
		context []string // flags the value needs to be accepted
	}{
		"ranks":         {"Ranks", "16", nil},
		"steps":         {"Steps", "5", nil},
		"seed":          {"Seed", "7", nil},
		"kernel":        {"Kernel", "patched", nil},
		"virtid":        {"Virtid", "mutex", nil},
		"spec":          {"Spec", "overlap", nil},
		"trace":         {"Programs", trace, nil},
		"group":         {"Group", "2", []string{"-spec", "overlap"}},
		"ckpt-at":       {"CkptAt", "1ms", nil},
		"fail-after":    {"FailAfter", "1", nil},
		"fail-delay":    {"FailDelay", "100us", []string{"-fail-after", "2"}},
		"no-fail":       {"FailAfter", "true", nil},
		"faults":        {"Faults", "testdata/faults/multi-failure.json", nil},
		"incremental":   {"Incremental", "true", nil},
		"full-every":    {"FullEvery", "2", nil},
		"islands":       {"Islands", "4", nil},
		"workers":       {"Workers", "4", []string{"-islands", "8"}},
		"storage":       {"Storage", "staged", nil},
		"pfs-bandwidth": {"Storage", "1e9", nil},
		"bb-bandwidth":  {"Storage", "1e9", nil},
		"bb-capacity":   {"Storage", "1048576", nil},
		"compress":      {"Storage", "true", []string{"-incremental"}},
		"compress-cost": {"Storage", "0.5", []string{"-incremental", "-compress"}},

		"record":            {roleRecord, "", nil},
		"sweep":             {roleSweep, "", nil},
		"sweep-specs":       {roleDimension, "", nil},
		"sweep-ranks":       {roleDimension, "", nil},
		"sweep-ckpt":        {roleDimension, "", nil},
		"sweep-virtid":      {roleDimension, "", nil},
		"sweep-incremental": {roleDimension, "", nil},
		"sweep-storage":     {roleDimension, "", nil},
		"sweep-workers":     {roleDimension, "", nil},
	}
	cliRoles := map[string]bool{roleRecord: true, roleSweep: true, roleDimension: true}

	fs := flag.NewFlagSet("manasim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if _, ok := table[f.Name]; !ok {
			t.Errorf("flag -%s maps to no Job field or CLI role", f.Name)
		}
	})
	jobType := reflect.TypeOf(fleet.Job{})
	reached := make(map[string]bool)
	for name, e := range table {
		if fs.Lookup(name) == nil {
			t.Errorf("table entry for non-existent flag -%s", name)
		}
		if cliRoles[e.role] {
			continue
		}
		if _, ok := jobType.FieldByName(e.role); !ok {
			t.Errorf("flag -%s maps to non-existent Job field %s", name, e.role)
			continue
		}
		reached[e.role] = true

		_, base := mustJob(t, e.context...)
		_, got := mustJob(t, append(e.context, "-"+name+"="+e.value)...)
		field := func(j fleet.Job) any { return reflect.ValueOf(j).FieldByName(e.role).Interface() }
		if reflect.DeepEqual(field(base), field(got)) {
			t.Errorf("-%s=%s left Job.%s unchanged", name, e.value, e.role)
		}
	}
	for i := 0; i < jobType.NumField(); i++ {
		if name := jobType.Field(i).Name; !reached[name] {
			t.Errorf("Job field %s is reached by no flag", name)
		}
	}
}
