package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// small shrinks a workload to 64 ranks so every path runs in moments.
func small(w workload) workload {
	w.ranks = 64
	return w
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not printed", d.name)
			continue
		}
		if v.Unit != d.unit {
			t.Errorf("metric %s printed with unit %q, want %q", d.name, v.Unit, d.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v", d.name, v.Value)
		}
	}
}

// TestEveryWorkloadSmall runs every workload at 64 ranks, untraced and
// traced: each must pass its correctness checks and print every metric
// of its mode with its unit.
func TestEveryWorkloadSmall(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				res, err := run(options{w: small(w), seed: 7, seconds: 0.3, trace: trace, spansPath: spans})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				checkMetrics(t, res, defs)
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
					return
				}
				if w.faults != nil && res.Metrics["restart.count"].Value < 1 {
					t.Errorf("restart.count = %v on a workload with a fault plan", res.Metrics["restart.count"].Value)
				}
				if got := res.Metrics["report.fingerprint_passes"].Value; got != 2 {
					t.Errorf("report.fingerprint_passes = %v, want 2", got)
				}
				data, err := os.ReadFile(spans)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{`"setup"`, `"job"`, `"coordinator.Run"`, `"memsim.probe"`, `"twin"`} {
					if !bytes.Contains(data, []byte(`"name":`+name)) {
						t.Errorf("spans file has no %s span", name)
					}
				}
			})
		}
	}
}

// TestFailedCheckSetsFailedFrac breaks one timed job's report digest: the
// job must count as failed and the result as incorrect.
func TestFailedCheckSetsFailedFrac(t *testing.T) {
	w, err := workloadByName("full-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(options{w: small(w), seed: 3, seconds: 0.2, tamper: func(job int) bool { return job == 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted < 2 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want one failed job", res.Correct, res.Attempted, res.Failed)
	}
}

// TestResultLine pins the result's JSON keys.
func TestResultLine(t *testing.T) {
	line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]value{"setup_s": {1.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}`
	if string(line) != want {
		t.Fatalf("result line %s, want %s", line, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, want %s %s %s", kind, i,
					got[i].Name, got[i].Unit, got[i].Better, d.name, d.unit, d.better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var setup float64
	for _, m := range doc.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || *m.Bound > setup {
			t.Errorf("%s: bound must be in (0, 0.25] and at most setup_s's %v", m.Name, setup)
		}
	}
}

// TestFaultPlanCopy keeps the embedded fault plan identical to the CLI's.
func TestFaultPlanCopy(t *testing.T) {
	orig, err := os.ReadFile("../cmd/manasim/testdata/faults/generation-fallback.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, generationFallback) {
		t.Fatal("faults/generation-fallback.json differs from cmd/manasim/testdata/faults/generation-fallback.json")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ pct, want float64 }{{0, 1}, {50, 3}, {100, 5}, {90, 4.6}} {
		if got := quantile(xs, c.pct); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(p%v) = %v, want %v", c.pct, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 10 * time.Millisecond},
		{ID: 1, Parent: 0, Name: "coordinator.Run", Start: 2 * time.Millisecond, End: 5 * time.Millisecond},
		{ID: 2, Parent: 0, Name: "coordinator.WriteReport", Start: 5 * time.Millisecond, End: 9 * time.Millisecond},
	}}
	st := selfTimes([]*tracer{tr})
	want := map[string]time.Duration{
		"job":                         3 * time.Millisecond,
		"job/coordinator.Run":         3 * time.Millisecond,
		"job/coordinator.WriteReport": 4 * time.Millisecond,
	}
	for path, d := range want {
		if st[path].self != d || st[path].calls != 1 {
			t.Errorf("%s: self %v calls %d, want %v and 1", path, st[path].self, st[path].calls, d)
		}
	}
}
