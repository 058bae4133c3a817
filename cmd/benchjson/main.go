// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so benchmark trajectories
// (scheduler event loop, checkpoint drain, ...) can be tracked from
// one artifact — BENCH_sched.json, written by `make bench-json` — from
// this PR onward instead of being scraped out of CI logs.
//
// Standard metrics (ns/op, B/op, allocs/op) become typed fields; any
// custom testing.B ReportMetric units (events, rank-visits, ...) land in
// a sorted "metrics" map. Lines that are not benchmark results (goos,
// pkg, PASS, ...) are ignored, so the tool can be fed the raw output of
// `go test -bench ... ./...` across multiple packages.
//
// With -check, the tool instead compares the bench output on stdin
// against a committed baseline artifact and exits non-zero if the
// baseline is stale (a benchmark in the artifact was not run — someone
// removed or renamed it without regenerating BENCH_sched.json) or if
// any benchmark's ns/op regressed beyond -max-regress (default 0.30,
// i.e. 30%) relative to the baseline. Custom metrics with a "/sec"
// unit (runs/sec, ...) are throughput figures and gate in the other
// direction: falling more than -max-regress below the baseline fails. A benchmark that ran but is not
// in the artifact yet is reported informationally — a newly added
// benchmark is not a regression, and failing on it would force every
// benchmark-adding change to regenerate the artifact on the machine
// that owns the baseline numbers. CI runs the check with a loose
// multiplier because -benchtime=1x timings are noisy; `make bench-check`
// applies the strict threshold at a real benchtime.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... | go run ./cmd/benchjson > BENCH_sched.json
//	go test -bench=. -benchmem -run='^$' ./... | go run ./cmd/benchjson -check BENCH_sched.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line, decoded.
type Result struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped (BenchmarkNetsimDrain/all-pairs).
	Name string `json:"name"`
	// Iterations is the b.N the reported per-op figures were averaged
	// over.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the wall-clock cost per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was on.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom ReportMetric values (events, rank-visits, ...)
	// keyed by their unit. encoding/json marshals map keys sorted, so the
	// artifact is deterministic.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the whole artifact.
type Document struct {
	Benchmarks []Result `json:"benchmarks"`
}

// suffixRe matches the -GOMAXPROCS suffix Go appends to benchmark names.
var suffixRe = regexp.MustCompile(`-\d+$`)

// parseLine decodes one `go test -bench` output line; ok is false for
// non-benchmark lines. The format is:
//
//	BenchmarkName-P  N  <value> <unit>  [<value> <unit> ...]
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{
		Name:       suffixRe.ReplaceAllString(fields[0], ""),
		Iterations: iters,
	}
	sawNsPerOp := false
	// The remaining fields are (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			sawNsPerOp = true
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, sawNsPerOp
}

// parse decodes every benchmark line from in.
func parse(in io.Reader) ([]Result, error) {
	results := []Result{}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		if r, ok := parseLine(scanner.Text()); ok {
			results = append(results, r)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("reading bench output: %w", err)
	}
	return results, nil
}

// run converts bench output from in to a JSON document on out.
func run(in io.Reader, out io.Writer) error {
	results, err := parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(Document{Benchmarks: results})
}

// check compares fresh bench output against the baseline document and
// returns one error per violation — a stale baseline (a benchmark in
// the artifact was not run) or an ns/op regression beyond maxRegress
// (0.30 = fail when more than 30% slower) — plus informational notes
// for benchmarks that ran but are not in the artifact yet (new
// benchmarks are not regressions).
//
// A regression verdict needs a meaningful measurement: when the fresh
// run's window — iterations times the baseline per-op cost — is shorter
// than minWindowNs, harness overhead dominates the figure (a one-shot run
// of a 10ns benchmark "measures" microseconds) and the comparison is
// skipped. Staleness is still enforced for such benchmarks, so a 1x CI
// smoke gates the macro benchmarks and the artifact's shape, while short
// microbenchmarks are only judged at a real benchtime.
func check(results []Result, baseline Document, maxRegress, minWindowNs float64) (errs []error, notes []string) {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	fresh := make(map[string]Result, len(results))
	for _, r := range results {
		fresh[r.Name] = r
	}
	var missing, added []string
	for name := range base {
		if _, ok := fresh[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range fresh {
		if _, ok := base[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(added)
	for _, name := range missing {
		errs = append(errs, fmt.Errorf("stale baseline: %s is in the artifact but was not run", name))
	}
	for _, name := range added {
		notes = append(notes, fmt.Sprintf("new benchmark: %s is not in the artifact yet (not a regression) — `make bench-json` will record it", name))
	}
	for _, r := range results {
		b, ok := base[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if float64(r.Iterations)*b.NsPerOp < minWindowNs {
			continue // too short to measure; staleness was still checked
		}
		if limit := b.NsPerOp * (1 + maxRegress); r.NsPerOp > limit {
			errs = append(errs, fmt.Errorf("regression: %s %.4g ns/op vs baseline %.4g ns/op (limit %.4g, +%.0f%%)",
				r.Name, r.NsPerOp, b.NsPerOp, limit, 100*(r.NsPerOp/b.NsPerOp-1)))
		}
		// Custom metrics whose unit ends in "/sec" are throughput figures
		// (runs/sec, events/sec, ...): higher is better, so the gate flips —
		// fail when the fresh rate falls more than maxRegress below the
		// baseline. Other custom metrics stay informational.
		for unit, bv := range b.Metrics {
			if !strings.HasSuffix(unit, "/sec") || bv <= 0 {
				continue
			}
			rv, ok := r.Metrics[unit]
			if !ok {
				continue
			}
			if floor := bv * (1 - maxRegress); rv < floor {
				errs = append(errs, fmt.Errorf("throughput regression: %s %.4g %s vs baseline %.4g %s (floor %.4g, -%.0f%%)",
					r.Name, rv, unit, bv, unit, floor, 100*(1-rv/bv)))
			}
		}
	}
	return errs, notes
}

// runCheck loads the baseline, parses stdin and reports violations.
func runCheck(in io.Reader, errOut io.Writer, baselinePath string, maxRegress, minWindowNs float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var baseline Document
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("decoding baseline %s: %w", baselinePath, err)
	}
	results, err := parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results on stdin")
	}
	errs, notes := check(results, baseline, maxRegress, minWindowNs)
	for _, n := range notes {
		fmt.Fprintf(errOut, "benchjson: %s\n", n)
	}
	for _, e := range errs {
		fmt.Fprintf(errOut, "benchjson: %v\n", e)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d check(s) failed against %s", len(errs), baselinePath)
	}
	fmt.Fprintf(errOut, "benchjson: %d benchmarks within %.0f%% of %s\n",
		len(results), 100*maxRegress, baselinePath)
	return nil
}

func main() {
	checkPath := flag.String("check", "", "baseline JSON artifact to compare stdin against instead of emitting JSON")
	maxRegress := flag.Float64("max-regress", 0.30, "with -check, maximum tolerated ns/op regression (0.30 = 30%)")
	minWindow := flag.Float64("min-window-ns", 100_000, "with -check, skip the regression verdict for runs measured over a shorter window than this")
	flag.Parse()
	var err error
	if *checkPath != "" {
		err = runCheck(os.Stdin, os.Stderr, *checkPath, *maxRegress, *minWindow)
	} else {
		err = run(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
