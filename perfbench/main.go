// Command perfbench is manasim's whole-job benchmark. It runs complete
// simulated jobs — spec, fleet.Engine.Config, coordinator.New, Run,
// restarts, WriteReport, FinalFingerprint — in a closed loop for a fixed
// time and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones, from spans
// recorded around every public layer call. Every job's output must be
// byte-identical; a failed check makes the result incorrect and the exit
// code 1. README.md describes the workloads and metrics; run.py builds
// and runs it from the repository root:
//
//	python3 perfbench/run.py --workload full-ckpt --seed 42 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload to run (full-ckpt, alltoall-dispatch, incr-restart, fleet-pair)")
	seed := flag.Uint64("seed", 42, "workload seed: the simulation seed every job of the run uses")
	seconds := flag.Float64("seconds", 10, "how long the timed closed loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced runner and prints the per-layer metrics")
	spansDir := flag.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		flag.Usage()
		os.Exit(2)
	}
	opt := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, log: os.Stdout}
	if opt.trace {
		opt.spansPath = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%-28s %18.6f %s\n", d.name, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
