package main

import (
	_ "embed"
	"fmt"

	"mana/internal/faultplan"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// generationFallback is a verbatim copy of
// cmd/manasim/testdata/faults/generation-fallback.json (a test keeps the
// two in step): it tears the image write of checkpoint #3, so the job
// restarts from #2 at fallback depth 1.
//
//go:embed faults/generation-fallback.json
var generationFallback []byte

// workload is one kind of complete simulated job the benchmark runs in a
// closed loop. Every field maps onto a manasim flag of the same name.
type workload struct {
	name        string
	why         string
	spec        string
	ranks       int
	steps       int
	ckptAt      vtime.Time
	incremental bool
	fullEvery   int
	// faults is a fault-plan document; nil runs fault-free.
	faults []byte
	// clients is the number of closed-loop clients sharing one engine.
	clients int
	// tailPct is the percentile job_s.tail reports: a high one with at
	// least ten samples beyond it in a baseline run, fixed so that a
	// run with more or fewer jobs reports the same statistic. 100 (the
	// maximum) where a baseline run has fewer than 20 jobs, so that no
	// percentile at or above the median has ten samples beyond it.
	tailPct float64
}

var workloads = []workload{
	{
		name:      "full-ckpt",
		why:       "4096 ranks, 3 full checkpoints: capture, content hashing, report and fingerprint dominate",
		spec:      "default",
		ranks:     4096,
		steps:     5,
		ckptAt:    200 * vtime.Time(vtime.Microsecond),
		fullEvery: 4,
		clients:   1,
		tailPct:   100,
	},
	{
		name:      "alltoall-dispatch",
		why:       "256 ranks of bursty all-to-all, ~1M events: event dispatch and netsim dominate, hashing is negligible",
		spec:      "bursty-alltoall",
		ranks:     256,
		steps:     20,
		ckptAt:    5 * vtime.Time(vtime.Millisecond),
		fullEvery: 4,
		clients:   1,
		tailPct:   100,
	},
	{
		name:        "incr-restart",
		why:         "2048 ranks, incremental images, a torn write forces a depth-1 generation fallback restart",
		spec:        "default",
		ranks:       2048,
		steps:       10,
		ckptAt:      200 * vtime.Time(vtime.Microsecond),
		incremental: true,
		fullEvery:   4,
		faults:      generationFallback,
		clients:     1,
		tailPct:     100,
	},
	{
		name:  "fleet-pair",
		why:   "two concurrent clients on one fleet engine, 256-rank jobs: scratch pool, compile cache and shared GC",
		spec:  "default",
		ranks: 256,
		steps: 10,
		// At 1.5ms the plain and mid-collective triggers fire together
		// on every seed tried (1–120), so every seed runs the same
		// checkpoint structure; at 1ms that holds for about a quarter
		// of the seeds only, and those jobs are ~20% cheaper.
		ckptAt:    1500 * vtime.Time(vtime.Microsecond),
		fullEvery: 4,
		clients:   2,
		tailPct:   95,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// job builds the serial fleet job for one run. The seed is the only
// input the benchmark varies: it reseeds the compiled programs.
func (w workload) job(spec *scenario.Spec, seed uint64) (fleet.Job, error) {
	j := fleet.Job{
		Spec:        spec,
		Ranks:       w.ranks,
		Steps:       w.steps,
		Seed:        seed,
		Kernel:      kernelsim.Unpatched,
		Virtid:      virtid.ImplSharded,
		CkptAt:      w.ckptAt,
		Incremental: w.incremental,
		FullEvery:   w.fullEvery,
		Islands:     0,
		Workers:     1,
	}
	if w.faults != nil {
		plan, err := faultplan.Parse(w.faults)
		if err != nil {
			return fleet.Job{}, fmt.Errorf("workload %s: %w", w.name, err)
		}
		j.Faults = plan
	}
	return j, nil
}
