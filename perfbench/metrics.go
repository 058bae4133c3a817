package main

// metricDef names one number the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units and directions (a test
// keeps them in step); README.md says which end-to-end metric each
// per-layer metric should move, and on which workload.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd is printed with --trace 0: what a user running whole jobs
// sees, measured with tracing off.
var endToEnd = []metricDef{
	{"job_s.p50", "s", "lower"},
	{"job_s.tail", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"sim_events_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is printed with --trace 1. Times are medians over the traced
// jobs of the run; counts are per job and must repeat exactly.
var perLayer = []metricDef{
	// memsim: upper-half snapshot and FNV content hash.
	{"memsim.snapshot_s", "s", "lower"},
	{"memsim.hash_s", "s", "lower"},
	{"memsim.hashed_bytes", "bytes", "lower"},
	{"memsim.hash_gb_per_s", "GB/s", "higher"},
	// coordinator: dispatch against checkpoint commit.
	{"coordinator.run_s", "s", "lower"},
	{"coordinator.dispatch_s", "s", "lower"},
	{"ckpt.commit_s", "s", "lower"},
	{"coordinator.ns_per_event", "ns", "lower"},
	// coordinator: set-up.
	{"coordinator.new_s", "s", "lower"},
	{"coordinator.new_alloc_mb", "MB", "lower"},
	{"setup.cold_new_s", "s", "lower"},
	// coordinator: restart.
	{"coordinator.restart_s", "s", "lower"},
	{"restart.count", "count", "lower"},
	{"restart.fallback_depth", "count", "lower"},
	{"restart.verified_pages", "count", "lower"},
	// coordinator: report and fingerprint.
	{"coordinator.report_s", "s", "lower"},
	{"report.bytes", "bytes", "lower"},
	{"coordinator.fingerprint_s", "s", "lower"},
	{"report.fingerprint_passes", "count", "lower"},
	// scenario and fleet.
	{"scenario.compile_s", "s", "lower"},
	{"scenario.ops", "count", "lower"},
	{"fleet.compiles", "count", "lower"},
	{"fleet.config_s", "s", "lower"},
	{"coordinator.release_s", "s", "lower"},
	// Go runtime.
	{"go.alloc_mb_per_job", "MB", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	// Simulated counts: model statistics a host-only change must not move.
	{"coordinator.events", "count", "lower"},
	{"coordinator.rank_visits", "count", "lower"},
	{"netsim.messages", "count", "lower"},
	{"virtid.lookups", "count", "lower"},
	{"ckpt.count", "count", "lower"},
	{"ckpt.image_bytes", "bytes", "lower"},
	{"ckpt.dirty_bytes", "bytes", "lower"},
	{"ckpt.dedup_bytes", "bytes", "higher"},
	{"ckpt.stored_bytes", "bytes", "lower"},
	{"ckpt.drained_msgs", "count", "lower"},
	{"ckpt.drain_events", "count", "lower"},
	{"storage.pfs_wait_vns", "ns", "lower"},
	// The benchmark itself: tracing overhead and warm-up.
	{"job.traced_s", "s", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"warmup.rep0_ratio", "ratio", "lower"},
}

// simCounts are the per-layer metrics that are model statistics: every
// traced job of a run must report them identically.
var simCounts = []string{
	"memsim.hashed_bytes",
	"restart.count", "restart.fallback_depth", "restart.verified_pages",
	"report.bytes", "report.fingerprint_passes",
	"coordinator.events", "coordinator.rank_visits", "netsim.messages", "virtid.lookups",
	"ckpt.count", "ckpt.image_bytes", "ckpt.dirty_bytes", "ckpt.dedup_bytes",
	"ckpt.stored_bytes", "ckpt.drained_msgs", "ckpt.drain_events", "storage.pfs_wait_vns",
}
