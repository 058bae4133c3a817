// Command manasim runs a simulated N-rank MPI job under MANA-style
// transparent checkpointing and prints a deterministic virtual-time
// report.
//
// The flags describe one fleet.Job, the simulator's single run
// description: manasim parses them into a Job, and fleet.Engine.Config
// is the only translation from a Job to a coordinator configuration, so
// a standalone run and the same cell of a -sweep print the same bytes.
//
// The workload a job runs is a declarative scenario spec: named phases
// of compute and communication ops, compiled deterministically into one
// op stream per rank. A small library of specs ships in the binary
// (-spec stencil, -spec overlap, ...); -spec also accepts a path to a
// JSON spec file, so new workloads need no Go. Alternatively -trace
// replays a recorded per-rank op stream verbatim, and -record emits one
// for any job.
//
// The default scenario runs 8 ranks through the "default" halo-exchange
// spec, takes one checkpoint at a fixed virtual time, one while
// point-to-point traffic is in flight and one deliberately requested in
// the middle of a collective (exercising the protocol's deferral path),
// injects a failure after the second checkpoint commits, restarts from
// the last image and runs to completion. Two consecutive invocations
// with the same flags print byte-identical reports.
//
// Failure injection is declarative: -faults names a JSON fault plan
// (see internal/faultplan) whose ordered injections anchor at
// checkpoint commits, drain starts, image writes, virtual times or
// restart attempts, and whose kinds cover rank crashes, torn image
// writes and silent page corruption. Restart verifies every retained
// image chain and falls back across checkpoint generations to the
// newest verifiable one; the report accounts the fallback depth, lost
// work and verify cost. A -faults plan replaces any plan the spec
// declares, which in turn replaces the single crash -fail-after and
// -fail-delay describe (compiled to a one-fault plan).
//
// Checkpoint I/O runs through a configurable storage pipeline (see
// internal/storage): a shared parallel filesystem whose aggregate
// bandwidth is contended across all concurrent writers (the default),
// optionally fronted by per-node burst buffers that stage image
// payloads and drain them asynchronously, and optionally per-page
// compression of incremental delta payloads. -storage selects a
// built-in profile or JSON document; -pfs-bandwidth, -bb-bandwidth,
// -bb-capacity, -compress and -compress-cost overlay individual knobs.
//
// With -spec overlap the job instead splits MPI_COMM_WORLD into two
// staggered sub-communicator layouts and runs every step's collectives
// on them, so collectives on overlapping communicators are concurrently
// in flight; the second checkpoint is requested at the first moment at
// least two collectives are forming, exercising the dependency-ordered
// (topological-sort) drain planner.
//
// Usage:
//
//	go run ./cmd/manasim [-ranks 8] [-steps 30] [-seed 42] [-kernel unpatched|patched]
//	                     [-virtid sharded|mutex] [-spec <name|file.json>] [-group 4]
//	                     [-trace job.trace] [-record job.trace]
//	                     [-ckpt-at 5ms] [-fail-after 2] [-fail-delay 250us] [-no-fail]
//	                     [-faults plan.json]
//	                     [-incremental] [-full-every 4]
//	                     [-storage direct|staged|staged-compressed|file.json]
//	                     [-pfs-bandwidth 16e9] [-bb-bandwidth 8e9] [-bb-capacity 268435456]
//	                     [-compress] [-compress-cost 0.3]
//	                     [-islands 8] [-workers 4]
//	go run ./cmd/manasim -sweep [-sweep-specs default,overlap] [-sweep-ranks 4,8]
//	                     [-sweep-ckpt 1ms,5ms] [-sweep-virtid sharded,mutex]
//	                     [-sweep-incremental false,true] [-sweep-storage direct,staged]
//	                     [-sweep-workers 4]
//
// -islands and -workers select the sharded parallel scheduler: ranks
// are partitioned across island event lanes and drained by that many
// goroutines inside conservative lookahead windows. Both are pure
// performance knobs — the report is byte-identical for every setting,
// which the smoke matrix verifies.
//
// -sweep switches to fleet mode: the Job the other flags describe is
// the grid's base, and the cross product of the -sweep-* dimension
// lists (each defaulting to the corresponding single-run flag's value)
// runs as a grid of complete simulations on a bounded worker pool
// inside one process, sharing compiled scenario programs and pooled
// scheduler scratch across runs. The output is a JSON aggregate with
// one cell per run — its parameters, headline metrics and the FNV-64a
// hash plus byte count of the report that run printed — and fleet
// totals (runs, wall time, runs/sec, spec compiles). Cell hashes are
// byte-identical to the equivalent standalone invocation at any
// -sweep-workers setting. Flags that only make sense for a single run
// (-record, -trace, -group) are rejected under -sweep, and -sweep-*
// dimension flags are rejected without -sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mana/internal/faultplan"
	"mana/internal/fleet"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// options holds one invocation's flag values. set records which flags
// were passed at all: several flags are only meaningful in combination
// with others, and a flag that would be silently ignored is rejected
// instead.
type options struct {
	ranks, steps, group int
	seed                uint64
	kernel, virtid      string
	spec, trace, record string
	ckptAt              time.Duration
	failAfter           int
	failDelay           time.Duration
	noFail              bool
	faults              string
	incremental         bool
	fullEvery           int
	islands, workers    int

	storage                   string
	pfsBandwidth, bbBandwidth float64
	bbCapacity                uint64
	compress                  bool
	compressCost              float64

	sweep                                bool
	sweepSpecs, sweepRanks, sweepCkpt    string
	sweepVirtid, sweepIncr, sweepStorage string
	sweepWorkers                         int

	set map[string]bool
}

// The flags that shape only part of the run, named for the checks that
// reject them when they would be silently ignored.
var (
	sweepFlags    = []string{"sweep-specs", "sweep-ranks", "sweep-ckpt", "sweep-virtid", "sweep-incremental", "sweep-storage", "sweep-workers"}
	storageKnobs  = []string{"pfs-bandwidth", "bb-bandwidth", "bb-capacity", "compress", "compress-cost"}
	failFlags     = []string{"fail-after", "fail-delay", "no-fail"}
	singleRunOnly = []string{"trace", "record", "group"}
)

// registerFlags declares every manasim flag on fs, bound to the returned
// options. The defaults are the default scenario the golden report pins.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.ranks, "ranks", 8, "number of simulated MPI ranks")
	fs.IntVar(&o.steps, "steps", 30, "workload iterations per rank")
	fs.Uint64Var(&o.seed, "seed", 42, "deterministic seed for workload jitter")
	fs.StringVar(&o.kernel, "kernel", "unpatched", "kernel personality: unpatched or patched")
	fs.StringVar(&o.virtid, "virtid", "sharded", "handle-virtualisation table: sharded (lock-free reads) or mutex (MANA baseline)")
	fs.StringVar(&o.spec, "spec", "default", "scenario spec: a library name ("+strings.Join(scenario.Names(), ", ")+") or a JSON spec file")
	fs.StringVar(&o.trace, "trace", "", "replay a recorded per-rank op trace instead of compiling a spec")
	fs.StringVar(&o.record, "record", "", "write the job's per-rank op streams to this trace file before running")
	fs.IntVar(&o.group, "group", 4, "sub-communicator group width, for specs that split communicators (e.g. overlap)")
	fs.DurationVar(&o.ckptAt, "ckpt-at", 5*time.Millisecond, "virtual time of the first checkpoint request")
	fs.IntVar(&o.failAfter, "fail-after", 2, "inject a failure after this checkpoint commits (0 = never)")
	fs.DurationVar(&o.failDelay, "fail-delay", 250*time.Microsecond, "with -fail-after: virtual-time delay between the commit and the injected failure")
	fs.BoolVar(&o.noFail, "no-fail", false, "disable the failure/restart scenario")
	fs.StringVar(&o.faults, "faults", "", "fault-plan JSON file; replaces -fail-after/-fail-delay/-no-fail and any plan the spec declares")
	fs.BoolVar(&o.incremental, "incremental", false, "write incremental (dirty-page delta) checkpoint images after the first full one")
	fs.IntVar(&o.fullEvery, "full-every", 4, "with -incremental, write a full image every Nth checkpoint (0 = only the first)")
	fs.IntVar(&o.islands, "islands", 0, "partition ranks across this many event-queue lanes (0 = spec hint or serial); never changes the report")
	fs.IntVar(&o.workers, "workers", 1, "goroutines draining island lanes in parallel windows (1 = serial); never changes the report")
	fs.StringVar(&o.storage, "storage", "", "checkpoint I/O pipeline: a built-in profile ("+strings.Join(storage.ProfileNames(), ", ")+") or a JSON storage document; overrides any storage block the spec declares")
	// The individual storage knobs default to the model constants: a knob
	// left unset contributes nothing, but a half-specified burst buffer
	// (say, -bb-capacity alone) completes from these.
	fs.Float64Var(&o.pfsBandwidth, "pfs-bandwidth", storage.DefaultPFSBandwidth, "aggregate parallel-filesystem bandwidth in bytes/second, contended across all writers (0 = free I/O)")
	fs.Float64Var(&o.bbBandwidth, "bb-bandwidth", storage.DefaultBBBandwidth, "per-node burst-buffer staging bandwidth in bytes/second (0 = free staging); enables staging")
	fs.Uint64Var(&o.bbCapacity, "bb-capacity", storage.DefaultBBCapacity, "per-node burst-buffer capacity in bytes; staged bytes beyond it write through to the PFS; enables staging")
	fs.BoolVar(&o.compress, "compress", false, "compress incremental delta pages per region class before storing (requires -incremental)")
	fs.Float64Var(&o.compressCost, "compress-cost", storage.DefaultCompressCost, "with -compress: kernel CPU cost per input byte, in ns")
	fs.BoolVar(&o.sweep, "sweep", false, "run a grid of simulations concurrently and print a JSON aggregate instead of one report")
	fs.StringVar(&o.sweepSpecs, "sweep-specs", "", "with -sweep: comma-separated spec names/files for the grid (default: -spec)")
	fs.StringVar(&o.sweepRanks, "sweep-ranks", "", "with -sweep: comma-separated rank counts (default: -ranks)")
	fs.StringVar(&o.sweepCkpt, "sweep-ckpt", "", "with -sweep: comma-separated first-checkpoint times (default: -ckpt-at)")
	fs.StringVar(&o.sweepVirtid, "sweep-virtid", "", "with -sweep: comma-separated virtid implementations (default: -virtid)")
	fs.StringVar(&o.sweepIncr, "sweep-incremental", "", "with -sweep: comma-separated booleans for incremental images (default: -incremental)")
	fs.StringVar(&o.sweepStorage, "sweep-storage", "", "with -sweep: comma-separated storage profiles/files for the grid (default: the single-run storage flags)")
	fs.IntVar(&o.sweepWorkers, "sweep-workers", 0, "with -sweep: concurrent simulations in the pool (0 = GOMAXPROCS)")
	return o
}

// parseFlags registers the flags on fs and parses args into options.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, nil
}

// firstSet returns the first of the named flags the user passed,
// spelled as on the command line, or "" if none was.
func (o *options) firstSet(names ...string) string {
	for _, n := range names {
		if o.set[n] {
			return "-" + n
		}
	}
	return ""
}

// build validates the flags and turns them into the run description:
// the Job a single run executes or, under -sweep, the grid whose Base
// is that Job. Every rejection names the offending flag. A single run's
// Job is also put through Engine.Config, so whatever the translator
// refuses is a usage error too.
func (o *options) build(eng *fleet.Engine) (fleet.Job, *fleet.Sweep, error) {
	var job fleet.Job
	if o.sweep {
		if f := o.firstSet(singleRunOnly...); f != "" {
			return job, nil, fmt.Errorf("%s cannot be combined with -sweep (it applies to a single run)", f)
		}
	} else if f := o.firstSet(sweepFlags...); f != "" {
		return job, nil, fmt.Errorf("%s has no effect without -sweep", f)
	}
	if o.set["trace"] {
		if f := o.firstSet("spec", "group", "ranks", "steps"); f != "" {
			return job, nil, fmt.Errorf("%s has no effect with -trace (a trace fixes the job's ops and rank count)", f)
		}
	}
	switch {
	case o.ranks < 1:
		return job, nil, fmt.Errorf("-ranks must be at least 1 (got %d)", o.ranks)
	case o.steps < 0:
		return job, nil, fmt.Errorf("-steps must be non-negative (got %d)", o.steps)
	case o.set["group"] && o.group < 2:
		return job, nil, fmt.Errorf("-group must be at least 2 (got %d)", o.group)
	case o.fullEvery < 0:
		return job, nil, fmt.Errorf("-full-every must be non-negative (got %d)", o.fullEvery)
	case o.islands < 0:
		return job, nil, fmt.Errorf("-islands must be non-negative (got %d)", o.islands)
	case o.workers < 1:
		return job, nil, fmt.Errorf("-workers must be at least 1 (got %d)", o.workers)
	case o.set["sweep-workers"] && o.sweepWorkers < 1:
		return job, nil, fmt.Errorf("-sweep-workers must be at least 1 (got %d)", o.sweepWorkers)
	}
	var kernel kernelsim.Personality
	switch o.kernel {
	case "unpatched":
		kernel = kernelsim.Unpatched
	case "patched":
		kernel = kernelsim.Patched
	default:
		return job, nil, fmt.Errorf("unknown -kernel %q (want unpatched or patched)", o.kernel)
	}
	impl, err := virtid.ParseImpl(o.virtid)
	if err != nil {
		return job, nil, fmt.Errorf("-virtid: %w", err)
	}
	plan, err := o.faultPlan()
	if err != nil {
		return job, nil, err
	}
	st, err := o.storageSpec()
	if err != nil {
		return job, nil, err
	}
	job = fleet.Job{
		Ranks:       o.ranks,
		Steps:       o.steps,
		Seed:        o.seed,
		Kernel:      kernel,
		Virtid:      impl,
		CkptAt:      vtime.Time(o.ckptAt),
		Faults:      plan,
		Incremental: o.incremental,
		FullEvery:   o.fullEvery,
		Storage:     st,
		Islands:     o.islands,
		Workers:     o.workers,
	}
	if o.set["group"] {
		job.Group = o.group
	}
	if plan == nil && !o.noFail {
		job.FailAfter = o.failAfter
		job.FailDelay = vtime.Duration(o.failDelay)
	}

	var sw *fleet.Sweep
	names, incremental := []string{o.spec}, []bool{o.incremental}
	switch {
	case o.sweep:
		grid, err := o.grid(job)
		if err != nil {
			return job, nil, err
		}
		sw, names, incremental = &grid, grid.Specs, grid.Incremental
	case o.set["trace"]:
		if job.Programs, err = readTrace(o.trace); err != nil {
			return job, nil, err
		}
		names = nil
	}
	specs, err := o.checkSpecs(eng, job, names, incremental)
	if err != nil {
		return job, nil, err
	}
	if sw != nil {
		return job, sw, nil
	}
	if len(specs) == 1 {
		job.Spec = specs[0]
	}
	cfg, err := eng.Config(job)
	if err != nil {
		return job, nil, err
	}
	if o.workers > 1 && cfg.Islands <= 1 {
		return job, nil, fmt.Errorf("-workers %d has no effect without -islands of at least 2 (workers drain island lanes in parallel)", o.workers)
	}
	return job, nil, nil
}

// faultPlan reads the -faults plan, first rejecting the failure flags it
// replaces: a flag the plan would silently override is an error, not a
// layered knob. It returns nil without -faults.
func (o *options) faultPlan() (*faultplan.Plan, error) {
	if o.failAfter < 0 {
		return nil, fmt.Errorf("-fail-after must be non-negative (got %d)", o.failAfter)
	}
	if o.faults != "" {
		if f := o.firstSet(failFlags...); f != "" {
			return nil, fmt.Errorf("%s cannot be combined with -faults (the plan owns failure injection)", f)
		}
		data, err := os.ReadFile(o.faults)
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		plan, err := faultplan.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("-faults %s: %w", o.faults, err)
		}
		return plan, nil
	}
	switch {
	case o.set["fail-delay"] && o.noFail:
		return nil, fmt.Errorf("-fail-delay has no effect with -no-fail")
	case o.set["fail-delay"] && !o.set["fail-after"]:
		return nil, fmt.Errorf("-fail-delay has no effect without -fail-after")
	case o.set["fail-delay"] && o.failDelay <= 0:
		return nil, fmt.Errorf("-fail-delay must be positive (got %v)", o.failDelay)
	case o.set["fail-after"] && o.noFail:
		return nil, fmt.Errorf("-fail-after has no effect with -no-fail")
	}
	return nil, nil
}

// storageSpec turns the storage flags into the Job's storage spec, nil
// when none was passed (the spec's block or the direct default then
// applies). -storage loads a base profile or document; the individual
// knobs overlay it, or an empty base without -storage.
func (o *options) storageSpec() (*storage.Spec, error) {
	knob := o.firstSet(storageKnobs...)
	if o.set["sweep-storage"] {
		if f := o.firstSet("storage") + knob; f != "" {
			return nil, fmt.Errorf("%s has no effect with -sweep-storage (the dimension sets each cell's pipeline)", f)
		}
		return nil, nil
	}
	base := &storage.Spec{}
	switch {
	case o.set["storage"]:
		b, err := storage.Load(o.storage)
		if err != nil {
			return nil, fmt.Errorf("-storage: %w", err)
		}
		base = b
	case knob == "":
		return nil, nil
	}
	if o.set["pfs-bandwidth"] {
		if base.PFS == nil {
			base.PFS = &storage.PFSSpec{}
		}
		base.PFS.AggregateBandwidth = o.pfsBandwidth
	}
	if o.set["bb-bandwidth"] || o.set["bb-capacity"] {
		if base.BurstBuffer == nil {
			base.BurstBuffer = &storage.BurstBufferSpec{Bandwidth: o.bbBandwidth, Capacity: o.bbCapacity}
		}
		if o.set["bb-bandwidth"] {
			base.BurstBuffer.Bandwidth = o.bbBandwidth
		}
		if o.set["bb-capacity"] {
			base.BurstBuffer.Capacity = o.bbCapacity
		}
	}
	if o.set["compress"] {
		if o.compress {
			if base.Compression == nil {
				base.Compression = &storage.CompressionSpec{}
			}
			base.Compression.Enabled = true
		} else {
			// -compress=false drops a profile's compression block whole;
			// a dangling cost would otherwise fail validation by name.
			base.Compression = nil
			base.Compressibility = nil
		}
	}
	if o.set["compress-cost"] {
		if base.Compression == nil || !base.Compression.Enabled {
			return nil, fmt.Errorf("-compress-cost has no effect without -compress (or a compression-enabled -storage profile)")
		}
		base.Compression.CostNsPerByte = o.compressCost
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return base, nil
}

// checkSpecs loads the named specs through the engine's cache and
// rejects, by name, the flags that would be silently ignored on one:
// -group on a spec without communicator splits, a failure flag beside
// the spec's own fault plan, a storage knob beside its storage block
// (override with -storage), and compression no run can use because
// none of the incremental values the invocation runs is true.
func (o *options) checkSpecs(eng *fleet.Engine, job fleet.Job, names []string, incremental []bool) ([]*scenario.Spec, error) {
	anyIncr := false
	for _, b := range incremental {
		anyIncr = anyIncr || b
	}
	if compresses(job.Storage) && !anyIncr {
		if o.set["compress"] {
			return nil, fmt.Errorf("-compress has no effect without -incremental (only delta pages compress)")
		}
		return nil, fmt.Errorf("-storage %q enables compression, which has no effect without -incremental (only delta pages compress)", o.storage)
	}
	specFlag := "-spec"
	if o.set["sweep-specs"] {
		specFlag = "-sweep-specs"
	}
	specs := make([]*scenario.Spec, len(names))
	for i, name := range names {
		spec, err := eng.LoadSpec(name)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", specFlag, name, err)
		}
		specs[i] = spec
		if o.set["group"] && !spec.UsesGroup() {
			return nil, fmt.Errorf("-group has no effect on spec %q: it declares no communicator splits", spec.Name)
		}
		if spec.Faults != nil && job.Faults == nil {
			if f := o.firstSet(failFlags...); f != "" {
				return nil, fmt.Errorf("%s has no effect on spec %q: it declares its own fault plan (override with -faults)", f, spec.Name)
			}
		}
		if spec.Storage == nil || o.set["storage"] || o.set["sweep-storage"] {
			continue
		}
		if f := o.firstSet(storageKnobs...); f != "" {
			return nil, fmt.Errorf("%s has no effect on spec %q: it declares its own storage block (override with -storage)", f, spec.Name)
		}
		if compresses(spec.Storage) && !anyIncr {
			return nil, fmt.Errorf("spec %q enables compression, which has no effect without -incremental (only delta pages compress)", spec.Name)
		}
	}
	return specs, nil
}

// compresses reports whether a storage spec enables delta compression.
func compresses(st *storage.Spec) bool {
	return st != nil && st.Compression != nil && st.Compression.Enabled
}

// readTrace loads the -trace file's per-rank op streams.
func readTrace(path string) ([]scenario.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	defer f.Close()
	progs, err := scenario.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("-trace %s: %w", path, err)
	}
	return progs, nil
}

// grid expands the -sweep-* dimension lists around base. A dimension
// left unset collapses to the value of its single-run flag, so `-sweep`
// alone is a 1-cell grid of exactly the single run.
func (o *options) grid(base fleet.Job) (fleet.Sweep, error) {
	sw := fleet.Sweep{Base: base, PoolWorkers: o.sweepWorkers}
	var err error
	if sw.Specs, err = sweepList("-sweep-specs", o.sweepSpecs, o.spec, func(v string) (string, error) {
		return v, nil
	}); err != nil {
		return sw, err
	}
	if sw.Ranks, err = sweepList("-sweep-ranks", o.sweepRanks, o.ranks, func(v string) (int, error) {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("%q is not a positive rank count", v)
		}
		return n, nil
	}); err != nil {
		return sw, err
	}
	if sw.CkptAt, err = sweepList("-sweep-ckpt", o.sweepCkpt, o.ckptAt, func(v string) (time.Duration, error) {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return 0, fmt.Errorf("%q is not a positive duration", v)
		}
		return d, nil
	}); err != nil {
		return sw, err
	}
	if sw.Virtids, err = sweepList("-sweep-virtid", o.sweepVirtid, o.virtid, func(v string) (string, error) {
		_, err := virtid.ParseImpl(v)
		return v, err
	}); err != nil {
		return sw, err
	}
	if sw.Incremental, err = sweepList("-sweep-incremental", o.sweepIncr, o.incremental, func(v string) (bool, error) {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return false, fmt.Errorf("%q is not a boolean", v)
		}
		return b, nil
	}); err != nil {
		return sw, err
	}
	if o.sweepStorage != "" {
		sw.Storage = splitList(o.sweepStorage)
	}
	return sw, nil
}

// sweepList parses one comma-separated -sweep-* dimension, or returns
// def alone when the list is empty. Errors name the flag.
func sweepList[T any](flagName, list string, def T, parse func(string) (T, error)) ([]T, error) {
	if list == "" {
		return []T{def}, nil
	}
	var out []T
	for _, v := range splitList(list) {
		x, err := parse(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", flagName, err)
		}
		out = append(out, x)
	}
	return out, nil
}

// splitList splits a comma-separated flag value, trimming spaces and
// dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runJob executes one run — including any injected failure and the
// restarts that recover from it — streaming the full deterministic
// output (restart notices followed by the report) into w. With record
// set it first writes the job's per-rank op streams there as a trace.
func runJob(eng *fleet.Engine, job fleet.Job, record string, w io.Writer) error {
	if record != "" {
		progs := job.Programs
		if progs == nil {
			var err error
			progs, err = eng.Programs(job.Spec, scenario.Params{Ranks: job.Ranks, Steps: job.Steps, Seed: job.Seed, Group: job.Group})
			if err != nil {
				return err
			}
		}
		if err := recordTrace(record, progs); err != nil {
			return err
		}
	}
	_, err := eng.RunJob(job, w)
	return err
}

// runSweep executes the grid on the engine and writes the
// machine-readable aggregate as indented JSON.
func runSweep(eng *fleet.Engine, sw fleet.Sweep, w io.Writer) error {
	res, err := eng.RunSweep(sw)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// recordTrace writes per-rank op streams as a replayable trace file.
func recordTrace(path string, progs []scenario.Program) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	if err := scenario.WriteTrace(f, progs); err != nil {
		f.Close()
		return fmt.Errorf("-record %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-record %s: %w", path, err)
	}
	return nil
}

func main() {
	// flag.CommandLine exits with the usage text on a malformed flag.
	o, _ := parseFlags(flag.CommandLine, os.Args[1:])
	eng := fleet.NewEngine()
	job, sweep, err := o.build(eng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "manasim: %v\n", err)
		os.Exit(2)
	}
	if sweep != nil {
		err = runSweep(eng, *sweep, os.Stdout)
	} else {
		err = runJob(eng, job, o.record, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "manasim: %v\n", err)
		os.Exit(1)
	}
}
