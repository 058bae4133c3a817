// Package fleet executes many independent manasim simulations in one
// process — the simulator as an experiment service rather than a
// one-run CLI.
//
// The Engine is the multi-run core. Each run is fully isolated: a
// coordinator, its ranks, network and queues share no mutable state
// with any other run (the isolation lint in cmd/isolint keeps the
// audit honest — no package-level mutable state exists under
// internal/). What runs DO share is recycled storage and compiled
// inputs, the two costs that dominate cold runs:
//
//   - a sync.Pool of coordinator.Scratch instances lends each run the
//     previous run's event-queue lanes, per-rank bookkeeping slices,
//     collective rendezvous instances and memsim region buffers, all
//     handed over reset so a warm run is byte-identical to a cold one;
//   - a keyed compile cache shares scenario programs: a spec compiled
//     for a given (spec, ranks, steps, seed, group) is compiled once
//     and the resulting programs are read-only thereafter — ranks only
//     ever index their script — so any number of concurrent runs can
//     execute the same compiled workload.
//
// Spec compilation itself is serialised under the engine lock:
// scenario.Spec.Compile re-validates its receiver in place (parsed
// durations are cached on the spec), so two goroutines compiling one
// *Spec concurrently would race. The cache makes the serialisation
// cheap — each key compiles exactly once.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"mana/internal/coordinator"
	"mana/internal/faultplan"
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/storage"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// ErrRestartsExhausted reports that a run kept failing past its restart
// budget (coordinator.Config.MaxRestarts): every c.Restart() call —
// including attempts that themselves crashed mid-restore — counts
// against the budget, and exhausting it means the fault plan was not
// recoverable within the configured bound.
var ErrRestartsExhausted = errors.New("fleet: restart budget exhausted")

// Job is the run description: everything one simulation needs, from the
// workload to the failure and storage policy. cmd/manasim parses its
// flags into a Job and Engine.Config is the only translation from a Job
// to a coordinator configuration, so a CLI run, a sweep cell and a
// library caller with the same Job print the same bytes. Note the zero
// Virtid is virtid.ImplMutex (the MANA baseline), not the sharded table
// the CLI defaults to.
type Job struct {
	// Spec is the workload, compiled through the engine's cache. Exactly
	// one of Spec and Programs is set.
	Spec *scenario.Spec
	// Programs replays recorded per-rank op streams (a trace) verbatim
	// instead of compiling a spec; the rank count is len(Programs), and
	// Ranks, Steps and Group are unused.
	Programs []scenario.Program
	Ranks    int
	Steps    int
	Seed     uint64
	// Group is the sub-communicator width for specs that split
	// communicators; 0 uses the spec's own default.
	Group  int
	Kernel kernelsim.Personality
	Virtid virtid.Impl
	// CkptAt anchors the checkpoint policy in virtual time.
	CkptAt vtime.Time
	// FailAfter injects a rank crash FailDelay after this checkpoint
	// commits (0 = never); the engine's Run restarts and completes the
	// job. It compiles to faultplan.Legacy and applies only when neither
	// Faults nor the spec declares a plan.
	FailAfter int
	// FailDelay is FailAfter's virtual-time delay (0 = 250us).
	FailDelay vtime.Duration
	// Faults, when non-nil, is a declarative fault plan that replaces
	// the spec's plan and FailAfter. It is compiled per job because rank
	// counts vary across sweep cells.
	Faults      *faultplan.Plan
	Incremental bool
	FullEvery   int
	// Storage, when non-nil, declares the checkpoint I/O pipeline for
	// this job (burst-buffer staging, PFS contention, compression) and
	// replaces any storage block the spec itself declares. Nil uses the
	// spec's block, or the direct-to-PFS default when the spec has none.
	Storage *storage.Spec
	// Islands <= 0 applies the spec's lane-count hint (or serial);
	// Workers <= 1 drains serially. Both are pure performance knobs.
	Islands int
	Workers int
}

// defaultFailDelay is FailAfter's delay when FailDelay is zero: a few
// application steps after the commit at the library specs' granularity.
const defaultFailDelay = 250 * vtime.Microsecond

// Result carries one completed run's headline metrics — everything the
// sweep aggregate reports besides the report hash, which the caller
// computes from the bytes Run streams into its writer.
type Result struct {
	Makespan    vtime.Time
	Events      uint64
	RankVisits  uint64
	Checkpoints int
	Restarts    int
	// ImageBytes totals what every committed checkpoint wrote.
	ImageBytes uint64
	// FinalFingerprint hashes the surviving application state after the
	// run completes; a recoverable fault plan must reproduce the
	// fault-free run's value bit for bit.
	FinalFingerprint uint64
	// FallbackDepth is the deepest generation fallback any restart took
	// (0 = every restart restored the newest committed checkpoint).
	FallbackDepth int
	// LostWork totals the virtual time re-executed across all restarts.
	LostWork vtime.Duration
	// StoredBytes totals what every committed checkpoint shipped to
	// storage after compression (ImageBytes when compression is off).
	StoredBytes uint64
	// PFSWait totals the contention delay checkpoint writes and drains
	// spent queued behind the shared parallel file system.
	PFSWait vtime.Duration
}

// compileKey identifies one compiled program set. The spec is keyed by
// pointer identity: the engine's LoadSpec caches specs by name, so one
// sweep resolves each spec once and every cell over it shares the key.
type compileKey struct {
	spec         *scenario.Spec
	ranks, steps int
	group        int
	seed         uint64
}

// Engine runs simulations with cross-run reuse of scratch storage and
// compiled specs. The zero Engine is not usable; call NewEngine. An
// Engine is safe for concurrent use; specs handed to it (via Job.Spec
// or LoadSpec) must not be compiled or mutated outside the engine while
// it runs.
type Engine struct {
	mu       sync.Mutex
	specs    map[string]*scenario.Spec
	compiled map[compileKey][]scenario.Program
	compiles uint64

	// scratch recycles coordinator storage across runs. sync.Pool gives
	// each concurrent run its own Scratch — the one-live-run-per-Scratch
	// discipline coordinator.Scratch requires — and drops extras under
	// memory pressure.
	scratch sync.Pool
}

// NewEngine returns an empty engine: the first run on it allocates and
// compiles cold, later runs reuse.
func NewEngine() *Engine {
	return &Engine{
		specs:    make(map[string]*scenario.Spec),
		compiled: make(map[compileKey][]scenario.Program),
		scratch: sync.Pool{
			New: func() any { return coordinator.NewScratch() },
		},
	}
}

// LoadSpec resolves a spec by library name or JSON file path, cached so
// every job over the same name shares one *Spec (and therefore one
// compile-cache key per parameter set).
func (e *Engine) LoadSpec(name string) (*scenario.Spec, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.specs[name]; ok {
		return s, nil
	}
	var (
		s   *scenario.Spec
		err error
	)
	if scenario.IsLibrary(name) {
		s, err = scenario.Load(name)
	} else {
		s, err = scenario.LoadFile(name)
	}
	if err != nil {
		return nil, err
	}
	e.specs[name] = s
	return s, nil
}

// Programs returns the compiled per-rank programs for (spec, p),
// compiling at most once per key. The returned slice and everything it
// references are shared and read-only: callers hand them to
// coordinator.Config verbatim and never mutate them.
func (e *Engine) Programs(spec *scenario.Spec, p scenario.Params) ([]scenario.Program, error) {
	key := compileKey{spec: spec, ranks: p.Ranks, steps: p.Steps, group: p.Group, seed: p.Seed}
	e.mu.Lock()
	defer e.mu.Unlock()
	if progs, ok := e.compiled[key]; ok {
		return progs, nil
	}
	progs, err := spec.Compile(p)
	if err != nil {
		return nil, err
	}
	e.compiles++
	e.compiled[key] = progs
	return progs, nil
}

// Compiles returns how many spec compilations the engine has performed —
// the compile cache's miss count. Deterministic for a given job set:
// one per distinct compile key.
func (e *Engine) Compiles() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compiles
}

// triggers translates a spec's checkpoint policy into coordinator
// triggers, all anchored at the given virtual time. A spec (or a trace,
// which carries no policy) without one gets the classic
// three-checkpoint sequence.
func triggers(cks []scenario.CheckpointSpec, at vtime.Time) []coordinator.Trigger {
	if len(cks) == 0 {
		return []coordinator.Trigger{
			{At: at},
			{At: at, InFlight: true},
			{At: at, MidCollective: true},
		}
	}
	trig := make([]coordinator.Trigger, 0, len(cks))
	for _, ck := range cks {
		tr := coordinator.Trigger{At: at}
		switch ck.Kind {
		case "in-flight":
			tr.InFlight = true
		case "mid-collective":
			tr.MidCollective = true
		case "forming-colls":
			tr.FormingColls = ck.Colls
		}
		trig = append(trig, tr)
	}
	return trig
}

// Config translates the job into a coordinator configuration, compiling
// its spec through the cache. It is the only place the run-level
// decisions are made:
//   - faults: Job.Faults, else the spec's plan, else FailAfter as
//     faultplan.Legacy — always delivered as cfg.Faults;
//   - storage: Job.Storage, else the spec's block, else the direct
//     default; a drain-hop fault needs a burst buffer to drain from;
//   - islands: Job.Islands, else the spec's hint;
//   - triggers: the spec's checkpoint policy (the classic three for a
//     trace) anchored at CkptAt.
func (e *Engine) Config(j Job) (coordinator.Config, error) {
	cfg := coordinator.BaseConfig()
	spec := j.Spec
	switch {
	case spec != nil && len(j.Programs) > 0:
		return coordinator.Config{}, fmt.Errorf("fleet: job sets both Spec and Programs")
	case spec != nil:
		progs, err := e.Programs(spec, scenario.Params{Ranks: j.Ranks, Steps: j.Steps, Seed: j.Seed, Group: j.Group})
		if err != nil {
			return coordinator.Config{}, err
		}
		cfg.Programs = progs
	case len(j.Programs) > 0:
		// A trace carries no checkpoint policy, plan, storage block or
		// islands hint.
		spec = &scenario.Spec{}
		cfg.Programs = j.Programs
	default:
		return coordinator.Config{}, fmt.Errorf("fleet: job has neither Spec nor Programs")
	}
	cfg.Ranks = len(cfg.Programs)
	cfg.Personality = j.Kernel
	cfg.Virtid = j.Virtid
	cfg.Seed = j.Seed
	cfg.Incremental = j.Incremental
	cfg.FullImageEvery = j.FullEvery
	cfg.Triggers = triggers(spec.Checkpoints, j.CkptAt)

	plan := j.Faults
	if plan == nil {
		plan = spec.Faults
	}
	if plan == nil && j.FailAfter > 0 {
		delay := j.FailDelay
		if delay <= 0 {
			delay = defaultFailDelay
		}
		legacy := faultplan.Legacy(j.FailAfter, delay)
		plan = &legacy
	}
	if plan != nil {
		faults, err := plan.Compile(cfg.Ranks)
		if err != nil {
			return coordinator.Config{}, err
		}
		cfg.Faults = faults
		if plan.MaxRestarts > 0 {
			cfg.MaxRestarts = plan.MaxRestarts
		}
	}

	stSpec := j.Storage
	if stSpec == nil {
		stSpec = spec.Storage
	}
	st, err := storage.Compile(stSpec)
	if err != nil {
		return coordinator.Config{}, err
	}
	cfg.Storage = st
	if faultplan.AnyDrainHop(cfg.Faults) && !st.Staging {
		return coordinator.Config{}, fmt.Errorf("fleet: fault plan anchors on \"image-write/drain\" but storage declares no burst buffer (drain faults need -storage staged or a burst_buffer block)")
	}

	cfg.Islands = j.Islands
	if cfg.Islands <= 0 {
		cfg.Islands = spec.Islands
	}
	cfg.Workers = j.Workers
	return cfg, nil
}

// Run executes one configuration to completion — including any injected
// failure and the restarts that recover from it — streaming the full
// deterministic output (restart notices followed by the report) into w.
// A nil w discards the output. The run borrows a recycled Scratch from
// the engine and returns it when the run retires; concurrent Runs are
// safe and each borrows its own.
func (e *Engine) Run(cfg coordinator.Config, w io.Writer) (Result, error) {
	if w == nil {
		w = io.Discard
	}
	sc := e.scratch.Get().(*coordinator.Scratch)
	cfg.Scratch = sc
	c := coordinator.New(cfg)
	outcome, err := c.Run()
	if err != nil {
		// An errored run's storage is mid-flight (queued events, open
		// rendezvous); drop the scratch rather than recycle it.
		return Result{}, fmt.Errorf("run failed: %w", err)
	}
	attempts := 0
	for outcome == coordinator.Failed {
		fmt.Fprintf(w, "injected failure after checkpoint #%d; restarting from last image\n",
			len(c.Records()))
		for {
			attempts++
			if cfg.MaxRestarts > 0 && attempts > cfg.MaxRestarts {
				return Result{}, fmt.Errorf("fleet: run still failing after %d restart attempts: %w",
					attempts-1, ErrRestartsExhausted)
			}
			err := c.Restart()
			if err == nil {
				break
			}
			if errors.Is(err, coordinator.ErrRestartFault) {
				// The restore itself crashed; the poisoned image is
				// skipped and the next attempt falls back further.
				fmt.Fprintf(w, "restart failed (injected restart fault); falling back to an older image\n")
				continue
			}
			return Result{}, fmt.Errorf("restart failed: %w", err)
		}
		outcome, err = c.Run()
		if err != nil {
			return Result{}, fmt.Errorf("post-restart run failed: %w", err)
		}
	}
	c.WriteReport(w)
	res := Result{
		Makespan:         c.MaxClock(),
		Events:           c.EventsDispatched(),
		RankVisits:       c.RankVisits(),
		Checkpoints:      len(c.Records()),
		Restarts:         len(c.Restarts()),
		FinalFingerprint: c.FinalFingerprint(),
	}
	for _, rec := range c.Records() {
		res.ImageBytes += rec.ImageBytes
		res.StoredBytes += rec.StoredBytes
		res.PFSWait += rec.PFSWait
	}
	for _, rr := range c.Restarts() {
		if rr.FallbackDepth > res.FallbackDepth {
			res.FallbackDepth = rr.FallbackDepth
		}
		res.LostWork += rr.LostWork
	}
	c.Release()
	e.scratch.Put(sc)
	return res, nil
}

// RunJob is Config followed by Run.
func (e *Engine) RunJob(j Job, w io.Writer) (Result, error) {
	cfg, err := e.Config(j)
	if err != nil {
		return Result{}, err
	}
	return e.Run(cfg, w)
}
