package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"mana/internal/coordinator"
	"mana/internal/fleet"
	"mana/internal/scenario"
)

// options configures one benchmark run.
type options struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	// spansPath, when set, receives the traced run's spans as JSON lines.
	spansPath string
	// tamper, when set, is asked once per timed job; true makes that
	// job's report digest wrong, as a broken program's would be.
	tamper func(job int) bool
	// log receives the human-readable lines printed before the result.
	log io.Writer
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is what one job produced: its headline result and a digest of
// every byte it printed (restart notices and report).
type outcome struct {
	res    fleet.Result
	digest [sha256.Size]byte
	bytes  int64
}

// digester hashes and counts a job's output as it streams.
type digester struct {
	h hash.Hash
	n int64
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digester) outcome(res fleet.Result) outcome {
	o := outcome{res: res, bytes: d.n}
	d.h.Sum(o.digest[:0])
	return o
}

// bench is the state of one run: the engine every job shares, the serial
// job, the reference outcome every later job must reproduce, and the
// failure tally.
type bench struct {
	opt options
	eng *fleet.Engine
	job fleet.Job
	ref outcome
	// rss, when set, is told of every timed job's end.
	rss *rssWindows

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// record counts one job, failed unless ok.
func (b *bench) record(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failLocked(format, args...)
	}
}

// demote turns a job already counted as passed into a failed one.
func (b *bench) demote(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failLocked(format, args...)
}

func (b *bench) failLocked(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// untracedJob runs one job exactly as a fleet user would: Config, then
// Run (New, Run, restarts, WriteReport, FinalFingerprint, Release).
func (b *bench) untracedJob(j fleet.Job) (outcome, time.Duration, error) {
	d := newDigester()
	t0 := time.Now()
	res, err := b.eng.RunJob(j, d)
	dur := time.Since(t0)
	return d.outcome(res), dur, err
}

// sample is one completed timed job.
type sample struct {
	dur    time.Duration
	end    time.Time
	events uint64
	layer  map[string]float64
}

// closedLoop runs body in rounds until the deadline: each round starts
// one job per client at once, and the next round starts when all of them
// have finished. Clients left to run back to back drift in and out of
// step over many seconds, and how often their checkpoints overlap, the
// peak memory with them, then differs from run to run; rounds keep them
// in step. It returns the successful samples and the window from the
// start to the end of the last job.
func (b *bench) closedLoop(seconds float64, body func(client, job int, t *tracer) (sample, bool), tracers []*tracer) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	per := make([][]sample, b.opt.w.clients)
	for job := 0; time.Now().Before(deadline); {
		var wg sync.WaitGroup
		for c := range per {
			job++
			wg.Add(1)
			go func(c, job int) {
				defer wg.Done()
				var t *tracer
				if tracers != nil {
					t = tracers[c]
				}
				if s, ok := body(c, job, t); ok {
					per[c] = append(per[c], s)
				}
			}(c, job)
		}
		wg.Wait()
	}
	var all []sample
	last := start
	for _, ss := range per {
		for _, s := range ss {
			if s.end.After(last) {
				last = s.end
			}
		}
		all = append(all, ss...)
	}
	return all, last.Sub(start)
}

// timedUntraced is the closed-loop body of the untraced runs.
func (b *bench) timedUntraced(client, job int, _ *tracer) (sample, bool) {
	o, dur, err := b.untracedJob(b.job)
	end := time.Now()
	if b.rss != nil {
		b.rss.jobDone()
	}
	if err != nil {
		b.record(false, "job %d: %v", job, err)
		return sample{}, false
	}
	if b.opt.tamper != nil && b.opt.tamper(job) {
		o.digest[0] ^= 0xff
	}
	if o != b.ref {
		b.record(false, "job %d (client %d): report or counts differ from the first job", job, client)
		return sample{}, false
	}
	b.record(true, "")
	return sample{dur: dur, end: end, events: o.res.Events}, true
}

// setupOnce times one cold set-up on a fresh engine: LoadSpec, job
// construction, compile, Config and coordinator.New. In a traced run the
// compile is timed on its own first, so Config then hits the cache.
func setupOnce(w workload, seed uint64, t *tracer, rep int) (total time.Duration, layer map[string]float64, err error) {
	runtime.GC()
	layer = make(map[string]float64)
	root := t.begin("setup", noParent, rep)
	eng := fleet.NewEngine()
	m := t.begin("fleet.LoadSpec", root, rep)
	spec, err := eng.LoadSpec(w.spec)
	t.end(m)
	if err != nil {
		return 0, nil, err
	}
	j, err := w.job(spec, seed)
	if err != nil {
		return 0, nil, err
	}
	if t != nil {
		m = t.begin("scenario.compile", root, rep)
		progs, err := eng.Programs(spec, scenario.Params{Ranks: j.Ranks, Steps: j.Steps, Seed: j.Seed, Group: j.Group})
		layer["scenario.compile_s"] = t.end(m).Seconds()
		if err != nil {
			return 0, nil, err
		}
		ops := 0
		for _, p := range progs {
			ops += len(p)
		}
		layer["scenario.ops"] = float64(ops)
	}
	m = t.begin("fleet.Engine.Config", root, rep)
	cfg, err := eng.Config(j)
	t.end(m)
	if err != nil {
		return 0, nil, err
	}
	a0 := heapAllocs()
	m = t.begin("coordinator.New", root, rep)
	c := coordinator.New(cfg)
	layer["setup.cold_new_s"] = t.end(m).Seconds()
	layer["coordinator.new_alloc_mb"] = float64(heapAllocs()-a0) / 1e6
	total = t.end(root)
	runtime.KeepAlive(c)
	return total, layer, nil
}

// measureSetup repeats cold set-ups — at least five, up to a hundred while
// they fit in a short budget — so setup_s is a median, not one noisy draw.
func measureSetup(opt options, t *tracer) ([]float64, []map[string]float64, error) {
	const (
		budget  = 1500 * time.Millisecond
		minReps = 5
		maxReps = 100
	)
	var (
		samples []float64
		layers  []map[string]float64
	)
	start := time.Now()
	for i := 0; i < minReps || (i < maxReps && time.Since(start) < budget); i++ {
		d, layer, err := setupOnce(opt.w, opt.seed, t, i)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		samples = append(samples, d.Seconds())
		layers = append(layers, layer)
	}
	return samples, layers, nil
}

// run executes one benchmark run and returns its result.
func run(opt options) (result, error) {
	if opt.log == nil {
		opt.log = io.Discard
	}
	w := opt.w
	epoch := time.Now()
	var setupTracer *tracer
	if opt.trace {
		setupTracer = newTracer(-1, epoch)
	}
	setupS, setupLayers, err := measureSetup(opt, setupTracer)
	if err != nil {
		return result{}, err
	}
	// Hand the set-ups' memory back so the peaks below are the jobs' own.
	debug.FreeOSMemory()

	b := &bench{opt: opt, eng: fleet.NewEngine()}
	spec, err := b.eng.LoadSpec(w.spec)
	if err != nil {
		return result{}, err
	}
	if b.job, err = w.job(spec, opt.seed); err != nil {
		return result{}, err
	}
	// Warm-up: one untimed job per client. The first is the reference
	// every later job must reproduce byte for byte.
	var rep0 time.Duration
	for c := 0; c < w.clients; c++ {
		o, dur, err := b.untracedJob(b.job)
		if err != nil {
			return result{}, fmt.Errorf("warm-up job: %w", err)
		}
		if c == 0 {
			b.ref, rep0 = o, dur
			b.record(true, "")
		} else {
			b.record(o == b.ref, "warm-up job %d differs from the first", c)
		}
	}

	res := result{Metrics: make(map[string]value)}
	put := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = value{Value: v, Unit: d.unit}
				return
			}
		}
		panic("perfbench: metric " + name + " is not declared")
	}

	if opt.trace {
		err = b.traced(opt, setupLayers, setupTracer, rep0, put)
	} else {
		err = b.untraced(opt, setupS, rep0, put)
	}
	if err != nil {
		return result{}, err
	}
	b.checks()
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	fmt.Fprintf(opt.log, "failed_frac %.6f frac (%d of %d jobs failed)\n",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Fprintf(opt.log, "FAILED: %s\n", f)
	}
	return res, nil
}

// noSamples is the note for a loop in which every job failed: there is
// nothing to time, and the failures already make the result incorrect.
const noSamples = "every job of the loop failed; no metrics\n"

// untraced is the --trace 0 run: the closed loop with tracing off.
func (b *bench) untraced(opt options, setupS []float64, rep0 time.Duration, put func([]metricDef, string, float64)) error {
	w := opt.w
	var err error
	if b.rss, err = newRSSWindows(w.clients); err != nil {
		return err
	}
	samples, window := b.closedLoop(opt.seconds, b.timedUntraced, nil)
	if len(samples) == 0 {
		fmt.Fprint(opt.log, noSamples)
		return nil
	}
	peaks, err := b.rss.windowPeaks()
	if err != nil {
		return err
	}
	durs, events := jobStats(samples)
	p50 := median(durs)
	put(endToEnd, "job_s.p50", p50)
	put(endToEnd, "job_s.tail", quantile(durs, w.tailPct))
	put(endToEnd, "jobs_per_s", float64(len(samples))/window.Seconds())
	put(endToEnd, "sim_events_per_s", float64(events)/window.Seconds())
	put(endToEnd, "setup_s", median(setupS))
	put(endToEnd, "peak_rss_mb", mean(peaks))
	fmt.Fprintf(opt.log, "workload %s seed %d: %d timed jobs over %.3f s by %d client(s); setup_s is the median of %d cold set-ups\n",
		w.name, opt.seed, len(samples), window.Seconds(), w.clients, len(setupS))
	fmt.Fprintf(opt.log, "job_s.tail is p%.1f (%d samples beyond it of %d); rep 0 took %.4f s, %.2fx the median\n",
		w.tailPct, beyond(len(durs), w.tailPct), len(durs), rep0.Seconds(), rep0.Seconds()/p50)
	fmt.Fprintf(opt.log, "job times (s): %s\n", fmtList("%.3f", durs))
	fmt.Fprintf(opt.log, "peak_rss_mb is the mean of %d window peaks (MB): %s\n", len(peaks), fmtList("%.1f", peaks))
	return nil
}

// rssWindows cuts the timed loop into windows of at least a second and
// at least one job per client, and takes each window's peak resident set
// (VmHWM, reset as the window opens). peak_rss_mb is the mean of these
// peaks. The whole run's peak is one moment, and hangs on how jobs and GC
// cycles happened to line up in it. The median is no better on
// fleet-pair: its window peaks fall in two groups, with one or with both
// clients' checkpoints in flight, and the median jumps between them.
type rssWindows struct {
	mu      sync.Mutex
	clients int
	start   time.Time
	jobs    int
	peaks   []float64
	err     error
}

func newRSSWindows(clients int) (*rssWindows, error) {
	r := &rssWindows{clients: clients}
	return r, r.open()
}

func (r *rssWindows) open() error {
	r.start, r.jobs = time.Now(), 0
	return resetPeakRSS()
}

// jobDone counts one finished job and closes the window once it is long
// enough.
func (r *rssWindows) jobDone() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs++
	if r.err == nil && r.jobs >= r.clients && time.Since(r.start) >= time.Second {
		r.close()
	}
}

func (r *rssWindows) close() {
	peak, err := peakRSSMB()
	if err == nil {
		r.peaks = append(r.peaks, peak)
		err = r.open()
	}
	r.err = err
}

// windowPeaks returns the closed windows' peaks. The unfinished last
// window is dropped, unless the loop was too short to close any.
func (r *rssWindows) windowPeaks() ([]float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil && len(r.peaks) == 0 {
		r.close()
	}
	return r.peaks, r.err
}

// checks runs the untimed once-per-run correctness jobs.
func (b *bench) checks() {
	// Island-parallel scheduling is a pure performance knob: the report
	// must be the serial job's, byte for byte.
	pj := b.job
	pj.Islands, pj.Workers = 4, 2
	o, _, err := b.untracedJob(pj)
	b.record(err == nil && o == b.ref, "islands 4 / workers 2 job differs from the serial job (err %v)", err)

	// A recoverable fault plan must land on the fault-free final state.
	if b.opt.w.faults != nil {
		fj := b.job
		fj.Faults = nil
		o, _, err := b.untracedJob(fj)
		ok := err == nil && b.ref.res.Restarts > 0 && o.res.Restarts == 0 &&
			o.res.FinalFingerprint == b.ref.res.FinalFingerprint
		b.record(ok, "fault-free twin: fingerprint %016x vs %016x, restarts %d vs %d (err %v)",
			o.res.FinalFingerprint, b.ref.res.FinalFingerprint, o.res.Restarts, b.ref.res.Restarts, err)
	}
}

// traced is the --trace 1 run. Phase A repeats the untraced closed loop
// for 40% of the time (the Go-runtime metrics and the untraced median the
// overhead is taken against); phase B runs the traced runner for the rest.
func (b *bench) traced(opt options, setupLayers []map[string]float64, setupTracer *tracer, rep0 time.Duration,
	put func([]metricDef, string, float64)) error {
	a0 := heapAllocs()
	gc0, cpu0 := gcCPU()
	samplesA, _ := b.closedLoop(0.4*opt.seconds, b.timedUntraced, nil)
	a1 := heapAllocs()
	gc1, cpu1 := gcCPU()
	if len(samplesA) == 0 {
		fmt.Fprint(opt.log, noSamples)
		return nil
	}
	durA, _ := jobStats(samplesA)
	untracedP50 := median(durA)

	tracers := make([]*tracer, opt.w.clients)
	epoch := time.Now()
	for c := range tracers {
		tracers[c] = newTracer(c, epoch)
	}
	scratch := make([]*coordinator.Scratch, opt.w.clients)
	for c := range scratch {
		scratch[c] = coordinator.NewScratch()
	}
	samplesB, _ := b.closedLoop(0.6*opt.seconds, func(client, job int, t *tracer) (sample, bool) {
		s, ok := b.tracedIteration(t, scratch[client], job)
		if !ok {
			// A failed run's scratch may be mid-flight; like
			// fleet.Engine.Run, drop it rather than reuse it.
			scratch[client] = coordinator.NewScratch()
		}
		return s, ok
	}, tracers)
	if len(samplesB) == 0 {
		fmt.Fprint(opt.log, noSamples)
		return nil
	}

	layers := make([]map[string]float64, len(samplesB))
	for i, s := range samplesB {
		layers[i] = s.layer
	}
	// Simulated counts are model statistics: they must repeat exactly.
	for i, l := range layers {
		for _, k := range simCounts {
			if l[k] != layers[0][k] {
				b.demote("traced job %d: %s = %v, the first traced job had %v", i, k, l[k], layers[0][k])
				break
			}
		}
	}
	for _, d := range perLayer {
		var xs []float64
		for _, l := range layers {
			if v, ok := l[d.name]; ok {
				xs = append(xs, v)
			}
		}
		for _, l := range setupLayers {
			if v, ok := l[d.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			put(perLayer, d.name, median(xs))
		}
	}
	durB, _ := jobStats(samplesB)
	tracedP50 := median(durB)
	put(perLayer, "fleet.compiles", float64(b.eng.Compiles()))
	put(perLayer, "go.alloc_mb_per_job", float64(a1-a0)/1e6/float64(len(samplesA)))
	put(perLayer, "go.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0))
	put(perLayer, "job.traced_s", tracedP50)
	put(perLayer, "trace.overhead_frac", tracedP50/untracedP50-1)
	put(perLayer, "warmup.rep0_ratio", rep0.Seconds()/untracedP50)

	all := append([]*tracer{setupTracer}, tracers...)
	fmt.Fprintf(opt.log, "workload %s seed %d: %d untraced jobs (p50 %.4f s), then %d traced jobs (p50 %.4f s): tracing overhead %+.2f%%\n",
		opt.w.name, opt.seed, len(samplesA), untracedP50, len(samplesB), tracedP50, 100*(tracedP50/untracedP50-1))
	printSelfTimes(opt.log, selfTimes(all))
	if opt.spansPath != "" {
		if err := writeSpans(opt.spansPath, all); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(opt.log, "spans written to %s\n", opt.spansPath)
	}
	return nil
}

// tracedIteration runs one traced job — a span around every public
// coordinator call, the fleet restart loop copied from fleet.Engine.Run —
// then probes memsim on the finished job and times the job's
// checkpoint-free twin. Only the job and its Release count as job time.
func (b *bench) tracedIteration(t *tracer, sc *coordinator.Scratch, job int) (sample, bool) {
	// coordinator.restart_s stays 0 on a job that never restarts.
	layer := map[string]float64{"coordinator.restart_s": 0}
	d := newDigester()
	add := func(k string, dur time.Duration) { layer[k] += dur.Seconds() }

	root := t.begin("job", noParent, job)
	m := t.begin("fleet.Engine.Config", root, job)
	cfg, err := b.eng.Config(b.job)
	add("fleet.config_s", t.end(m))
	if err != nil {
		b.record(false, "traced job %d: %v", job, err)
		return sample{}, false
	}
	cfg.Scratch = sc
	m = t.begin("coordinator.New", root, job)
	c := coordinator.New(cfg)
	add("coordinator.new_s", t.end(m))
	fail := func(err error) (sample, bool) {
		b.record(false, "traced job %d: %v", job, err)
		return sample{}, false
	}

	m = t.begin("coordinator.Run", root, job)
	out, err := c.Run()
	add("coordinator.run_s", t.end(m))
	if err != nil {
		return fail(fmt.Errorf("run failed: %w", err))
	}
	attempts := 0
	for out == coordinator.Failed {
		fmt.Fprintf(d, "injected failure after checkpoint #%d; restarting from last image\n", len(c.Records()))
		for {
			attempts++
			if cfg.MaxRestarts > 0 && attempts > cfg.MaxRestarts {
				return fail(fleet.ErrRestartsExhausted)
			}
			m = t.begin("coordinator.Restart", root, job)
			err := c.Restart()
			add("coordinator.restart_s", t.end(m))
			if err == nil {
				break
			}
			if errors.Is(err, coordinator.ErrRestartFault) {
				fmt.Fprintf(d, "restart failed (injected restart fault); falling back to an older image\n")
				continue
			}
			return fail(fmt.Errorf("restart failed: %w", err))
		}
		m = t.begin("coordinator.Run", root, job)
		out, err = c.Run()
		add("coordinator.run_s", t.end(m))
		if err != nil {
			return fail(fmt.Errorf("post-restart run failed: %w", err))
		}
	}
	var report bytes.Buffer
	m = t.begin("coordinator.WriteReport", root, job)
	c.WriteReport(io.MultiWriter(d, &report))
	add("coordinator.report_s", t.end(m))
	m = t.begin("coordinator.FinalFingerprint", root, job)
	fp := c.FinalFingerprint()
	add("coordinator.fingerprint_s", t.end(m))
	jobDur := t.end(root)

	// The report ends with its own full fingerprint pass; count it when
	// the report carries the value the explicit pass computed.
	passes := 1
	if bytes.Contains(report.Bytes(), []byte("final fingerprint: "+fmt.Sprintf("%016x", fp))) {
		passes++
	}
	layer["report.fingerprint_passes"] = float64(passes)
	layer["report.bytes"] = float64(d.n)
	b.countLayer(c, layer)
	t.count(root, "events", c.EventsDispatched())
	t.count(root, "report_bytes", uint64(d.n))

	// memsim probe: snapshot every rank's upper half, then hash it with
	// the per-region memo dropped, so every byte goes through FNV.
	p := t.begin("memsim.probe", noParent, job)
	var snapT, hashT time.Duration
	var hashed uint64
	var bad error
	for _, r := range c.Ranks() {
		t0 := time.Now()
		snap := r.Mem().SnapshotUpperHalf()
		t1 := time.Now()
		memo := snap.Fingerprint()
		snap.RegionHashes = nil
		t2 := time.Now()
		fresh := snap.Fingerprint()
		t3 := time.Now()
		snapT += t1.Sub(t0)
		hashT += t3.Sub(t2)
		for _, reg := range snap.Regions {
			hashed += uint64(len(reg.Data))
		}
		if memo != fresh && bad == nil {
			bad = fmt.Errorf("rank %d: memoised fingerprint %016x, memo-free %016x", r.ID(), memo, fresh)
		}
	}
	t.end(p)
	t.count(p, "hashed_bytes", hashed)
	layer["memsim.snapshot_s"] = snapT.Seconds()
	layer["memsim.hash_s"] = hashT.Seconds()
	layer["memsim.hashed_bytes"] = float64(hashed)
	layer["memsim.hash_gb_per_s"] = float64(hashed) / hashT.Seconds() / 1e9

	m = t.begin("coordinator.Release", noParent, job)
	c.Release()
	rel := t.end(m)
	add("coordinator.release_s", rel)
	jobDur += rel
	end := time.Now()

	if o := d.outcome(fleet.Result{}); o.digest != b.ref.digest || o.bytes != b.ref.bytes {
		bad = errors.New("the traced runner's output differs from fleet.Engine.Run's")
	}
	if bad != nil {
		return fail(bad)
	}

	// The checkpoint-free twin: the same programs with every trigger and
	// fault cleared, so its Run is pure event dispatch.
	twin := cfg
	twin.Triggers, twin.Faults, twin.FailAtCheckpoint = nil, nil, 0
	tw := t.begin("twin", noParent, job)
	m = t.begin("coordinator.New", tw, job)
	c2 := coordinator.New(twin)
	t.end(m)
	m = t.begin("coordinator.Run", tw, job)
	out, err = c2.Run()
	dispatch := t.end(m)
	if err != nil || out != coordinator.Completed {
		return fail(fmt.Errorf("checkpoint-free twin: outcome %v, err %v", out, err))
	}
	events := c2.EventsDispatched()
	c2.Release()
	t.end(tw)
	layer["coordinator.dispatch_s"] = dispatch.Seconds()
	layer["ckpt.commit_s"] = layer["coordinator.run_s"] - dispatch.Seconds()
	layer["coordinator.ns_per_event"] = float64(dispatch.Nanoseconds()) / float64(events)

	b.record(true, "")
	return sample{dur: jobDur, end: end, events: c.EventsDispatched(), layer: layer}, true
}

// countLayer fills the simulated counts of a finished job.
func (b *bench) countLayer(c *coordinator.Coordinator, layer map[string]float64) {
	layer["coordinator.events"] = float64(c.EventsDispatched())
	layer["coordinator.rank_visits"] = float64(c.RankVisits())
	layer["netsim.messages"] = float64(c.Net().TotalSent())
	layer["virtid.lookups"] = float64(c.LookupStats().HandleLookups)
	var img, dirty, dedup, stored, drained, drainEv, wait float64
	for _, rec := range c.Records() {
		img += float64(rec.ImageBytes)
		dirty += float64(rec.DirtyBytes)
		dedup += float64(rec.DedupBytes)
		stored += float64(rec.StoredBytes)
		drained += float64(rec.DrainedMsgs)
		drainEv += float64(rec.DrainEvents)
		wait += float64(rec.PFSWait)
	}
	layer["ckpt.count"] = float64(len(c.Records()))
	layer["ckpt.image_bytes"] = img
	layer["ckpt.dirty_bytes"] = dirty
	layer["ckpt.dedup_bytes"] = dedup
	layer["ckpt.stored_bytes"] = stored
	layer["ckpt.drained_msgs"] = drained
	layer["ckpt.drain_events"] = drainEv
	layer["storage.pfs_wait_vns"] = wait
	var depth, pages float64
	for _, rr := range c.Restarts() {
		depth = max(depth, float64(rr.FallbackDepth))
		pages += float64(rr.VerifiedPages)
	}
	layer["restart.count"] = float64(len(c.Restarts()))
	layer["restart.fallback_depth"] = depth
	layer["restart.verified_pages"] = pages
}

// fmtList lists values with the given verb, in the order they were taken.
func fmtList(verb string, xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, verb, x)
	}
	return b.String()
}

func jobStats(samples []sample) (durs []float64, events uint64) {
	for _, s := range samples {
		durs = append(durs, s.dur.Seconds())
		events += s.events
	}
	return durs, events
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the pct-th percentile of xs by linear interpolation
// between closest ranks (pct 100 is the maximum).
func quantile(xs []float64, pct float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := pct / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// beyond is how many of n samples lie above percentile pct.
func beyond(n int, pct float64) int {
	if pct >= 100 {
		return 0
	}
	return int(float64(n)*(1-pct/100) + 0.5)
}

// heapAllocs is the cumulative bytes allocated on the Go heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPU returns the cumulative CPU seconds spent in the garbage collector
// and the cumulative CPU seconds used (available minus idle).
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM)
// for this process, so the peak read later covers only the jobs.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads this process's peak resident set in MB (1e6 bytes).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
