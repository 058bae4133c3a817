package coordinator

import (
	"runtime"
	"testing"

	"mana/internal/scenario"
	"mana/internal/vtime"
)

// idleHeavyConfig builds the scheduler-scaling scenario: rank 0 is the
// only busy rank, alternating compute phases with one send to each other
// rank; every other rank posts a single receive and then blocks until
// its message arrives. Under the old full-scan loop every iteration
// visited all N ranks even though N-1 of them were blocked; under event
// dispatch the blocked ranks cost nothing until their delivery events
// fire.
func idleHeavyConfig(ranks int) Config {
	cfg := DefaultConfig()
	cfg.Ranks = ranks
	cfg.Triggers = nil
	cfg.Programs = scenario.PerRank(cfg.Ranks, func(id int) []scenario.Op {
		if id == 0 {
			script := make([]scenario.Op, 0, 2*(ranks-1))
			for d := 1; d < ranks; d++ {
				script = append(script,
					scenario.Op{Kind: scenario.OpCompute, Dur: 1 * vtime.Microsecond},
					scenario.Op{Kind: scenario.OpSend, Peer: d, Bytes: 1024, Tag: d},
				)
			}
			return script
		}
		return []scenario.Op{{Kind: scenario.OpRecv, Peer: 0, Tag: id}}
	})
	return cfg
}

// TestBlockedRanksConsumeZeroSchedulerWork pins the core scaling
// property down to an exact visit count: a blocked rank is touched
// exactly twice — once when it posts the receive and blocks, once when
// the delivery event wakes it — no matter how many events the busy rank
// generates in between.
func TestBlockedRanksConsumeZeroSchedulerWork(t *testing.T) {
	const computePhases = 100
	cfg := DefaultConfig()
	cfg.Ranks = 3
	cfg.Triggers = nil
	cfg.Programs = scenario.PerRank(cfg.Ranks, func(id int) []scenario.Op {
		if id == 0 {
			script := make([]scenario.Op, 0, computePhases+2)
			for i := 0; i < computePhases; i++ {
				script = append(script, scenario.Op{Kind: scenario.OpCompute, Dur: 1 * vtime.Microsecond})
			}
			script = append(script,
				scenario.Op{Kind: scenario.OpSend, Peer: 1, Bytes: 64},
				scenario.Op{Kind: scenario.OpSend, Peer: 2, Bytes: 64},
			)
			return script
		}
		return []scenario.Op{{Kind: scenario.OpRecv, Peer: 0}}
	})
	c := New(cfg)
	outcome, err := c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("Run = %v, %v", outcome, err)
	}
	// rank 0: computePhases + 2 sends; ranks 1 and 2: one blocked receive
	// attempt + one wake each.
	want := uint64(computePhases+2) + 2 + 2
	if got := c.RankVisits(); got != want {
		t.Errorf("rank visits = %d, want exactly %d (blocked ranks must consume zero scheduler work)", got, want)
	}
}

// TestIdleHeavy4096Ranks is the acceptance scenario for the event-driven
// scheduler: 4096 ranks, all but one blocked in a receive, must complete
// well within test timeouts and with at least 10x fewer rank visits than
// the old O(ranks)-per-iteration full scan would have spent.
func TestIdleHeavy4096Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank scenario skipped in -short mode")
	}
	const ranks = 4096
	c := New(idleHeavyConfig(ranks))
	outcome, err := c.Run()
	if err != nil || outcome != Completed {
		t.Fatalf("Run = %v, %v", outcome, err)
	}
	for _, r := range c.Ranks()[1:] {
		if r.Stats().MsgsRecvd != 1 {
			t.Fatalf("rank %d received %d messages, want 1", r.ID(), r.Stats().MsgsRecvd)
		}
	}
	// The old scheduler executed at most one op per rank per iteration
	// and visited every rank on every iteration, so it needed at least
	// (busiest rank's op count) x ranks visits for the same virtual-time
	// span. That is a conservative lower bound: iterations without
	// progress (blocked receives) scanned all ranks too.
	busiest := uint64(2 * (ranks - 1)) // rank 0's script length
	oldScanVisits := busiest * uint64(ranks)
	got := c.RankVisits()
	if got*10 > oldScanVisits {
		t.Errorf("rank visits = %d; old full scan needed >= %d; want at least a 10x reduction", got, oldScanVisits)
	}
	t.Logf("events=%d rank-visits=%d (old full-scan lower bound %d, reduction %.0fx)",
		c.EventsDispatched(), got, oldScanVisits, float64(oldScanVisits)/float64(got))
}

// benchScheduler measures the event loop end to end on the idle-heavy
// scenario at a given scale. Setup (rank construction, address-space
// bookkeeping) is excluded from the timing so the numbers track
// scheduler work, which is the quantity that must scale with events
// rather than ranks.
//
// maxAllocsPerEvent, when positive, asserts a ceiling on steady-state
// allocations per dispatched event inside Run: the event loop reuses its
// rendezvous scratch and queue storage, so the only per-event allocation
// left is the network message a send injects. The assertion pins that —
// a regression that starts allocating per event fails the benchmark
// rather than silently shifting the numbers.
func benchScheduler(b *testing.B, ranks int, maxAllocsPerEvent float64) {
	b.ReportAllocs()
	var ms runtime.MemStats
	var runAllocs, runEvents uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(idleHeavyConfig(ranks))
		// Collect construction garbage outside the timed section: rank
		// setup allocates far more than the event loop does, and a GC
		// cycle triggered mid-Run would charge that cleanup to the
		// scheduler numbers.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		startAllocs := ms.Mallocs
		b.StartTimer()
		outcome, err := c.Run()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		runAllocs += ms.Mallocs - startAllocs
		runEvents += c.EventsDispatched()
		b.StartTimer()
		if err != nil || outcome != Completed {
			b.Fatalf("Run = %v, %v", outcome, err)
		}
		if i == 0 {
			b.ReportMetric(float64(c.RankVisits()), "rank-visits")
			b.ReportMetric(float64(c.EventsDispatched()), "events")
		}
	}
	b.StopTimer()
	if perEvent := float64(runAllocs) / float64(runEvents); maxAllocsPerEvent > 0 && perEvent > maxAllocsPerEvent {
		b.Errorf("steady-state allocations = %.2f/event (%d allocs over %d events), want <= %.2f/event",
			perEvent, runAllocs, runEvents, maxAllocsPerEvent)
	}
}

func BenchmarkScheduler64Ranks(b *testing.B) { benchScheduler(b, 64, 0) }

// benchOverlapDrain measures a checkpointed run whose collectives either
// overlap (staggered sub-communicator layouts, checkpoint requested with
// at least two collectives in flight — the drain planner must
// topologically sort a real dependency graph) or serialise (the
// bit-identical step structure with every collective retargeted to the
// world communicator, so at most one can ever be in flight). The pair
// tracks the drain planner's cost from day one: same op counts, same
// compute jitter, different overlap width.
func benchOverlapDrain(b *testing.B, overlap bool) {
	b.ReportAllocs()
	const ranks, steps = 64, 6
	wl := scenario.MustPrograms("overlap", scenario.Params{Ranks: ranks, Steps: steps, Seed: 11, Group: 8})
	mkConfig := func() Config {
		cfg := DefaultConfig()
		cfg.Ranks = ranks
		cfg.Seed = 11
		if overlap {
			cfg.Programs = wl
			cfg.Triggers = []Trigger{{At: vtime.Time(300 * vtime.Microsecond), FormingColls: 2}}
			return cfg
		}
		cfg.Programs = scenario.PerRank(ranks, func(id int) []scenario.Op {
			ops := wl[id]
			serial := make([]scenario.Op, 0, len(ops)-2)
			for _, op := range ops[2:] { // drop the comm-splits
				op.Comm = 0 // every collective runs over the world communicator
				serial = append(serial, op)
			}
			return serial
		})
		cfg.Triggers = []Trigger{{At: vtime.Time(300 * vtime.Microsecond), MidCollective: true}}
		return cfg
	}
	var rec CheckpointRecord
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(mkConfig())
		runtime.GC()
		b.StartTimer()
		outcome, err := c.Run()
		if err != nil || outcome != Completed {
			b.Fatalf("Run = %v, %v", outcome, err)
		}
		if len(c.Records()) != 1 {
			b.Fatalf("checkpoints = %d, want 1", len(c.Records()))
		}
		rec = c.Records()[0]
	}
	if overlap && rec.OverlapWidth < 2 {
		b.Fatalf("OverlapWidth = %d, want >= 2 — the overlap variant stopped overlapping", rec.OverlapWidth)
	}
	if !overlap && rec.OverlapWidth > 1 {
		b.Fatalf("OverlapWidth = %d, want <= 1 — the serial variant stopped serialising", rec.OverlapWidth)
	}
	b.ReportMetric(float64(rec.DrainPlanned), "drain-planned")
	b.ReportMetric(float64(rec.OverlapWidth), "overlap-width")
	b.ReportMetric(float64(rec.DrainEvents), "drain-events")
}

func BenchmarkOverlapDrain(b *testing.B) {
	b.Run("overlap", func(b *testing.B) { benchOverlapDrain(b, true) })
	b.Run("serial", func(b *testing.B) { benchOverlapDrain(b, false) })
}

// BenchmarkScheduler512Ranks carries the allocs/op assertion: roughly
// half the events are sends (one netsim.Message allocation each), so a
// healthy steady state sits near 0.5 allocations per event; 1.0 leaves
// room for map growth while still catching any new per-event allocation.
func BenchmarkScheduler512Ranks(b *testing.B)  { benchScheduler(b, 512, 1.0) }
func BenchmarkScheduler4096Ranks(b *testing.B) { benchScheduler(b, 4096, 0) }

// islandBenchConfig builds the island-scaling scenario: one topology
// group per island, a send/recv ring inside each group, and a leader
// exchange between neighbouring groups every fourth step. Unlike the
// idle-heavy scenario (whose single busy rank is inherently serial),
// every island carries equal load, so the workload parallelises across
// workers while the cross-group lookahead keeps windows wide. The ops
// are pure message traffic — no compute phases — so 65536-rank runs do
// not materialise 4 GiB of per-rank state regions.
func islandBenchConfig(ranks, islands, workers int) Config {
	const steps = 8
	groupSize := ranks / islands
	cfg := DefaultConfig()
	cfg.Ranks = ranks
	cfg.Triggers = nil
	cfg.Net.GroupSize = groupSize
	cfg.Net.CrossGroupLatency = 10 * vtime.Microsecond
	cfg.Islands = islands
	cfg.Workers = workers
	nGroups := ranks / groupSize
	cfg.Programs = scenario.PerRank(ranks, func(id int) []scenario.Op {
		g := id / groupSize
		base := g * groupSize
		next := base + (id-base+1)%groupSize
		prev := base + (id-base+groupSize-1)%groupSize
		ops := make([]scenario.Op, 0, 2*steps+4)
		for s := 0; s < steps; s++ {
			ops = append(ops,
				scenario.Op{Kind: scenario.OpSend, Peer: next, Bytes: 256, Tag: s},
				scenario.Op{Kind: scenario.OpRecv, Peer: prev, Tag: s},
			)
			if id == base && nGroups > 1 && s%4 == 3 {
				nextLeader := ((g + 1) % nGroups) * groupSize
				prevLeader := ((g + nGroups - 1) % nGroups) * groupSize
				ops = append(ops,
					scenario.Op{Kind: scenario.OpSend, Peer: nextLeader, Bytes: 128, Tag: 1000 + s},
					scenario.Op{Kind: scenario.OpRecv, Peer: prevLeader, Tag: 1000 + s},
				)
			}
		}
		return ops
	})
	return cfg
}

// benchIslands measures the island scheduler end to end, serial or
// parallel, with the same steady-state allocation assertion as
// benchScheduler: queue storage and window scratch are reused across
// events and windows, so per-event allocations stay bounded by the
// network messages the workload injects.
func benchIslands(b *testing.B, ranks, islands, workers int, maxAllocsPerEvent float64) {
	b.ReportAllocs()
	var ms runtime.MemStats
	var runAllocs, runEvents uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(islandBenchConfig(ranks, islands, workers))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		startAllocs := ms.Mallocs
		b.StartTimer()
		outcome, err := c.Run()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		runAllocs += ms.Mallocs - startAllocs
		runEvents += c.EventsDispatched()
		b.StartTimer()
		if err != nil || outcome != Completed {
			b.Fatalf("Run = %v, %v", outcome, err)
		}
		if i == 0 {
			b.ReportMetric(float64(c.RankVisits()), "rank-visits")
			b.ReportMetric(float64(c.EventsDispatched()), "events")
		}
	}
	b.StopTimer()
	if perEvent := float64(runAllocs) / float64(runEvents); maxAllocsPerEvent > 0 && perEvent > maxAllocsPerEvent {
		b.Errorf("steady-state allocations = %.2f/event (%d allocs over %d events), want <= %.2f/event",
			perEvent, runAllocs, runEvents, maxAllocsPerEvent)
	}
}

// BenchmarkScheduler65536Ranks pins the 64Ki-rank scale target. The
// serial variant carries the allocs/op assertion (roughly half the
// events are sends at one netsim.Message allocation each); the 4-worker
// variant records the parallel wall-clock on the same partition, so the
// BENCH_sched.json artifact tracks the serial-vs-parallel trajectory.
func BenchmarkScheduler65536Ranks(b *testing.B) { benchIslands(b, 65536, 16, 1, 1.0) }
func BenchmarkScheduler65536Ranks4Workers(b *testing.B) {
	benchIslands(b, 65536, 16, 4, 0)
}
